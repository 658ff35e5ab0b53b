"""The chain criterion in completion and the complement counts, checked
against completion without the criterion, against the pairwise s-series
check that divides every pair, against enumeration of the sub-level ball
and against the row-reduction oracles."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from localring import cli
from localring import diagram as DG
from localring import kernel as K
from localring import order as O
from localring import stdbasis as SB

WEIGHTS = (F(1, 2), F(2, 3), F(1), F(3, 2), F(3))


# -- strategies ------------------------------------------------------------------

def forms(n):
    return st.one_of(
        st.just(O.std_form(n)),
        st.tuples(*[st.sampled_from(WEIGHTS)] * n).map(O.LinearForm))


rationals = st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 3))


def polys(n):
    # total degree 1..3 keeps every head inside windows of 3 * max weight
    low = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: 1 <= sum(e) <= 3)
    return st.dictionaries(low, rationals, min_size=1,
                           max_size=4).map(lambda t: K.series(n, t))


@st.composite
def ideals(draw, form=None, finite=False):
    """(ideal, form): 2-4 generators in 2-3 variables; with `finite`, pure
    powers of every variable are added, so the staircase complement is
    finite."""
    n = draw(st.integers(2, 3))
    L = O.std_form(n) if form == "std" else draw(forms(n))
    gens = draw(st.lists(polys(n), min_size=2, max_size=4))
    if finite:
        gens += [K.monomial(n, tuple(draw(st.integers(1, 3)) if i == j else 0
                                     for i in range(n)))
                 for j in range(n)]
    return K.IdealPresentation(n, tuple(gens)), L


def window(L, levels):
    return levels * max(L.weights)


def ball_counts(D, L, mu):
    """Complement points of the ball {L <= mu} at level <= c, for each c."""
    levels = [L.level(beta) for beta in O.iter_sublevel(L, mu)
              if not D.contains(beta)]
    return [sum(1 for lv in levels if lv <= c)
            for c in range(L.level_cap(mu) + 1)]


# -- the chain criterion -----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(ideals(), st.booleans())
def test_chain_criterion_keeps_the_staircase(problem, coprime_skip):
    I, L = problem
    mu = window(L, 5)
    on = SB.complete(I, L, mu, use_coprime_skip=coprime_skip)
    off = SB.complete(I, L, mu, use_coprime_skip=coprime_skip,
                      use_chain_criterion=False)
    assert DG.diagram_of(on).vertices == DG.diagram_of(off).vertices


@settings(max_examples=150, deadline=None)
@given(ideals())
def test_chain_completed_basis_passes_the_full_pair_check(problem):
    I, L = problem
    mu = window(L, 5)
    basis = SB.complete(I, L, mu)
    assert SB.becker_check(basis.gens, L, mu, use_coprime_skip=False).verified


def test_three_equal_heads_do_not_excuse_each_other():
    # all three pairs of x, x + y^2, x + z^3 share the lcm x; a pair may be
    # skipped only through pairs that have really left the queue
    std3 = O.std_form(3)
    x = K.variable(3, 0)
    I = K.IdealPresentation(3, (x, K.add(x, K.monomial(3, (0, 2, 0))),
                                K.add(x, K.monomial(3, (0, 0, 3)))))
    on = SB.complete(I, std3, 5)
    off = SB.complete(I, std3, 5, use_chain_criterion=False)
    assert DG.diagram_of(on).vertices == ((0, 0, 3), (0, 2, 0), (1, 0, 0))
    assert DG.diagram_of(off).vertices == DG.diagram_of(on).vertices
    # the pair (1, 2) is divided without the criterion and skipped with it,
    # so this fails if the criterion silently stops skipping
    assert len(on.completion_steps) == 2
    assert len(off.completion_steps) == 3


def test_sbasis_complete_keeps_the_criterion_off(tmp_path):
    # the command prints heads, adjoined members and steps as frozen JSON
    path = tmp_path / "equal_heads.ideal"
    path.write_text("vars: x y z\nprec: 5\ngen: x\ngen: x + y^2\ngen: x + z^3\n",
                    encoding="utf-8")
    code, rep = cli.run(["sbasis", "complete", "--file", str(path)])
    assert code == 0 and rep["steps"] == 3
    code, rep = cli.run(["diagram", "--file", str(path)])
    assert code == 0 and rep["vertices"] == [[0, 0, 3], [0, 2, 0], [1, 0, 0]]


# -- complement counts -------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(ideals(finite=True))
def test_walk_matches_the_ball_level_by_level_on_finite_complements(problem):
    I, L = problem
    mu = window(L, 3)
    D = DG.diagram_of(SB.complete(I, L, mu))
    assert [DG.complement_count(D, L, F(level, L.den))
            for level in range(L.level_cap(mu) + 1)] == ball_counts(D, L, mu)


@settings(max_examples=60, deadline=None)
@given(ideals())
def test_walk_matches_the_ball_and_the_sublevel_oracle(problem):
    I, L = problem
    mu = window(L, 3)
    D = DG.diagram_of(SB.complete(I, L, mu))
    assert DG.complement_count(D, L, -1) == 0
    for level, expected in enumerate(ball_counts(D, L, mu)):
        eta = F(level, L.den)
        count = DG.complement_count(D, L, eta)
        assert count == expected
        assert count == DG.oracle_sublevel_quotient_dim(I, L, eta)


@settings(max_examples=60, deadline=None)
@given(ideals(form="std"))
def test_hilbert_samuel_matches_the_jet_oracle(problem):
    I, L = problem
    basis = SB.complete(I, L, 5)
    assert DG.hilbert_samuel(basis, 5).values == tuple(
        DG.oracle_jet_quotient_dim(I, eta) for eta in range(6))
