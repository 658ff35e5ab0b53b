import operator
import random
from fractions import Fraction as F
from functools import reduce
from itertools import combinations_with_replacement
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from localring import diagram as DG
from localring import kernel as K
from localring import order as O
from localring import stdbasis as SB
from localring.approx import example_family
from localring.errors import (
    MissingAxisVertex,
    PrecisionShortfall,
    PresentationError,
    TrivialEvaluation,
    UnverifiedBasis,
)
from localring.parser import load_ideal_file
from conftest import rand_poly
import oracles as OR

SAMPLES = Path(__file__).resolve().parent.parent / "sample_ideals"

std1 = O.std_form(1)
std2 = O.std_form(2)
std3 = O.std_form(3)


class TestDiagramOf:
    def test_example_vertices(self):
        I = example_family(8)
        basis = SB.becker_check(I.gens, std3, 8)
        assert DG.diagram_of(basis).vertices == ((0, 5, 0), (2, 3, 0), (8, 0, 0))

    def test_single_monomial(self):
        basis = SB.becker_check([K.monomial(2, (2, 0))], std2, 4)
        assert DG.diagram_of(basis).vertices == ((2, 0),)

    def test_minimality_prunes(self):
        basis = SB.becker_check(
            [K.monomial(2, (2, 0)), K.monomial(2, (2, 1))], std2, 4)
        assert DG.diagram_of(basis).vertices == ((2, 0),)

    def test_unverified_rejected(self):
        basis = SB.CertifiedBasis((K.monomial(2, (2, 0)),), std2, F(4),
                                  False, heads=((2, 0),))
        with pytest.raises(UnverifiedBasis):
            DG.diagram_of(basis)

    def test_vertex_minimality_removing_changes_staircase(self):
        D = DG.Diagram(2, ((2, 0), (0, 3)), std2, F(10))
        for drop in range(len(D.vertices)):
            rest = DG.Diagram(
                2, tuple(v for i, v in enumerate(D.vertices) if i != drop),
                std2, F(10))
            changed = any(D.contains(b) != rest.contains(b)
                          for b in O.iter_sublevel(std2, 6))
            assert changed


class TestComplementCount:
    def test_small_staircase(self):
        D = DG.Diagram(2, ((2, 0), (0, 3)), std2, F(10))
        assert DG.complement_count(D, std2, 2) == 5

    def test_zero_ideal(self):
        D = DG.Diagram(2, (), std2, F(10))
        assert DG.complement_count(D, std2, 1) == 3

    def test_unit_ideal(self):
        D = DG.Diagram(3, ((0, 0, 0),), std3, F(10))
        for eta in range(5):
            assert DG.complement_count(D, std3, eta) == 0

    def test_window_enforced(self):
        D = DG.Diagram(2, ((2, 0),), std2, F(4))
        with pytest.raises(PrecisionShortfall):
            DG.complement_count(D, std2, 5)

    def test_against_brute_force(self):
        rng = random.Random(3)
        for _ in range(20):
            vertices = DG.minimal_antichain(
                tuple(rng.randint(0, 4) for _ in range(2)) for _ in range(3))
            D = DG.Diagram(2, vertices, std2, F(10))
            for eta in range(7):
                expected = sum(
                    1 for b in O.iter_sublevel(std2, eta)
                    if not any(all(x >= v for x, v in zip(b, vx))
                               for vx in vertices))
                assert DG.complement_count(D, std2, eta) == expected


@st.composite
def staircases(draw):
    """(vertices, weights, cap) in 1-5 variables with weights 1-6.  The
    vertices may repeat or divide one another, as the heads of a basis can.
    The walk visits every point of the sub-level ball outside the staircase,
    so draws whose ball may hold more than 6000 points are dropped."""
    n = draw(st.integers(1, 5))
    weights = draw(st.tuples(*[st.integers(1, 6)] * n))
    cap = draw(st.integers(-1, 30))
    assume(comb(cap // min(weights) + n, n) <= 6000)
    exponents = st.tuples(*[st.integers(0, 5)] * n)
    vertices = draw(st.lists(exponents, max_size=8))
    if vertices:
        vertices += [tuple(map(operator.add, v, draw(exponents)))
                     for v in draw(st.lists(st.sampled_from(vertices),
                                            max_size=2))]
    return tuple(draw(st.permutations(vertices))), weights, cap


def degree_power(n: int, d: int) -> tuple:
    """Every monomial of degree d in n variables: the vertices of m^d."""
    return tuple(tuple(combo.count(i) for i in range(n))
                 for combo in combinations_with_replacement(range(n), d))


class TestComplementLevels:
    @settings(max_examples=150, deadline=None)
    @given(staircases())
    @example(((), (1, 2), 30))  # no vertex: the whole sub-level ball
    @example((((2, 1), (0, 0), (1, 3)), (1, 1), 5))  # 0: nothing outside
    @example((((2, 1), (2, 1), (3, 1), (0, 4)), (2, 3), 30))  # not minimal
    @example((((1, 2, 0),), (1, 1, 1), -1))  # no level at all
    def test_numerator_matches_the_walk(self, staircase):
        assert DG._complement_levels(*staircase) == \
            OR.walk_complement_levels(*staircase)

    def test_every_degree_16_monomial_in_4_variables(self):
        levels = DG._complement_levels(degree_power(4, 16), (1,) * 4, 20)
        assert levels == [comb(c + 3, 3) if c < 16 else 0 for c in range(21)]

    def test_a_power_of_the_maximal_ideal_in_2_variables(self):
        levels = DG._complement_levels(degree_power(2, 200), (1, 1), 210)
        assert levels == [c + 1 if c < 200 else 0 for c in range(211)]


class TestHilbertSamuel:
    def test_monomial_table(self):
        I = K.IdealPresentation(2, (K.monomial(2, (2, 0)), K.monomial(2, (0, 3))))
        basis = SB.complete(I, std2, 8)
        assert DG.hilbert_samuel(basis, 5).values == (1, 3, 5, 6, 6, 6)

    def test_zero_ideal_line(self):
        # a principal ideal far out: H(eta) = eta + 1 until the vertex bites
        I = K.IdealPresentation(1, (K.monomial(1, (6,)),))
        basis = SB.complete(I, std1, 8)
        assert DG.hilbert_samuel(basis, 5).values == (1, 2, 3, 4, 5, 6)

    def test_nondecreasing_and_proper_start(self):
        rng = random.Random(11)
        for _ in range(10):
            I = K.IdealPresentation(
                2, tuple(rand_poly(rng, 2, min_order=1, max_exp=2)
                         for _ in range(2)))
            basis = SB.complete(I, std2, 6)
            values = DG.hilbert_samuel(basis, 6).values
            assert values[0] == 1
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_unverified_rejected(self):
        basis = SB.CertifiedBasis((K.monomial(2, (2, 0)),), std2, F(4),
                                  False, heads=((2, 0),))
        with pytest.raises(UnverifiedBasis, match="hilbert_samuel needs"):
            DG.hilbert_samuel(basis, 3)

    def test_far_window_of_a_principal_monomial_ideal(self):
        # outside (x*y) lie 2e + 1 monomials of degree e; a walk would visit
        # about four million points
        I = K.IdealPresentation(3, (K.monomial(3, (1, 1, 0)),))
        basis = SB.complete(I, std3, 2000)
        assert DG.hilbert_samuel(basis, 2000).values == tuple(
            (e + 1) ** 2 for e in range(2001))

    def test_integral_fraction_bound(self):
        # an integral Fraction is a degree; any other fraction is refused
        I = K.IdealPresentation(2, (K.monomial(2, (2, 0)), K.monomial(2, (0, 3))))
        basis = SB.complete(I, std2, 8)
        assert DG.hilbert_samuel(basis, F(6)).values == (1, 3, 5, 6, 6, 6, 6)
        with pytest.raises(PresentationError):
            DG.hilbert_samuel(basis, F(11, 2))


class TestPerturbedTables:
    def test_difference_appears_at_the_witness_level(self):
        # the adjoined vertex (2,2,7) sits at level 11: the tables agree on
        # every smaller window and first differ there, and the independent
        # oracle sees exactly the same values
        base = K.IdealPresentation(3, example_family(8).at(std3, 14))
        pert = K.IdealPresentation(
            3, example_family(8, K.variable(1, 0)).at(std3, 14))
        hb = DG.hilbert_samuel(SB.complete(base, std3, 12), 12).values
        hp = DG.hilbert_samuel(SB.complete(pert, std3, 12), 12).values
        assert hb[:11] == hp[:11]
        assert hb[11] == hp[11] + 1
        assert DG.oracle_jet_quotient_dim(base, 11) == hb[11]
        assert DG.oracle_jet_quotient_dim(pert, 11) == hp[11]


class TestOracle:
    def test_monomial_ideal(self):
        I = K.IdealPresentation(2, (K.monomial(2, (2, 0)), K.monomial(2, (0, 3))))
        assert DG.oracle_jet_quotient_dim(I, 2) == 5

    def test_zero_like_principal(self):
        I = K.IdealPresentation(1, (K.monomial(1, (9,)),))
        assert DG.oracle_jet_quotient_dim(I, 4) == 5

    def test_unit_ideal(self):
        I = K.IdealPresentation(2, (K.one(2),))
        for eta in range(4):
            assert DG.oracle_jet_quotient_dim(I, eta) == 0

    def test_weighted_sublevel_oracle_matches_staircase(self):
        # the same equivalence under non-standard forms, which is what the
        # flatness search runs on
        rng = random.Random(5)
        checked = 0
        while checked < 25:
            n = rng.randint(1, 3)
            L = O.LinearForm(tuple(F(rng.choice([1, 1, 2, 3]))
                                   for _ in range(n)))
            gens = tuple(rand_poly(rng, n, max_exp=2, min_order=1)
                         for _ in range(rng.randint(1, 3)))
            I = K.IdealPresentation(n, gens)
            try:
                basis = SB.complete(I, L, 8)
            except Exception:
                continue
            D = DG.diagram_of(basis)
            for eta in (2, 4, 6):
                assert DG.complement_count(D, L, eta) == \
                    DG.oracle_sublevel_quotient_dim(I, L, eta)
            checked += 1

    def test_split_form_completion_against_weighted_oracle(self):
        # the perturbed family under the split form: counts agree on both
        # sides of the level where the new vertex enters
        Lw = O.weighted_split_form(3, 2, 9)
        gens = example_family(8, K.variable(1, 0)).at(Lw, 72)
        I = K.IdealPresentation(3, gens, ("x", "y", "z"))
        D = DG.diagram_of(SB.complete(I, Lw, 72))
        assert (2, 2, 7) in D.vertices
        for eta in (8, 66, 68):
            assert DG.complement_count(D, Lw, eta) == \
                DG.oracle_sublevel_quotient_dim(I, Lw, eta)

    def test_matches_hilbert_samuel_on_seeded_ideals(self):
        rng = random.Random(77)
        for _ in range(12):
            n = rng.randint(1, 3)
            gens = tuple(rand_poly(rng, n, min_order=1, max_exp=2)
                         for _ in range(rng.randint(1, 3)))
            I = K.IdealPresentation(n, gens)
            basis = SB.complete(I, O.std_form(n), 6)
            hs = DG.hilbert_samuel(basis, 5).values
            oracle = tuple(DG.oracle_jet_quotient_dim(I, eta)
                           for eta in range(6))
            assert hs == oracle


@st.composite
def sparse_rows(draw):
    """(rows, queries): sparse rational rows on the monomials of 2 to 4
    variables; the queries include combinations of the rows."""
    n = draw(st.integers(2, 4))
    exponent = st.tuples(*[st.integers(0, 2)] * n)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    row = st.dictionaries(exponent, coeff, max_size=4)
    rows = draw(st.lists(row, max_size=8))
    queries = draw(st.lists(row, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        combo: dict = {}
        for r in rows:
            c = draw(coeff)
            for e, v in r.items():
                combo[e] = combo.get(e, 0) + c * v
        queries.append(combo)
    return rows, queries


#: a nonzero rational, by which a row enters the reducer
NONZERO = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)


@settings(max_examples=80, deadline=None)
@given(sparse_rows(), st.data())
def test_row_reducer_matches_plain_elimination(data, draws):
    # each row and query enters scaled by a nonzero rational: that moves
    # the lcm of its denominators and the content of its numerators, which
    # the reducer clears, but not the span it adds to
    rows, queries = data

    def scaled(row):
        s = draws.draw(NONZERO)
        return {e: s * c for e, c in row.items()}

    reducer = DG.ExactRowReducer()
    for k, row in enumerate(rows):
        grew = OR.plain_rank(rows[:k + 1]) > OR.plain_rank(rows[:k])
        assert reducer.add(scaled(row)) == grew
    rank = OR.plain_rank(rows)
    assert reducer.rank == rank
    for q in queries:
        assert reducer.member(scaled(q)) == (OR.plain_rank([*rows, q]) == rank)
    # a pivot's columns are standard order keys and it leads at its least
    # one, and it is a primitive integer row with a positive leading entry
    for col, pivot in reducer.pivots.items():
        assert min(pivot) == col and pivot[col] > 0
        assert all(type(c) is int for c in pivot.values())
        assert reduce(gcd, pivot.values(), 0) == 1


def reference_table(I, eta, monomials=()) -> list:
    """dim of the jet space of order e modulo the rows of x^c * g cut to
    degree e and the given monomials of degree <= e, for e = 0..eta: one
    dense elimination (`oracles.plain_rank`) of rational rows per e."""
    table = []
    for e in range(eta + 1):
        rows = [{b: 1} for b in monomials if sum(b) <= e]
        rows += [{(*map(operator.add, a, c),): v for a, v in g.terms.items()
                  if sum(a) + sum(c) <= e}
                 for g in I.gens for c in O.iter_sublevel(O.std_form(I.n), e)]
        table.append(comb(I.n + e, e) - OR.plain_rank(rows))
    return table


@st.composite
def exact_ideals(draw):
    """(I, eta, monomials): an exact ideal of one to three rational
    generators of order >= 1 in one to three variables, a degree, and no
    monomials or those of tail degree >= m after the first k variables."""
    n = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    terms = st.lists(st.dictionaries(exponent, coeff, min_size=1, max_size=4),
                     min_size=1, max_size=3)
    I = K.IdealPresentation(n, tuple(K.series(n, t) for t in draw(terms)))
    eta = draw(st.integers(0, 5 if n < 3 else 4))
    k, m = draw(st.integers(1, n)), draw(st.integers(1, 2))
    monomials = draw(st.sampled_from([(), (*DG.tail_monomials(n, k, eta, 0, m),)]))
    return I, eta, monomials


@settings(max_examples=60, deadline=None)
@given(exact_ideals())
def test_one_reduction_reads_the_whole_table(case):
    # the table at every e <= eta is read from the pivots of one reduction
    # at eta; the reference eliminates afresh at each e
    I, eta, monomials = case
    assert (DG.oracle_jet_quotient_table(I, eta, monomials)
            == reference_table(I, eta, monomials))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n + 1), st.integers(-1, 7), st.integers(-1, 9),
    st.integers(-1, 9))))
@example((3, 2, 12, 12, 1))  # `reduction --file cm_family.ideal --k 2`
def test_tail_monomials_are_the_filtered_ball(case):
    # only the kept exponents are visited, in the order of the ball's walk
    n, k, eta, min_total, min_tail = case
    want = [b for b in O.iter_sublevel(O.std_form(n), eta)
            if sum(b) >= min_total and sum(b[k:]) >= min_tail]
    assert list(DG.tail_monomials(n, k, eta, min_total, min_tail)) == want


@pytest.mark.parametrize("name, eta", [
    ("cm_family", 6), ("cusp", 8), ("plane_monomial", 8), ("space_curve_exp", 6)])
def test_one_reduction_reads_the_whole_table_on_the_samples(name, eta):
    f = load_ideal_file((SAMPLES / f"{name}.ideal").read_text(encoding="utf-8"))
    I = f.presentation(O.std_form(f.n), eta)
    for monomials in ((), (*DG.tail_monomials(f.n, f.n - 1, eta, 0, 2),)):
        assert (DG.oracle_jet_quotient_table(I, eta, monomials)
                == reference_table(I, eta, monomials))


class TestEvaluatedIdeal:
    def test_example(self):
        I = example_family(8)
        ev = DG.evaluated_ideal(I, 2)
        assert ev.n == 2
        assert sorted(tuple(g.terms) for g in ev.gens) == [
            ((0, 5),), ((2, 3),), ((8, 0),)]

    def test_linear(self):
        I = K.IdealPresentation(3, (K.series(3, {(1, 0, 0): 1, (0, 0, 1): -1}),))
        ev = DG.evaluated_ideal(I, 2)
        assert ev.gens[0].terms == {(1, 0): F(1)}

    def test_trivial_flagged(self):
        I = K.IdealPresentation(3, (K.variable(3, 2),))
        with pytest.raises(TrivialEvaluation):
            DG.evaluated_ideal(I, 2)


class TestProductStructure:
    def test_example_base(self):
        I = example_family(8)
        basis = SB.becker_check(I.gens, std3, 8)
        ok, base = DG.product_structure_check(DG.diagram_of(basis), 2)
        assert ok
        assert base == ((0, 5), (2, 3), (8, 0))

    def test_perturbed_vertex_breaks_it(self):
        D = DG.Diagram(3, ((8, 0, 0), (0, 5, 0), (2, 3, 0), (2, 2, 7)),
                       std3, F(12))
        ok, _ = DG.product_structure_check(D, 2)
        assert not ok

    def test_single_axis_vertex(self):
        D = DG.Diagram(3, ((1, 0, 0),), std3, F(5))
        ok, base = DG.product_structure_check(D, 1)
        assert ok and base == ((1,),)


class TestFlatness:
    def test_example_flat_with_l0_9(self):
        rep = DG.flatness_weight_search(example_family(8), 2, 8)
        assert rep.verdict == "FLAT"
        assert rep.l0 == 9
        assert rep.base_matches_evaluated

    def test_principal_axis_flat(self):
        I = K.IdealPresentation(2, (K.variable(2, 0),))
        rep = DG.flatness_weight_search(I, 1, 6)
        assert rep.verdict == "FLAT"

    def test_perturbed_not_flat(self):
        I = example_family(8, K.variable(1, 0))
        rep = DG.flatness_weight_search(I, 2, 8)
        assert rep.verdict == "NOT-FLAT-AT-MU"
        assert any(v[2] for v in rep.offending)

    def test_hypersurface_free_module_is_flat(self):
        # x^2 - yz is monic in x: the quotient is a free module over the
        # last two variables, hence flat
        I = K.IdealPresentation(3, (K.series(3, {(2, 0, 0): 1, (0, 1, 1): -1}),))
        rep = DG.flatness_weight_search(I, 1, 8)
        assert rep.verdict == "FLAT"

    def test_torsion_quotient_is_not_flat(self):
        # in K{x,y}/(x^2, xy) the class of x is y-torsion
        I = K.IdealPresentation(2, (K.monomial(2, (2, 0)), K.monomial(2, (1, 1))))
        rep = DG.flatness_weight_search(I, 1, 8)
        assert rep.verdict == "NOT-FLAT-AT-MU"
        assert (1, 1) in rep.offending

    def test_extra_weights_are_tried_after_a_failure(self):
        I = example_family(8, K.variable(1, 0))
        rep = DG.flatness_weight_search(I, 2, 8, extra_weights=(10,))
        assert rep.verdict == "NOT-FLAT-AT-MU"
        assert rep.l_used == 10  # the report shows the last weight tried
        assert any(v[2] for v in rep.offending)


class TestAxisVertexDimension:
    def test_monomial_plane(self):
        I = K.IdealPresentation(2, (K.monomial(2, (2, 0)), K.monomial(2, (0, 3))))
        rep = DG.axis_vertex_dimension(I, 8, trials=3, seed=0)
        assert rep.k_best == 2 and rep.dim_upper_bound == 0

    def test_example(self):
        I = example_family(8)
        rep = DG.axis_vertex_dimension(I, 8, trials=3, seed=0)
        assert rep.k_best == 2 and rep.dim_upper_bound == 1

    def test_xy_needs_generic_change(self):
        I = K.IdealPresentation(2, (K.monomial(2, (1, 1)),))
        rep = DG.axis_vertex_dimension(I, 6, trials=6, seed=1)
        assert rep.k_best == 1 and rep.dim_upper_bound == 1
        assert rep.matrix is not None


class TestReduction:
    def test_monomial_example(self):
        I = K.IdealPresentation(2, (K.monomial(2, (2, 0)), K.monomial(2, (0, 3))))
        rep = DG.reduction_exponent(I, 2, 8)
        assert rep.axis_degrees == (2, 3)
        assert rep.d == 3
        assert rep.all_ok

    def test_principal_trivial(self):
        I = K.IdealPresentation(2, (K.variable(2, 0),))
        rep = DG.reduction_exponent(I, 1, 6)
        assert rep.d == 0 and rep.all_ok

    def test_missing_axis_vertex(self):
        I = K.IdealPresentation(2, (K.monomial(2, (1, 1)),))
        with pytest.raises(MissingAxisVertex):
            DG.reduction_exponent(I, 1, 6)

    def test_identity_negative_control(self):
        # with a deliberately undersized d the jet identity must fail
        I = K.IdealPresentation(2, (K.monomial(2, (2, 0)), K.monomial(2, (0, 3))))
        bad = OR.reduction_identity_check(I, 2, 2, 1)
        assert not bad["equal"]
        good = OR.reduction_identity_check(I, 2, 3, 1)
        assert good["equal"]


class TestJetStability:
    def test_finite_complement_diagram_rigid(self):
        # perturbing (x^2, y^3) above the window keeps the whole staircase
        rng = random.Random(9)
        base = K.IdealPresentation(
            2, (K.monomial(2, (2, 0)), K.monomial(2, (0, 3))))
        base_D = DG.diagram_of(SB.complete(base, std2, 6))
        for _ in range(5):
            deltas = [rand_poly(rng, 2, min_order=7, max_exp=5) for _ in range(2)]
            gens = tuple(K.add(g, d) for g, d in zip(base.gens, deltas))
            D = DG.diagram_of(SB.complete(K.IdealPresentation(2, gens), std2, 6))
            assert D.vertices == base_D.vertices

    def test_window_agreement_and_containment(self):
        # infinite-complement case: staircases agree on the window and contain
        rng = random.Random(10)
        mu = 6
        base = K.IdealPresentation(
            2, (K.monomial(2, (2, 0)), K.monomial(2, (1, 1))))
        base_D = DG.diagram_of(SB.complete(base, std2, mu))
        for _ in range(5):
            deltas = [rand_poly(rng, 2, min_order=mu + 1, max_exp=5)
                      for _ in range(2)]
            gens = tuple(K.add(g, d) for g, d in zip(base.gens, deltas))
            D = DG.diagram_of(SB.complete(K.IdealPresentation(2, gens), std2, mu))
            for b in O.iter_sublevel(std2, mu):
                assert D.contains(b) == base_D.contains(b)
