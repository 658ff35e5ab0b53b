"""Tail independence: an output on the window it claims depends only on the
certified terms of its inputs.

A series certified to mu says nothing above mu, so the true series behind
it may carry any terms there.  Each property draws certified inputs and
grows them: random terms strictly above an input's bound, half of them on
the first level above it, and the bound raised to cover them.  The
operation reruns on the grown inputs, on the same window and, where it
takes one, on a wider window.  Every output of a rerun must have the
first run's terms on the window the first run claims, and must claim no
lower bound; and a certified output of the first run must store no term
above its own bound, since nothing is claimed there.

Covered: `add`, `mul`, `mul_monomial`, `truncate`, `reweight`, `embed`,
`evaluate_tail_zero`, the builtin jets `exp_jet` and `geom_jet`, and
`substitute_linear` (isotropic forms); the sources of
`IdealPresentation.substitute` and `approx.perturb`, read by `at` on any
form and a window the generators reach; `hironaka_divide`, its quotient i
on mu - L(alpha_i) and its remainder; the vertices of `complete`, the
verdict of `becker_check` and, under the standard form, `hilbert_samuel`;
the report of `flatness_weight_search`; and `weierstrass_prepare` on
inputs with ord f = p.  A companion property asks the same of the
presentation: the staircase of an exact ideal, and under the standard form
its Hilbert-Samuel table, which the row-reduction oracle recounts, do not
change when its generators are reordered, multiplied by a unit or
combined.  Tower levels are left out: a level certified to mu knows its
coefficient a_m only to mu - m, which the strict xfail
`test_discriminant_certificates_do_not_over_claim` pins.
"""

import random
from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localring import approx as AP
from localring import kernel as K
from localring import linalg
from localring import order as O
from localring.diagram import (
    diagram_of,
    flatness_weight_search,
    hilbert_samuel,
    oracle_jet_quotient_table,
)
from localring.division import hironaka_divide
from localring.equising import weierstrass_prepare
from localring.stdbasis import becker_check, complete

COEFFS = [F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 4)]

coefficient = st.sampled_from(COEFFS)


def forms(n: int, isotropic: bool = False):
    """The standard form, or rational weights (all equal when isotropic)."""
    weight = st.sampled_from([F(1), F(2), F(1, 2), F(3, 2), F(2, 3)])
    if isotropic:
        weights = weight.map(lambda w: (w,) * n)
    else:
        weights = st.lists(weight, min_size=n, max_size=n).map(tuple)
    return st.just(O.std_form(n)) | weights.map(O.LinearForm)


def levels(L: O.LinearForm, low: int, high: int) -> list:
    """The exponents of level low..high under L."""
    return [e for e in O.iter_sublevel(L, F(high, L.den))
            if L.level(e) >= low]


def certified(draw, L: O.LinearForm, mu, low: int = 0,
              max_terms: int = 4) -> K.PrecisionSeries:
    """A series certified to mu under L, with terms of level >= low on the
    window and at least one term."""
    ball = levels(L, low, L.level_cap(mu))
    exps = draw(st.lists(st.sampled_from(ball), min_size=1,
                         max_size=max_terms, unique=True))
    return K.series(L.n, {e: draw(coefficient) for e in exps}, mu, L)


def grow(draw, f: K.PrecisionSeries) -> K.PrecisionSeries:
    """f with random terms strictly above its bound, certified to a bound
    one to three largest weights higher, so that some exponent lies in
    between; an exact f stays as it is."""
    if f.prec is K.EXACT:
        return f
    L = f.form_ctx
    cap = L.level_cap(f.prec)
    top = cap + max(L.int_weights) * draw(st.integers(1, 3))
    above = levels(L, cap + 1, top)
    first = [e for e in above if L.level(e) == min(map(L.level, above))]
    tail = draw(st.lists(st.sampled_from(first), max_size=2, unique=True))
    tail += draw(st.lists(st.sampled_from(above), max_size=3, unique=True))
    terms = dict(f.terms)
    for e in tail:
        terms[e] = draw(coefficient)
    return K.PrecisionSeries(f.n, terms, F(top, L.den), L)


def claimed(base: K.PrecisionSeries, other: K.PrecisionSeries) -> None:
    """other claims no lower bound than base, under the same form, and has
    base's terms on base's window; a certified base stores nothing above
    its own bound."""
    if base.prec is K.EXACT:
        assert other == base
        return
    assert K._window(base.terms, base.form_ctx, base.prec) == base.terms
    # `agrees_up_to` admits other on base's window: form and bound
    assert K.agrees_up_to(base, other, base.form_ctx, base.prec)


def wider(inputs) -> F:
    """A window no grown input falls short of."""
    return min([g.prec for g in inputs if g.prec is not K.EXACT])


# -- kernel ---------------------------------------------------------------------

@st.composite
def kernel_operands(draw):
    """(a, b, A, B, L): two operands under L, certified or exact (at least
    a is certified), and their grown versions."""
    n = draw(st.integers(1, 3))
    L = draw(forms(n))

    def operand(exact: bool):
        mu = F(draw(st.integers(0, 4 * L.den)), L.den)
        f = certified(draw, L, mu)
        return K.series(n, f.terms) if exact else f

    a, b = operand(False), operand(draw(st.booleans()))
    if draw(st.booleans()):  # zero up to its bound
        a = K.PrecisionSeries(n, {}, a.prec, L)
    return a, b, grow(draw, a), grow(draw, b), L


@settings(max_examples=300, deadline=None)
@given(kernel_operands(), st.data())
def test_sums_and_products_keep_their_window(case, data):
    a, b, A, B, L = case
    claimed(K.add(a, b), K.add(A, B))
    claimed(K.add(b, a), K.add(B, A))
    claimed(K.mul(a, b), K.mul(A, B))
    claimed(K.mul(b, a), K.mul(B, A))
    exp = data.draw(st.tuples(*[st.integers(0, 2)] * a.n))
    c = data.draw(coefficient)
    claimed(K.mul_monomial(a, exp, c), K.mul_monomial(A, exp, c))


@settings(max_examples=100, deadline=None)
@given(kernel_operands(), st.data())
def test_truncation_keeps_its_window(case, data):
    a, _, A, _, L = case
    mu = F(data.draw(st.integers(0, L.level_cap(a.prec))), L.den)
    base = K.truncate(a, L, mu)
    claimed(base, K.truncate(A, L, mu))
    claimed(base, K.truncate(A, L, A.prec))


@st.composite
def reweightings(draw):
    """(a, A, new): a certified operand, its grown version, and a positive
    form on its variables, often its own."""
    n = draw(st.integers(1, 3))
    L = draw(forms(n))
    a = certified(draw, L, F(draw(st.integers(0, 4 * L.den)), L.den))
    return a, grow(draw, a), draw(st.just(L) | forms(n))


@settings(max_examples=150, deadline=None)
@given(reweightings())
def test_reweighting_keeps_its_window(case):
    a, A, new = case
    claimed(K.reweight(a, new), K.reweight(A, new))


@st.composite
def embeddings(draw):
    """(a, A, n_new, var_map, form): a certified operand, its grown version,
    and an embedding into n_new variables with a form that keeps the
    weights of the mapped variables."""
    n = draw(st.integers(1, 2))
    L = draw(forms(n))
    a = certified(draw, L, F(draw(st.integers(0, 4 * L.den)), L.den))
    n_new = n + draw(st.integers(0, 2))
    var_map = tuple(draw(st.permutations(range(n_new)))[:n])
    weights = draw(st.lists(st.sampled_from([F(1), F(2), F(1, 2)]),
                            min_size=n_new, max_size=n_new))
    for i, j in enumerate(var_map):
        weights[j] = L.weights[i]
    return a, grow(draw, a), n_new, var_map, O.LinearForm(tuple(weights))


@settings(max_examples=100, deadline=None)
@given(embeddings())
def test_embedding_keeps_its_window(case):
    a, A, n_new, var_map, form = case
    claimed(K.embed(a, n_new, var_map, form), K.embed(A, n_new, var_map, form))


@settings(max_examples=100, deadline=None)
@given(kernel_operands(), st.data())
def test_evaluation_at_zero_keeps_its_window(case, data):
    a, _, A, _, _ = case
    assume(a.n > 1)
    k = data.draw(st.integers(1, a.n - 1))
    claimed(K.evaluate_tail_zero(a, k), K.evaluate_tail_zero(A, k))


@st.composite
def builtin_arguments(draw):
    """(u, U, L): u certified under L with no constant term and its grown
    version."""
    n = draw(st.integers(1, 2))
    L = draw(forms(n))
    mu = F(draw(st.integers(min(L.int_weights), 3 * L.den)), L.den)
    u = certified(draw, L, mu, low=1, max_terms=3)
    return u, grow(draw, u), L


@settings(max_examples=100, deadline=None)
@given(builtin_arguments())
def test_builtin_jets_keep_their_window(case):
    # the jet stops when a power of u leaves the window, so the wider
    # rerun takes more powers than the first
    u, U, L = case
    for jet in (K.exp_jet, K.geom_jet):
        base = jet(u, L, u.prec)
        claimed(base, jet(U, L, u.prec))
        claimed(base, jet(U, L, U.prec))


@st.composite
def linear_changes(draw):
    """(a, A, M): a certified operand under an isotropic form, its grown
    version, and a unimodular integer matrix."""
    n = draw(st.integers(1, 3))
    L = draw(forms(n, isotropic=True))
    a = certified(draw, L, F(draw(st.integers(0, 4 * L.den)), L.den))
    M = linalg.seeded_unimodular(random.Random(draw(st.integers(0, 999))), n)
    return a, grow(draw, a), M


@settings(max_examples=100, deadline=None)
@given(linear_changes())
def test_linear_substitution_keeps_its_window(case):
    a, A, M = case
    claimed(K.substitute_linear(a, M), K.substitute_linear(A, M))


# -- the sources of presentations ----------------------------------------------

@st.composite
def presentation_sources(draw):
    """(gens, grown, L, w, mu): two or three generators in 2 or 3 variables
    certified to mu under the standard form, their grown versions, a form L
    and a window w with w / min(L.weights) <= mu, so that every generator
    reaches (L, w)."""
    n = draw(st.integers(2, 3))
    std, mu = O.std_form(n), F(draw(st.integers(1, 4)))
    gens = [certified(draw, std, mu, max_terms=3)
            for _ in range(draw(st.integers(2, 3)))]
    L = draw(forms(n))
    top = mu * min(L.weights) * L.den  # w = k / L.den for k <= top
    w = F(draw(st.integers(0, int(top))), L.den)
    return gens, [grow(draw, g) for g in gens], L, w, mu


@settings(max_examples=100, deadline=None)
@given(presentation_sources(), st.integers(0, 999))
def test_a_substituted_presentation_keeps_its_window(case, seed):
    gens, grown, L, w, _ = case
    M = linalg.seeded_unimodular(random.Random(seed), L.n)
    base = K.IdealPresentation(L.n, gens).substitute(M).at(L, w)
    other = K.IdealPresentation(L.n, grown).substitute(M).at(L, w)
    for g, G in zip(base, other, strict=True):
        claimed(g, G)


@settings(max_examples=100, deadline=None)
@given(presentation_sources(), st.data())
def test_a_perturbation_keeps_its_window(case, data):
    # each delta has standard degree above mu and is certified beyond it
    gens, grown, L, w, mu = case
    std = O.std_form(L.n)
    deltas = [certified(data.draw, std, mu + data.draw(st.integers(1, 2)),
                        low=std.level_cap(mu) + 1, max_terms=2)
              for _ in gens]
    grown_deltas = [grow(data.draw, d) for d in deltas]
    base = AP.perturb(K.IdealPresentation(L.n, gens), mu, deltas).at(L, w)
    other = AP.perturb(K.IdealPresentation(L.n, grown), mu,
                       grown_deltas).at(L, w)
    for g, G in zip(base, other, strict=True):
        claimed(g, G)


# -- division, completion and Hilbert-Samuel ----------------------------------

@st.composite
def ideals(draw, standard: bool = False):
    """(gens, grown, L, mu): two or three series in 2 or 3 variables
    certified to mu under L, each with a term on the window and none
    constant, and their grown versions."""
    n = draw(st.integers(2, 3))
    L = O.std_form(n) if standard else draw(forms(n))
    mu = F(draw(st.integers(2, 4 if n == 3 else 6)))
    gens = [certified(draw, L, mu, low=1, max_terms=3)
            for _ in range(draw(st.integers(2, 3)))]
    return gens, [grow(draw, g) for g in gens], L, mu


@settings(max_examples=250, deadline=None)
@given(ideals())
def test_division_keeps_its_windows(case):
    (f, *gs), (F_, *Gs), L, mu = case
    base = hironaka_divide(f, gs, L, mu)
    for other in (hironaka_divide(F_, Gs, L, mu),
                  hironaka_divide(F_, Gs, L, wider([F_, *Gs]))):
        for q, Q in zip(base.quotients, other.quotients):
            claimed(q, Q)  # quotient i on mu - L(alpha_i)
        claimed(base.remainder, other.remainder)


def vertices(basis, L: O.LinearForm, mu) -> tuple:
    """The staircase vertices of a verified basis on the window {L <= mu}."""
    assert basis.verified
    cap = L.level_cap(mu)
    return tuple([v for v in diagram_of(basis).vertices if L.level(v) <= cap])


@settings(max_examples=120, deadline=None)
@given(ideals())
def test_completion_keeps_its_staircase(case):
    gens, grown, L, mu = case
    I, J = K.IdealPresentation(L.n, gens), K.IdealPresentation(L.n, grown)
    base = vertices(complete(I, L, mu), L, mu)
    assert vertices(complete(J, L, mu), L, mu) == base
    assert vertices(complete(J, L, wider(grown)), L, mu) == base


@settings(max_examples=100, deadline=None)
@given(ideals(), st.data())
def test_the_s_series_check_keeps_its_verdict(case, data):
    gens, grown, L, mu = case
    if data.draw(st.booleans()):  # a standard basis, whose check passes
        gens = complete(K.IdealPresentation(L.n, gens), L, mu).gens
        grown = [grow(data.draw, g) for g in gens]
    base = becker_check(gens, L, mu)
    other = becker_check(grown, L, mu)
    assert (other.verified, other.heads, other.pair_checks) == (
        base.verified, base.heads, base.pair_checks)


@settings(max_examples=80, deadline=None)
@given(ideals(standard=True))
def test_hilbert_samuel_keeps_its_table(case):
    gens, grown, L, mu = case
    I, J = K.IdealPresentation(L.n, gens), K.IdealPresentation(L.n, grown)
    base = hilbert_samuel(complete(I, L, mu), mu)
    assert hilbert_samuel(complete(J, L, mu), mu) == base
    assert hilbert_samuel(complete(J, L, wider(grown)), mu) == base


# -- the companion property: presentations of one ideal -----------------------

@st.composite
def exact_ideals(draw):
    """(gens, L, mu): two or three exact polynomials in 2 or 3 variables,
    each of order >= 1 with its terms on the window mu = 5, under the
    standard form or the rational weights (3/2, 1, 2)."""
    n = draw(st.integers(2, 3))
    L = draw(st.sampled_from([O.std_form(n),
                              O.LinearForm((F(3, 2), F(1), F(2))[:n])]))
    mu = F(5)
    gens = [K.series(n, certified(draw, L, mu, low=1, max_terms=3).terms)
            for _ in range(draw(st.integers(2, 3)))]
    return gens, L, mu


def presentations(gens: list, L: O.LinearForm):
    """gens and other generators of the same ideal: gens reversed, g_1
    times the unit 1 + x_1, g_1 + g_2 appended, and g_2 replaced by
    g_2 + x_2 g_1."""
    g1, g2, *rest = gens
    x2 = (0, 1) + (0,) * (L.n - 2)
    unit = K.add(K.one(L.n), K.variable(L.n, 0))
    return [gens, gens[::-1], [K.mul(g1, unit), g2, *rest],
            [*gens, K.add(g1, g2)],
            [g1, K.add(g2, K.mul_monomial(g1, x2, 1)), *rest]]


def heads_on_window(gens: list, L: O.LinearForm, mu) -> bool:
    """Every generator has a head on the window, as `complete` asks; a sum
    may cancel its summands' heads and leave a head above it, or none."""
    cap = L.level_cap(mu)
    return all(g.terms and L.level(O.initial_exponent(L, g)) <= cap
               for g in gens)


@settings(max_examples=120, deadline=None)
@given(exact_ideals())
def test_the_staircase_does_not_depend_on_the_presentation(case):
    gens, L, mu = case
    staircases = set()
    for other in presentations(gens, L):
        if not heads_on_window(other, L, mu):
            continue
        I = K.IdealPresentation(L.n, other)
        basis = complete(I, L, mu)
        staircases.add(diagram_of(basis).vertices)
        if L == O.std_form(L.n):  # the oracle counts under the standard form
            assert (list(hilbert_samuel(basis, mu).values)
                    == oracle_jet_quotient_table(I, int(mu)))
    assert len(staircases) == 1


@st.composite
def split_ideals(draw):
    """(gens, grown, k, mu): two generators in 3 variables with terms of
    degree 1..mu, the first with a pure power of x_1, certified to 12 under
    the standard form, and their grown versions.  The search's staircase
    vertices then have degree at most mu, so l0 * mu <= mu * (mu + 1) <= 12
    and every window it asks is certified.  The pure power keeps the
    evaluated ideal nonzero.  The second generator has one too, or lies in
    (x_3), so that its evaluation is zero and a grown term may make it
    nonzero above the window."""
    L, mu = O.std_form(3), draw(st.integers(2, 3))
    gens = []
    for pure in (True, draw(st.booleans())):
        terms = certified(draw, L, mu, low=1, max_terms=3).terms
        if pure:
            terms[(draw(st.integers(1, mu)), 0, 0)] = F(1)
        else:
            terms = {e: c for e, c in terms.items() if e[2]} or {(0, 0, 1): 1}
        gens.append(K.series(3, terms, F(12), L))
    return gens, [grow(draw, g) for g in gens], draw(st.integers(1, 2)), mu


@settings(max_examples=60, deadline=None)
@given(split_ideals())
def test_flatness_search_keeps_its_report(case):
    gens, grown, k, mu = case
    base = flatness_weight_search(K.IdealPresentation(3, gens), k, mu)
    assert flatness_weight_search(K.IdealPresentation(3, grown), k, mu) == base


def test_flatness_search_ignores_an_evaluation_zero_on_the_window():
    # z is zero on {z = 0} up to its bound 12, so the evaluated ideal drops
    # it; a term x^8 y^5 above the bound makes its evaluation nonzero, but
    # zero on the window 2, so it is dropped too (completion on that window
    # would refuse its head (8, 5))
    L = O.std_form(3)
    gens = [K.series(3, {(1, 0, 0): 1, (0, 0, 1): 1}, F(12), L),
            K.series(3, {(0, 0, 1): 1}, F(12), L)]
    grown = [gens[0], K.series(3, {(0, 0, 1): 1, (8, 5, 0): 1}, F(13), L)]
    base = flatness_weight_search(K.IdealPresentation(3, gens), 2, 2)
    assert flatness_weight_search(K.IdealPresentation(3, grown), 2, 2) == base


# -- Weierstrass preparation -------------------------------------------------

@st.composite
def general_series(draw):
    """(f, A, i, mu): f certified to mu under the standard form, of order p
    with the term x_i^p, so that ord f = p, and its grown version."""
    n = draw(st.integers(2, 3))
    L = O.std_form(n)
    mu = F(draw(st.integers(2, 6)))
    p = draw(st.integers(1, min(3, int(mu))))
    i = draw(st.integers(0, n - 1))
    pure = tuple([p if k == i else 0 for k in range(n)])
    f = K.add(certified(draw, L, mu, low=p),
              K.monomial(n, pure, draw(coefficient)))
    assume(f.coefficient(pure))
    return f, grow(draw, f), i, mu


@settings(max_examples=250, deadline=None)
@given(general_series())
def test_preparation_keeps_its_windows(case):
    f, A, i, mu = case
    P, u = weierstrass_prepare(f, i, mu)
    for other in (weierstrass_prepare(A, i, mu),
                  weierstrass_prepare(A, i, A.prec)):
        claimed(P, other[0])
        claimed(u, other[1])
