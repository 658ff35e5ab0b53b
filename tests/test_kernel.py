import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from localring import kernel as K
from localring import linalg
from localring import order as O
from localring.errors import (
    DimensionMismatch,
    FormMismatch,
    PrecisionShortfall,
    PresentationError,
    SingularMatrix,
)
from oracles import fraction_product, print_series, series_substitute

std1 = O.std_form(1)
std2 = O.std_form(2)
std3 = O.std_form(3)


def poly(n, terms):
    return K.series(n, terms)


# -- exact polynomial strategy for property tests ---------------------------

def exponents(n):
    return st.tuples(*([st.integers(0, 3)] * n))


def polys(n):
    return st.dictionaries(exponents(n), st.integers(-4, 4), max_size=5).map(
        lambda d: K.series(n, d))


class TestAdd:
    def test_cancellation(self):
        x, y = K.variable(2, 0), K.variable(2, 1)
        assert K.add(K.add(x, y), -x).terms == {(0, 1): F(1)}

    def test_identity(self):
        x8 = K.monomial(3, (8, 0, 0))
        assert K.add(x8, K.zero(3)) == x8

    def test_example_generator_assembly(self):
        # y^5 + y^2 z^4 E with E a truncated exponential jet
        E = K.series(3, {(0, 0, 0): 1, (0, 0, 1): 1, (0, 0, 2): F(1, 2)},
                     prec=8, form=std3)
        f = K.add(K.monomial(3, (0, 5, 0)), K.mul(K.monomial(3, (0, 2, 4)), E))
        assert f.coefficient((0, 5, 0)) == 1
        assert f.coefficient((0, 2, 4)) == 1
        assert f.coefficient((0, 2, 6)) == F(1, 2)

    def test_min_precision(self):
        a = K.series(2, {(0, 0): 1}, prec=3, form=std2)
        b = K.series(2, {(1, 0): 1}, prec=7, form=std2)
        assert K.add(a, b).prec == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            K.add(K.variable(2, 0), K.variable(3, 0))


class TestMul:
    def test_monomials(self):
        assert K.mul(K.variable(2, 0), K.variable(2, 1)).terms == {(1, 1): F(1)}

    def test_example_generator(self):
        E = K.series(3, {(0, 0, 0): 1, (0, 0, 1): 1}, prec=8, form=std3)
        f = K.mul(K.monomial(3, (2, 0, 0)),
                  K.add(K.monomial(3, (0, 3, 0)), K.mul(K.monomial(3, (0, 0, 4)), E)))
        assert f.coefficient((2, 3, 0)) == 1
        assert f.coefficient((2, 0, 4)) == 1

    def test_truncated_geometric_inverse(self):
        # jet_4(1/(1-x)) * (1-x) == 1 at precision 4
        jet = K.series(1, {(i,): 1 for i in range(5)}, prec=4, form=std1)
        p = K.mul(jet, poly(1, {(0,): 1, (1,): -1}))
        assert p.terms == {(0,): F(1)}
        assert p.prec == 4

    def test_precision_rule_is_min_combined(self):
        # a certified to 5 with order 2, b certified to 9 with order 1:
        # product certified to min(5+1, 9+2) = 6
        a = K.series(2, {(2, 0): 1}, prec=5, form=std2)
        b = K.series(2, {(0, 1): 1}, prec=9, form=std2)
        assert K.mul(a, b).prec == 6

    def test_exact_times_certified(self):
        a = K.monomial(2, (3, 0))
        b = K.series(2, {(0, 1): 1}, prec=4, form=std2)
        assert K.mul(a, b).prec == 7

    def test_exact_times_exact_is_exact(self):
        p = K.mul(poly(1, {(0,): 1, (1,): 1}), poly(1, {(50,): 1}))
        assert p.prec is K.EXACT
        assert p.coefficient((51,)) == 1

    def test_zero_absorbs(self):
        assert K.mul(K.zero(2), K.variable(2, 0)).is_exact_zero


@st.composite
def certified_pairs(draw):
    """(a, b, form): two operands in n = 1..3 variables, each exact or
    certified under the form, one of them at least certified; the form is
    standard or has rational weights >= 1, and an operand may be zero up
    to its bound."""
    n = draw(st.integers(1, 3))
    weight = st.builds(F, st.integers(2, 9), st.integers(1, 4)).filter(
        lambda w: w >= 1)
    form = draw(st.just(O.std_form(n))
                | st.lists(weight, min_size=n, max_size=n).map(
                    lambda ws: O.LinearForm(tuple(ws))))
    bound = st.builds(F, st.integers(1, 40), st.integers(1, 6))

    def operand(certified):
        terms = draw(st.dictionaries(exponents(n), st.integers(-4, 4),
                                     max_size=4))
        if not certified:
            return K.series(n, terms)
        mu = draw(bound)
        return K.truncate(K.series(n, terms), form, mu)

    certified = draw(st.sampled_from([(True, False), (False, True),
                                      (True, True)]))
    return operand(certified[0]), operand(certified[1]), form


@settings(max_examples=150, deadline=None)
@given(certified_pairs())
def test_product_bound_is_the_min_lvalue_rule(case):
    # the bound of a * b is min(prec(a) + ord(b), prec(b) + ord(a)) over the
    # certified operands, ord the L-order lower bound `min_lvalue`
    a, b, form = case
    assume(not a.is_exact_zero and not b.is_exact_zero)
    want = []
    if a.prec is not K.EXACT:
        want.append(a.prec + O.min_lvalue(form, b))
    if b.prec is not K.EXACT:
        want.append(b.prec + O.min_lvalue(form, a))
    got = K.mul(a, b).prec
    assert got == min(want) and type(got) is F


@st.composite
def series_and_monomials(draw):
    """(f, exp, coeff): f in n = 1..3 variables, exact or certified under
    the standard form or one with rational weights, and a term coeff x^exp
    whose coefficient may be zero."""
    n = draw(st.integers(1, 3))
    weight = st.builds(F, st.integers(1, 9), st.integers(1, 4))
    form = draw(st.just(O.std_form(n))
                | st.lists(weight, min_size=n, max_size=n).map(
                    lambda ws: O.LinearForm(tuple(ws))))
    coefficient = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    f = K.series(n, draw(st.dictionaries(exponents(n), coefficient,
                                         max_size=4)))
    if draw(st.booleans()):
        f = K.truncate(f, form, draw(st.builds(F, st.integers(0, 30),
                                               st.integers(1, 4))))
    return f, draw(exponents(n)), draw(coefficient)


class TestMulMonomial:
    @pytest.mark.parametrize("exp", [(-1, 0), (1.5, 0)])
    def test_negative_and_non_integral_exponents_refused(self, exp):
        # the exponent is read as `monomial` reads it, never shifted in
        y = K.variable(2, 1)
        with pytest.raises(PresentationError):
            K.mul_monomial(y, exp)
        with pytest.raises(PresentationError):
            K.mul_monomial(K.truncate(y, std2, 4), exp, 2)

    @settings(max_examples=150, deadline=None)
    @given(series_and_monomials())
    def test_one_term_products_are_the_fraction_product(self, case):
        # terms, bound and form of the plain product by the monomial
        f, exp, c = case
        want = fraction_product(f, K.monomial(f.n, exp, c))
        assert K.mul_monomial(f, exp, c) == want
        assert K.mul(f, K.monomial(f.n, exp, c)) == want
        constant = fraction_product(f, K.monomial(f.n, (0,) * f.n, c))
        assert K.scale(f, c) == constant


@settings(max_examples=60)
@given(polys(2), polys(2), polys(2))
def test_ring_axioms_exact(a, b, c):
    assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
    assert K.add(a, b) == K.add(b, a)


@settings(max_examples=60)
@given(polys(3), polys(3), st.integers(1, 2))
def test_evaluation_is_ring_homomorphism(a, b, k):
    left = K.evaluate_tail_zero(K.mul(a, b), k)
    right = K.mul(K.evaluate_tail_zero(a, k), K.evaluate_tail_zero(b, k))
    assert left == right
    assert K.evaluate_tail_zero(K.add(a, b), k) == \
        K.add(K.evaluate_tail_zero(a, k), K.evaluate_tail_zero(b, k))


class TestSubstituteLinear:
    def test_identity(self):
        f = K.variable(2, 0)
        assert K.substitute_linear(f, ((1, 0), (0, 1))) == f

    def test_swap(self):
        f = K.monomial(2, (0, 2))
        assert K.substitute_linear(f, ((0, 1), (1, 0))).terms == {(2, 0): F(1)}

    def test_shear(self):
        # x^2 - y^2 under x -> x + y, y -> y
        f = poly(2, {(2, 0): 1, (0, 2): -1})
        g = K.substitute_linear(f, ((1, 1), (0, 1)))
        assert g.terms == {(2, 0): F(1), (1, 1): F(2)}

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            K.substitute_linear(K.variable(2, 0), ((1, 1), (1, 1)))

    def test_certified_keeps_precision(self):
        f = K.series(2, {(1, 0): 1}, prec=5, form=std2)
        g = K.substitute_linear(f, ((1, 1), (0, 1)))
        assert g.prec == 5

    def test_anisotropic_form_rejected(self):
        f = K.series(2, {(1, 0): 1}, prec=5, form=O.LinearForm((F(1), F(2))))
        with pytest.raises(FormMismatch):
            K.substitute_linear(f, ((1, 1), (0, 1)))


@st.composite
def linear_changes(draw):
    n = draw(st.integers(1, 3))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    M = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    assume(linalg.det(M) != 0)
    terms = draw(st.dictionaries(st.tuples(*([st.integers(0, 5)] * n)),
                                 st.integers(-4, 4), max_size=5))
    return K.series(n, terms), M


@settings(max_examples=60, deadline=None)
@given(linear_changes())
def test_substitute_linear_matches_powers_of_rows(problem):
    # x_i -> row_i, with every power of a row taken by `power`
    f, M = problem
    n = f.n
    rows = [K.series(n, {tuple(int(t == j) for t in range(n)): M[i][j]
                         for j in range(n)}) for i in range(n)]
    want = K.zero(n)
    for e, c in f.terms.items():
        term = K.monomial(n, (0,) * n, c)
        for i, b in enumerate(e):
            term = K.mul(term, K.power(rows[i], b))
        want = K.add(want, term)
    assert K.substitute_linear(f, M) == want


#: non-integral coefficients, so that f's numerators share a denominator
RATIONALS = [F(1, 2), F(-2, 3), F(5, 4), F(-7, 6), F(3, 5), F(-1, 10)]


@st.composite
def integer_changes(draw):
    """(f, M): f exact with non-integral coefficients, or certified under
    the standard form or under (1/2, ..., 1/2), in n = 1..3 variables; M
    an integer matrix with entries in -3..3 and det != 0, unimodular or
    not."""
    n = draw(st.integers(1, 3))
    M = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    assume(linalg.det(M) != 0)
    coefficient = st.sampled_from(RATIONALS)
    f = K.series(n, draw(st.dictionaries(exponents(n), coefficient, max_size=5)))
    half = O.LinearForm((F(1, 2),) * n)
    L = draw(st.sampled_from([None, O.std_form(n), half]))
    if L is not None:
        f = K.truncate(f, L, F(draw(st.integers(0, 8)), L.den))
    return f, M


@settings(max_examples=150, deadline=None)
@given(integer_changes())
@example((K.series(2, {(2, 1): F(1, 2), (0, 2): F(-2, 3)}),
          [[2, 1], [1, -1]]))  # det -3
@example((K.truncate(K.series(3, {(1, 1, 1): F(5, 4), (0, 0, 2): F(3, 5)}),
                     O.LinearForm((F(1, 2),) * 3), F(3, 2)),
          [[1, 0, 2], [0, 3, 0], [1, 1, 1]]))  # det 3, certified to 3/2
def test_substitute_linear_matches_the_fraction_composition(case):
    f, M = case
    got = K.substitute_linear(f, M)
    assert got == series_substitute(f, M)
    assert all(type(c) is F and c for c in got.terms.values())


def integer_inverse(M) -> tuple:
    """The inverse of a unimodular integer matrix by Gauss-Jordan
    elimination on `Fraction`s; det M = +-1 makes its entries integers."""
    n = len(M)
    rows = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)]
            for i, row in enumerate(M)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            factor = rows[r][c]
            if r != c and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    assert all(x.denominator == 1 for row in rows for x in row[n:])
    return tuple(tuple(int(x) for x in row[n:]) for row in rows)


@settings(max_examples=100, deadline=None)
@given(integer_changes(), st.integers(0, 999))
def test_a_unimodular_change_is_undone_by_its_inverse(case, seed):
    f = case[0]
    M = linalg.seeded_unimodular(random.Random(seed), f.n)
    assert K.substitute_linear(K.substitute_linear(f, M), integer_inverse(M)) == f


def leibniz_det(M) -> F:
    """sum over permutations s of sign(s) * prod_i M[i][s(i)]."""
    n, total = len(M), F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(F(M[i][perm[i]])
                                                for i in range(n))
    return total


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4)
             | st.just(F(0)), min_size=n, max_size=n),
    min_size=n, max_size=n)))
@example([[1, 2], [2, 4]])            # singular
@example([[0, 1, 0], [1, 0, 0], [0, 0, F(-1, 2)]])  # a row swap
def test_det_matches_the_leibniz_expansion(M):
    got = linalg.det(M)
    assert got == leibniz_det(M) and type(got) is F


def test_seeded_unimodular_draws_have_determinant_one():
    rng = random.Random(5)
    for n in (1, 2, 3, 3, 4):
        assert abs(leibniz_det(linalg.seeded_unimodular(rng, n))) == 1


class TestEvaluateTailZero:
    def test_kills_tail_terms(self):
        # y^5 + y^2 z^4 (1 + z) with k = 2 keeps only y^5
        f = poly(3, {(0, 5, 0): 1, (0, 2, 4): 1, (0, 2, 5): 1})
        e = K.evaluate_tail_zero(f, 2)
        assert e.terms == {(0, 5): F(1)}
        assert e.n == 2

    def test_constant(self):
        c = K.monomial(3, (0, 0, 0), F(7, 2))
        assert K.evaluate_tail_zero(c, 1).terms == {(0,): F(7, 2)}

    def test_mixed(self):
        f = poly(3, {(2, 3, 0): 1, (2, 0, 4): 1})
        assert K.evaluate_tail_zero(f, 2).terms == {(2, 3): F(1)}

    def test_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            K.evaluate_tail_zero(K.variable(2, 0), 2)


class TestSeriesConstructor:
    def test_exponents_that_coerce_to_one_tuple_add_up(self):
        # a range and a tuple are distinct keys for one exponent
        f = poly(2, {(0, 1): 1, range(2): F(1, 2), (3, 0): 0})
        assert f.terms == {(0, 1): F(3, 2)}

    def test_exponents_that_cancel_drop_out(self):
        assert poly(2, {(0, 1): 2, range(2): -2}).terms == {}
        f = poly(2, {(0, 1): 2, range(2): -2, (1, 1): 5})
        assert f.terms == {(1, 1): F(5)}

    def test_integral_components_are_coerced_to_ints(self):
        f = poly(2, {(2.0, True): 3, (F(4), 0): 1})
        assert f.terms == {(2, 1): F(3), (4, 0): F(1)}
        assert all(type(b) is int for e in f.terms for b in e)

    @pytest.mark.parametrize("exp", [(1.5, 0), (-0.5, 0), (0, F(1, 2)),
                                     (-1, 0), ("1", 0)])
    def test_non_integral_and_negative_components_refused(self, exp):
        with pytest.raises(PresentationError):
            K.series(2, {exp: 1})

    def test_coefficient_of_a_missing_exponent_is_zero(self):
        f = poly(2, {(1, 0): 3})
        assert f.coefficient((0, 5)) == 0
        assert type(f.coefficient((0, 5))) is F
        assert K.zero(1).coefficient([0]) == 0
        assert f.coefficient([1, 0]) == 3


class TestPrecisionHousekeeping:
    def test_stored_terms_respect_bound(self):
        with pytest.raises(PrecisionShortfall):
            K.series(1, {(5,): 1}, prec=3, form=std1)

    def test_zero_up_to_prec_vs_exact_zero(self):
        up_to = K.series(1, {}, prec=4, form=std1)
        assert up_to.is_zero_up_to_prec and not up_to.is_exact_zero
        assert K.zero(1).is_exact_zero

    def test_truncate(self):
        f = poly(1, {(1,): 1, (5,): 1})
        t = K.truncate(f, std1, 3)
        assert t.terms == {(1,): F(1)} and t.prec == 3

    def test_reweight(self):
        f = K.series(3, {(0, 0, 1): 1}, prec=8, form=std3)
        w = O.weighted_split_form(3, 2, 9)
        g = K.reweight(f, w)
        assert g.prec == 8  # min weight ratio is 1
        h = K.reweight(K.series(1, {(1,): 1}, prec=8, form=std1),
                       O.LinearForm((F(9),)))
        assert h.prec == 72

    def test_embed(self):
        h = poly(1, {(2,): 3})
        g = K.embed(h, 3, (2,))
        assert g.terms == {(0, 0, 2): F(3)}

    def test_embed_certified_keeps_its_bound(self):
        h = K.series(1, {(1,): 1, (3,): F(-1, 2)}, prec=5, form=std1)
        g = K.embed(h, 3, (2,), std3)
        assert g.terms == {(0, 0, 1): F(1), (0, 0, 3): F(-1, 2)}
        assert (g.prec, g.form_ctx) == (5, std3)

    def test_embed_certified_needs_the_target_form(self):
        h = K.series(1, {(1,): 1}, prec=5, form=std1)
        with pytest.raises(FormMismatch):
            K.embed(h, 3, (2,))

    def test_embed_certified_refuses_a_changed_weight(self):
        h = K.series(1, {(1,): 1}, prec=5, form=std1)
        with pytest.raises(FormMismatch):
            K.embed(h, 3, (2,), O.LinearForm((F(1), F(1), F(2))))


# -- builtin jets against a reference built from powers --

wt12 = O.LinearForm((F(1), F(2)))


@st.composite
def builtin_problems(draw):
    L = draw(st.sampled_from([std2, wt12]))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    terms = draw(st.dictionaries(exponents(2), coeffs, max_size=4))
    terms.pop((0, 0), None)
    return K.series(2, terms), L, draw(st.integers(0, 6))


def _reference_jet(u, L, mu, coeff_of_k):
    ut = K.truncate(u, L, mu)
    top = mu // O.min_lvalue(L, ut) if ut.terms else 0
    acc = K.truncate(K.one(2), L, mu)
    for k in range(1, top + 1):
        acc = K.add(acc, K.scale(K.truncate(K.power(ut, k), L, mu),
                                 coeff_of_k(k)))
    return acc


@settings(max_examples=80, deadline=None)
@given(builtin_problems())
def test_builtin_jets_match_sums_of_powers(problem):
    u, L, mu = problem
    assert K.exp_jet(u, L, mu) == _reference_jet(
        u, L, mu, lambda k: F(1, math.factorial(k)))
    assert K.geom_jet(u, L, mu) == _reference_jet(u, L, mu, lambda k: F(1))


def test_serialization_roundtrip_bit_exact():
    from localring.parser import parse_expression
    rng = random.Random(7)
    names = ("x", "y", "z")
    for _ in range(40):
        terms = {tuple(rng.randint(0, 4) for _ in range(3)):
                 F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)}
        f = K.series(3, terms)
        back = parse_expression(print_series(f, names), names, std3, 10)
        assert back == f


def test_presentation_invariants():
    with pytest.raises(PresentationError):
        K.IdealPresentation(2, ())
    with pytest.raises(PresentationError):
        K.IdealPresentation(2, (K.zero(2),))
    with pytest.raises(DimensionMismatch):
        K.IdealPresentation(2, (K.variable(3, 0),))
