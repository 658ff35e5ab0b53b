"""Differential tests for the products on the tower path.

`equising._jet_dot` multiplies jets keyed by exponents packed as in
`division`; it is compared with a product on exponent tuples.  `kernel.mul`
multiplies integer numerators over the product of the operands' common
denominators, or shifts the other factor when one has a single term; both
are compared with the `Fraction` loop it replaced, kept in `oracles` as
`fraction_product`.  The top level of a tower, one truncated integer
product of the prepared generators, is compared with the `mul` and
`truncate` route it replaced.  Root counts of numbers run on plain
ints; they are compared with the gcd oracle beyond the symbolic cap, and
the minors themselves with determinants of Hankel matrices of power sums.
The minors that the Newton-polygon cut leaves out are compared, beyond the
cap, with a plain Berkowitz pass over kernel series.
"""

import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from localring import division as DIV
from localring import equising as E
from localring import kernel as K
from localring import linalg
from localring import order as O
from localring.errors import LocalRingError
import oracles as OR

COEFFS = [F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 3), F(5, 6), F(-7, 4)]
WEIGHTS = (F(1, 2), F(2, 3), F(1), F(3, 2), F(3))


# -- the packed jet product ----------------------------------------------------

def reference_dot(pairs, top: int) -> dict:
    """sum a * b over the pairs, on exponent tuples, kept to degree <= top."""
    out = {}
    for a, b in pairs:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple([x + y for x, y in zip(e1, e2)])
                if sum(e) <= top:
                    out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def tight_packing(n: int, top: int) -> DIV._Packing:
    """The narrowest packing whose slots hold every component of a jet of
    degree <= top, for the window of the degrees <= top: a sum of two such
    exponents can overflow its slots."""
    width = top.bit_length() + 1
    guard = 0
    for k in range(n):
        guard |= 1 << (k * width + width - 1)
    return DIV._Packing(n, width, (1,) * n, (1 << (width - 1)) - 1, guard,
                        n * width, top)


def packed_dot(pairs, top: int, pk: DIV._Packing) -> dict:
    packed = [tuple([{DIV._pack(pk, e): c for e, c in jet.items()}
                     for jet in pair]) for pair in pairs]
    out = E._jet_dot(packed, (top + 1) << pk.shift)
    return {DIV._unpack(pk, e): c for e, c in out.items()}


@st.composite
def jet_pairs(draw):
    """(pairs, top, n): up to three pairs of jets in 1..3 variables, every
    term of degree <= top, with coefficients that can cancel."""
    n = draw(st.integers(1, 3))
    top = draw(st.integers(0, 14))

    def jet():
        terms = {}
        for _ in range(draw(st.integers(0, 6))):
            budget, e = top, []
            for _ in range(n):
                k = draw(st.integers(0, budget))
                e.append(k)
                budget -= k
            terms[tuple(e)] = draw(st.sampled_from(COEFFS))
        return terms

    pairs = [(jet(), jet()) for _ in range(draw(st.integers(0, 3)))]
    return pairs, top, n


@settings(max_examples=200, deadline=None)
@given(jet_pairs(), st.booleans())
# (x + y)(x - y) at top 2: the xy terms cancel
@example(([({(1, 0): F(1), (0, 1): F(1)}, {(1, 0): F(1), (0, 1): F(-1)})], 2, 2),
         True)
def test_jet_dot_matches_the_tuple_product(case, tight):
    pairs, top, n = case
    L = O.std_form(n)
    pk = tight_packing(n, top) if tight else DIV._packing(L, top, [])
    assert packed_dot(pairs, top, pk) == reference_dot(pairs, top)


def test_overflowing_sums_are_dropped_by_the_limit():
    # with slots of 4 bits, y^4 * y^4 packs a sum whose y slot (8) has run
    # into its guard bit; its level 8 is beyond top 4 all the same
    pk = tight_packing(2, 4)
    a, b = DIV._pack(pk, (0, 4)), DIV._pack(pk, (0, 4))
    assert (a + b) & pk.guard
    assert E._jet_dot([({a: 1}, {b: 1})], 5 << pk.shift) == {}
    assert packed_dot([({(0, 4): 1, (0, 0): 2}, {(0, 4): 1, (1, 0): 3})],
                      4, pk) == {(0, 4): 2, (1, 0): 6}


# -- the fraction-free kernel product ------------------------------------------

@st.composite
def operand_pairs(draw):
    """Two series in 1..3 variables under one std or weighted form, each
    EXACT or certified (possibly zero up to its bound)."""
    n = draw(st.integers(1, 3))
    L = draw(st.one_of(
        st.just(O.std_form(n)),
        st.lists(st.sampled_from(WEIGHTS), min_size=n, max_size=n)
        .map(lambda ws: O.LinearForm(tuple(ws)))))
    exponent = st.lists(st.integers(0, 4), min_size=n, max_size=n).map(tuple)

    def operand():
        terms = draw(st.dictionaries(exponent, st.sampled_from(COEFFS),
                                     max_size=6))
        f = K.series(n, terms)
        if draw(st.booleans()):
            f = K.truncate(f, L, draw(st.sampled_from([F(0), F(2), F(7, 2), F(6)])))
        return f

    return operand(), operand()


@settings(max_examples=250, deadline=None)
@given(operand_pairs())
# (x + y)(x - y): the xy terms cancel, EXACT and certified
@example((K.series(2, {(1, 0): 1, (0, 1): 1}), K.series(2, {(1, 0): 1, (0, 1): -1})))
@example((K.truncate(K.series(2, {(1, 0): F(1, 2), (0, 1): F(1, 3)}), O.std_form(2), 3),
          K.series(2, {(1, 0): F(2), (0, 1): F(-3)})))
def test_mul_matches_the_fraction_loop(case):
    a, b = case
    got = K.mul(a, b)
    assert got == OR.fraction_product(a, b)
    assert all(type(c) is F and c for c in got.terms.values())


@st.composite
def one_term_products(draw):
    """(a, b, c_is_one): a product in 1..3 variables under one std or
    weighted form in which one factor, on either side, is a single term c
    x^alpha, c = 1 or not; each factor is EXACT or certified, the other one
    possibly zero up to its bound."""
    n = draw(st.integers(1, 3))
    L = draw(st.one_of(
        st.just(O.std_form(n)),
        st.lists(st.sampled_from(WEIGHTS), min_size=n, max_size=n)
        .map(lambda ws: O.LinearForm(tuple(ws)))))
    exponent = st.lists(st.integers(0, 4), min_size=n, max_size=n).map(tuple)
    bounds = st.sampled_from([F(0), F(2), F(7, 2), F(6)])
    other = K.series(n, draw(st.dictionaries(exponent, st.sampled_from(COEFFS),
                                             max_size=6)))
    if draw(st.booleans()):
        other = K.truncate(other, L, draw(bounds))
    alpha, c_is_one = draw(exponent), draw(st.booleans())
    term = K.monomial(n, alpha, 1 if c_is_one else draw(
        st.sampled_from(COEFFS[1:])))
    if draw(st.booleans()):  # certified, the term on its window
        term = K.truncate(term, L, O.lvalue(L, alpha) + draw(bounds))
    pair = (term, other) if draw(st.booleans()) else (other, term)
    return pair[0], pair[1], c_is_one


@settings(max_examples=300, deadline=None)
@given(one_term_products())
# x * (x + x^3) certified to 2: the product is certified to 3, so x^4 drops
@example((K.truncate(K.series(1, {(1,): 1}), O.std_form(1), 2),
          K.series(1, {(1,): 1, (3,): 1}), True))
@example((K.series(2, {(1, 2): F(-1, 3), (0, 1): 2}),
          K.truncate(K.series(2, {(2, 0): F(5, 6)}), O.std_form(2), 3), False))
def test_a_one_term_factor_shifts_the_other(case):
    a, b, c_is_one = case
    got = K.mul(a, b)
    assert got == OR.fraction_product(a, b)
    assert all(type(c) is F and c for c in got.terms.values())
    if c_is_one and len(a.terms) + len(b.terms) != 2:
        # the other factor's coefficients, no new Fraction (of two single
        # terms, either may be the one shifted)
        kept = {id(c) for f in (a, b) for c in f.terms.values()}
        assert all(id(c) in kept for c in got.terms.values())


@st.composite
def tower_generators(draw):
    """(gens, mu, seed): one to three generators in n = 2 or 3 variables,
    each x^b times a rational, mostly plus z^a (a < b) times another, z the
    last variable, and up to two more terms without a constant one; a
    generator with no power of z alone needs a coordinate change."""
    n = draw(st.sampled_from([2, 3]))
    mu = draw(st.integers(4, 8) if n == 2 else st.integers(4, 6))
    exponent = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
        tuple).filter(any)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(1, 3 if n == 2 else 2))
        terms = {(a + draw(st.integers(1, 2)),) + (0,) * (n - 1):
                 draw(st.sampled_from(COEFFS))}
        if draw(st.sampled_from([True, True, False])):
            terms[(0,) * (n - 1) + (a,)] = draw(st.sampled_from(COEFFS))
        for _ in range(draw(st.integers(0, 2))):
            terms.setdefault(draw(exponent), draw(st.sampled_from(COEFFS)))
        gens.append(K.series(n, terms))
    return gens, F(mu), draw(st.integers(0, 99))


def prepared_integers(gens, mu, seed) -> list:
    """The prepared generators of `build_tower`, each (numerators, den)."""
    n = gens[0].n
    jets, orders, _ = E._ensure_regular(gens, n - 1, mu, random.Random(seed))
    return [E._weierstrass_polynomial(jet, p, n - 1, mu)[:2]
            for jet, p in zip(jets, orders)]


def prepared_series(gens, mu, seed) -> list:
    """The prepared generators as series on (std, mu), built from their
    integers here, with no `equising` helper."""
    n = gens[0].n
    return [K.truncate(K.series(n, {e: F(c, den) for e, c in ints.items()}),
                       O.std_form(n), mu)
            for ints, den in prepared_integers(gens, mu, seed)]


@settings(max_examples=100, deadline=None)
@given(tower_generators())
@example(([K.series(2, {(0, 2): 1, (3, 0): -1}),
           K.series(2, {(0, 1): F(1, 2), (2, 0): F(-7, 4), (1, 1): 3}),
           K.series(2, {(0, 3): F(5, 6), (4, 0): 2})], F(6), 0))
def test_the_top_level_is_the_truncated_product(case):
    # the generators are made regular and prepared as build_tower does it;
    # the changes it draws at lower levels re-express the top level too
    gens, mu, seed = case
    n = gens[0].n
    try:
        T = E.build_tower(gens, mu, seed)
    except LocalRingError:
        assume(False)
    want = OR.truncated_product(prepared_series(gens, mu, seed), mu)
    for level, M in T.coordinate_changes:
        if level < n:
            want = K.substitute_linear(want, E._embed_change(M, n))
    top = T.levels[0].poly
    assert top == want
    assert all(type(c) is F and c for c in top.terms.values())


@settings(max_examples=100, deadline=None)
@given(tower_generators())
@example(([K.series(2, {(0, 2): 1, (3, 0): -1}),
           K.series(2, {(0, 1): F(1, 2), (2, 0): F(-7, 4), (1, 1): 3}),
           K.series(2, {(0, 3): F(5, 6), (4, 0): 2})], F(6), 0))
# the prepared generators have denominators 6 and 7, and the product's
# coefficients the lcm 7: their product 42 is a common denominator, not
# the lcm
@example(([K.series(2, {(4, 0): F(5, 6), (0, 2): 1, (2, 0): 1}),
           K.series(2, {(5, 0): -2, (0, 3): F(-7, 4), (2, 0): 1})], F(5), 69))
def test_the_top_level_reads_the_same_from_its_integers(case):
    # build_tower reads its top level from the integer product; the series
    # it keeps reads the same, and so do the integers over any common
    # denominator: the minors are scaled back by the same d
    gens, mu, seed = case
    n = gens[0].n
    try:
        T = E.build_tower(gens, mu, seed)
    except LocalRingError:
        assume(False)
    # a change drawn at a lower level re-expresses the kept top level
    assume(all(level == n for level, _ in T.coordinate_changes))
    prepared = prepared_integers(gens, mu, seed)
    ints, den = E._prepared_product(n, prepared, mu)
    assert den == K._numerators(T.levels[0].poly)[1]  # the lowest terms
    top = T.levels[0]
    want = E._first_nonvanishing(E._level(top.poly, mu), top.degree, mu)
    assert (want[0], want[2]) == (top.disc_index, top.vanish_certificates)
    # the product of the prepared denominators, before `_lowest_terms`
    product_den = math.prod([d for _, d in prepared])
    for d in (den, 6 * den, product_den):
        level = E._Level(n, {e: d // den * c for e, c in ints.items()}, d)
        assert E._first_nonvanishing(level, top.degree, mu) == want


# -- what the Hankel route calls -----------------------------------------------

def test_hankel_route_never_calls_kernel_mul(monkeypatch):
    # the symbolic oracle checks this route through `mul`, so the route
    # must not share it
    def refuse(*args):
        raise AssertionError("the Hankel route called kernel.mul")

    monkeypatch.setattr(K, "mul", refuse)
    monkeypatch.setattr(E, "mul", refuse)
    L = O.std_form(2)
    coeffs = [K.truncate(K.series(2, {(1, 0): F(1, 2), (0, 2): -1}), L, 6),
              K.truncate(K.series(2, {(0, 1): 3, (1, 1): F(2, 3)}), L, 6),
              K.truncate(K.series(2, {(2, 0): 1}), L, 6)]
    assert OR.hankel_minors(coeffs, 2, 6)[-1]
    assert OR.hankel_minors([F(1, 2), F(-3), 0, F(7, 5)], 0, 0)[-1]


def test_zero_series_vector_stops_at_the_structural_zero():
    # y^14 over one variable, and over the numbers: every coefficient is
    # zero, so no root difference has a finite order and only the 1 x 1
    # minor D_p = s_0 = p reaches the window; it is returned with no
    # Newton or Berkowitz step, so no product is formed
    p = 14
    zero = [K.truncate(K.series(1, {}), O.std_form(1), p)] * p
    for coeffs, n_vars, origin in ((zero, 1, (0,)), ([0] * p, 0, ())):
        with mock.patch.object(E, "_jet_dot", wraps=E._jet_dot) as dot:
            minors = OR.hankel_minors(coeffs, n_vars, p)
        assert dot.call_count == 0
        assert minors == [{}] * (p - 1) + [{origin: F(p)}]


@pytest.mark.parametrize("p", [1, 2, 5, 14])
def test_a_pure_power_has_first_discriminant_p(p):
    # X^p over the numbers and y^p over one variable: D_1 .. D_{p-1}
    # vanish, and D_p = s_0 = p
    number = E._level(K.series(1, {(p,): 1}), 0)
    assert E._first_nonvanishing(number, p, 0) == (
        p, F(p), ("exact-zero",) * (p - 1))
    level = E._level(K.truncate(K.series(2, {(0, p): 1}), O.std_form(2), p), p)
    j, value, certs = E._first_nonvanishing(level, p, p)
    assert (j, certs) == (p, ("zero-up-to-mu",) * (p - 1))
    assert value == K.truncate(K.series(1, {(0,): p}), O.std_form(1), p)


# -- the Newton-polygon cut ----------------------------------------------------

def _symbolic_minors(coeffs, mu) -> list:
    L = O.std_form(coeffs[0].n)
    p = len(coeffs)
    return [OR.evaluate_at_series(OR.generalized_discriminant(p, j),
                                  coeffs, L, mu).terms
            for j in range(1, p + 1)]


@pytest.mark.parametrize("n, low", [(1, {(6,): -1}), (2, {(1, 5): -1})])
def test_a_minor_whose_order_is_mu_is_computed(n, low):
    # X^2 - x^6 and X^2 - x y^5 at mu = 6: theta = 6/2 = 3, so the 2 x 2
    # minor has order >= 2 * 3 = mu and lies on the window's edge
    coeffs = [K.series(n, low), K.zero(n)]
    minors = OR.hankel_minors(coeffs, n, 6)
    assert minors[0]
    assert minors == _symbolic_minors(coeffs, 6)


def test_minors_beyond_the_window_make_no_product():
    # y^5 - x^7 at mu = 10: theta = 7/5, and m(m-1) theta = 2.8, 8.4, 16.8
    # for m = 2, 3, 4, so only the minors of sizes 1..3 are formed; the
    # power sums s_1..s_4 vanish, and only t_1 * char_0 is a product (the
    # pass without the cut made 13)
    coeffs = [K.series(1, {(7,): -1})] + [K.zero(1)] * 4
    with mock.patch.object(E, "_jet_dot", wraps=E._jet_dot) as dot:
        minors = OR.hankel_minors(coeffs, 1, 10)
    assert dot.call_count == 1
    assert minors == _symbolic_minors(coeffs, 10)


@pytest.mark.parametrize("coeffs, mu, j", [
    # y^5 - x^7 at mu 10: D_1..D_4 vanish on the window and D_5 = 5
    ([K.series(1, {(7,): -1})] + [K.zero(1)] * 4, 10, 5),
    # y^2 - x^3 at mu 6: D_1 = 4x^3 and D_2 = 2 are both nonzero
    ([K.series(1, {(3,): -1}), K.zero(1)], 6, 1),
])
def test_first_nonvanishing_converts_one_minor(coeffs, mu, j):
    # the pass returns integer minors, and only the one returned becomes a
    # jet of `Fraction`s: one per term of the value
    with mock.patch.object(E, "Fraction", wraps=F) as fraction:
        got, value, _ = E._first_nonvanishing(
            E._level(OR.monic_polynomial(coeffs, 1), mu), len(coeffs), mu)
    assert got == j
    assert value.terms == OR.hankel_minors(coeffs, 1, mu)[j - 1]
    assert fraction.call_count == len(value.terms) == 1


@st.composite
def sloped_vectors(draw):
    """(coefficients, mu): degree 6..8 in 1..2 variables, with theta drawn
    near mu / (m(m-1)) for a drawn m, so that the cut falls anywhere in
    1..p: a_i is zero or has lowest degree about (p - i) theta."""
    n = draw(st.integers(1, 2))
    p = draw(st.integers(6, 8))
    mu = draw(st.integers(2, 8) | st.integers(3, 15).map(lambda k: F(k, 2)))
    m = draw(st.integers(2, p))
    theta = F(mu) / (m * (m - 1))
    coeffs = []
    for i in range(p):
        terms = {}
        if draw(st.integers(0, 3)):
            low = max(0, math.floor((p - i) * theta) + draw(st.integers(-1, 1)))
            for d in [low] + draw(st.lists(st.integers(low, low + 2), max_size=2)):
                k = draw(st.integers(0, d))
                terms[(d,) if n == 1 else (k, d - k)] = draw(st.sampled_from(COEFFS))
        coeffs.append(K.series(n, terms))
    return coeffs, mu


@settings(max_examples=80, deadline=None)
@given(sloped_vectors())
# y^8 - x^3 at mu = 7: theta = 3/8, and only the sizes m <= 4 are formed
@example(([K.series(1, {(3,): -1})] + [K.zero(1)] * 7, 7))
def test_minors_match_the_plain_berkowitz_oracle_beyond_the_cap(case):
    coeffs, mu = case
    L = O.std_form(coeffs[0].n)
    want = OR.berkowitz_discriminants(coeffs, L, mu)
    assert OR.hankel_minors(coeffs, coeffs[0].n, mu) == [d.terms for d in want]


@st.composite
def polygon_levels(draw):
    """(coefficients, mu): y^p + a_{p-1} y^{p-1} + ... + a_0, p = 3..6, in
    1..2 other variables, whose lower Newton polygon of (p, 0) and the
    points (i, w_i), w_i the lowest degree of a_i, has a zero low block
    a_0 = ... = a_{k-1} = 0 or two edges of different slopes.  a_{i1} has
    lowest degree w1 and a_k lowest degree w2; without a zero block, w2 is
    drawn so that (i1, w1) is a vertex, w1 / (p - i1) < (w2 - w1) / (i1 -
    k).  Every other a_i is zero or has lowest degree >= max(w1, w2), on or
    above the polygon."""
    n = draw(st.integers(1, 2))
    p = draw(st.integers(3, 6))
    mu = draw(st.integers(2, 9))
    k = draw(st.integers(0, p - 2))
    i1 = draw(st.integers(k + 1, p - 1))
    w1 = draw(st.integers(1, 4))
    steeper = w1 + w1 * (i1 - k) // (p - i1) + 1
    w2 = draw(st.integers(1 if k else steeper, steeper + 4))

    def terms(low: int) -> dict:
        out = {}
        for d in [low] + draw(st.lists(st.integers(low, low + 2), max_size=2)):
            a = draw(st.integers(0, d))
            out[(d,) if n == 1 else (a, d - a)] = draw(st.sampled_from(COEFFS))
        return out

    coeffs = [K.zero(n)] * p
    coeffs[k], coeffs[i1] = K.series(n, terms(w2)), K.series(n, terms(w1))
    for i in range(k + 1, p):
        if i != i1 and draw(st.booleans()):
            coeffs[i] = K.series(n, terms(max(w1, w2) + draw(st.integers(0, 2))))
    return coeffs, mu


@settings(max_examples=80, deadline=None)
@given(polygon_levels())
# y^4 + x*y^2 + x^8 at mu 8: roots of orders 1/2, 1/2, 7/2, 7/2, so the
# 4 x 4 minor has order >= 12 and is not formed; the 3 x 3 one, D_2 =
# 8x^3, has order >= 3
@example(([K.series(1, {(8,): 1}), K.zero(1), K.series(1, {(1,): 1}),
           K.zero(1)], 8))
# y^5 + x^2*y^3 at mu 6: a zero low block of 3, so only the minors of
# sizes <= 3 can be nonzero
@example(([K.zero(1)] * 3 + [K.series(1, {(2,): 1}), K.zero(1)], 6))
def test_the_polygon_bound_leaves_out_only_minors_zero_on_the_window(case):
    coeffs, mu = case
    n, p = coeffs[0].n, len(coeffs)
    minors, pk = E._hankel_discriminants(
        E._level(OR.monic_polynomial(coeffs, n), mu), p, mu)
    want = OR.berkowitz_discriminants(coeffs, O.std_form(n), mu)
    for (jet, scale), D in zip(minors, want):
        if jet is None:  # not formed
            assert not D.terms
        else:
            assert {DIV._unpack(pk, e): F(c, scale)
                    for e, c in jet.items()} == D.terms


def test_the_polygon_bound_reads_every_edge():
    # y^4 + x*y^2 + x^8 at mu 8: the smallest root order alone, 1/2, would
    # bound the 4 x 4 minor by 12 * 1/2 = 6 <= 8 and form it; the polygon
    # bounds it by 2 * (3/2 + 2/2 + 7/2) = 12 > 8
    coeffs = [K.series(1, {(8,): 1}), K.zero(1), K.series(1, {(1,): 1}),
              K.zero(1)]
    minors, _ = E._hankel_discriminants(
        E._level(OR.monic_polynomial(coeffs, 1), 8), 4, 8)
    assert [jet is None for jet, _ in minors] == [True, False, False, False]


@st.composite
def levels_with_terms_above_the_window(draw):
    """(coefficients, above, mu): a_0, ..., a_{p-1} of an exact level
    y^p + ... + a_0 in 2 or 3 variables, every term on the window {std <=
    mu}, and for each a_i terms of degree above mu to add to it, one of
    them with a component beyond any slot the window needs."""
    n = draw(st.integers(1, 2))
    p = draw(st.integers(1, 4))
    mu = draw(st.integers(1, 8))

    def jet(low: int, high: int, count: int) -> dict:
        # count terms of degree in [low, high]
        out = {}
        for _ in range(count):
            d = draw(st.integers(low, high))
            a = draw(st.integers(0, d))
            out[(d,) if n == 1 else (a, d - a)] = draw(st.sampled_from(COEFFS))
        return out

    coeffs = [K.series(n, jet(0, mu, draw(st.integers(0, 3))))
              for _ in range(p)]
    above = [jet(mu + 1, 3 * mu, draw(st.integers(0, 2))) for _ in range(p)]
    far = [0] * n
    far[draw(st.integers(0, n - 1))] = draw(st.integers(4 * mu + 4, 128))
    above[draw(st.integers(0, p - 1))][tuple(far)] = 1
    return coeffs, [K.series(n, t) for t in above], mu


@settings(max_examples=100, deadline=None)
@given(levels_with_terms_above_the_window())
# y^2 + x^3 + x^100 at mu 8: the slots of the window hold components up
# to 31, and x^100 is skipped before it is packed
@example(([K.series(1, {(3,): 1}), K.zero(1)],
          [K.series(1, {(100,): 1}), K.zero(1)], 8))
def test_terms_above_the_window_never_reach_the_packing(case):
    coeffs, above, mu = case
    n, p = coeffs[0].n, len(coeffs)
    grown = [K.add(a, b) for a, b in zip(coeffs, above)]
    assert OR.hankel_minors(grown, n, mu) == OR.hankel_minors(coeffs, n, mu)
    _, pk = E._hankel_discriminants(
        E._level(OR.monic_polynomial(grown, n), mu), p, mu)
    _, want_pk = E._hankel_discriminants(
        E._level(OR.monic_polynomial(coeffs, n), mu), p, mu)
    assert pk == want_pk


# -- root counts beyond the symbolic cap ---------------------------------------

@st.composite
def root_vectors(draw):
    """(coefficients, p, distinct): a monic polynomial of degree 6..14 with
    chosen distinct rational roots and multiplicities."""
    p = draw(st.integers(6, 14))
    roots = draw(st.lists(st.builds(F, st.integers(-8, 8), st.integers(1, 5)),
                          min_size=1, max_size=p, unique=True))
    left = p - len(roots)  # every root has multiplicity 1 plus a share of this
    coeffs = [F(1)]
    for k, r in enumerate(roots):
        extra = left if k == len(roots) - 1 else draw(st.integers(0, left))
        left -= extra
        for _ in range(1 + extra):
            coeffs = [F(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
    return coeffs[:-1], p, len(roots)


@settings(max_examples=60, deadline=None)
@given(root_vectors())
def test_root_counts_match_the_gcd_oracle_beyond_the_cap(case):
    vec, p, distinct = case
    j = E.distinct_root_count_check(vec, p)
    assert j == E.squarefree_defect(vec, p) == p - distinct


def power_sums(coeffs, count: int) -> list:
    """s_0..s_{count-1} of the roots of X^p + a_{p-1} X^{p-1} + ... + a_0,
    by Newton's identities on `Fraction`s."""
    p = len(coeffs)
    c = [F(1)] + [F(coeffs[p - i]) for i in range(1, p + 1)]  # c_i = a_{p-i}
    s = [F(p)]
    for k in range(1, count):
        total = k * c[k] if k <= p else F(0)
        total += sum(c[i] * s[k - i] for i in range(1, min(k - 1, p) + 1))
        s.append(-total)
    return s


def power_of_linear(r, p: int) -> list:
    """(a_0, ..., a_{p-1}) of (X - r)^p."""
    return [math.comb(p, i) * (-r) ** (p - i) for i in range(p)]


@settings(max_examples=40, deadline=None)
@given(root_vectors().map(lambda case: case[0])
       | st.integers(6, 14).flatmap(lambda p: st.lists(
           st.sampled_from(COEFFS + [F(0)]), min_size=p, max_size=p)))
@example([F(0)] * 14)                    # X^14
# X^6 - 1: s_k = 6 when 6 divides k, else 0, so the minors of sizes 2..5
# vanish below the full 6 x 6 one; the pass stops before any product for
# r = 1..3 and after one for r = 4, 5
@example([F(-1)] + [F(0)] * 5)
@example(power_of_linear(F(-3, 2), 9))   # one root of multiplicity 9
def test_minors_match_hankel_determinants_beyond_the_cap(vec):
    p = len(vec)
    s = power_sums(vec, 2 * p - 1)
    minors = OR.hankel_minors(vec, 0, 0)
    assert len(minors) == p
    for j, jet in enumerate(minors, start=1):
        m = p - j + 1
        block = [[s[a + b] for b in range(m)] for a in range(m)]
        want = (-1) ** (m * (m - 1) // 2) * linalg.det(block)
        assert jet == ({(): want} if want else {})
