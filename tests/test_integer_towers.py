"""Differential tests for the fraction-free tower path.

`_hankel_discriminants` scales the roots by the lcm d of the coefficient
denominators and runs Newton and Berkowitz on integers; it is compared
with the symbolic oracle `generalized_discriminant`, evaluated with
`Fraction` arithmetic or with kernel products of series.
`weierstrass_prepare` runs Weierstrass division on the division loop; it
is compared with an independent lift by codegree on kernel series, and
checked to keep its factors on their windows as mu grows.
"""

import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localring import equising as E
from localring import kernel as K
from localring import order as O
from localring.errors import InvariantViolation, NotRegular, PrecisionShortfall
import oracles as OR

#: mixed denominators, so that d is a genuine lcm
COEFFS = [F(7, 12), F(-5, 9), F(1, 2), F(-2, 3), F(3, 4), F(5, 6), F(-1, 8),
          F(9, 10), F(1), F(-1), F(2), F(-3)]

coefficient = st.sampled_from(COEFFS)


def _is_fraction_jet(jet) -> bool:
    return all(type(c) is F and c for c in jet.values())


def _check_numbers(vec):
    p = len(vec)
    hankel = OR.hankel_minors(vec, 0, 0)
    assert len(hankel) == p
    for j, jet in enumerate(hankel, start=1):
        want = OR.evaluate_at_rationals(OR.generalized_discriminant(p, j), vec)
        assert jet == ({(): want} if want else {})
        assert _is_fraction_jet(jet)


def _check_series(coeffs, mu):
    n = coeffs[0].n
    L = O.std_form(n)
    hankel = OR.hankel_minors(coeffs, n, mu)
    for j, jet in enumerate(hankel, start=1):
        want = OR.evaluate_at_series(OR.generalized_discriminant(len(coeffs), j),
                                   coeffs, L, mu)
        assert jet == want.terms
        assert _is_fraction_jet(jet)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda p: st.lists(coefficient | st.just(F(0)), min_size=p, max_size=p)))
def test_numbers_match_the_symbolic_oracle(vec):
    _check_numbers(vec)


@st.composite
def series_vectors(draw):
    """(coefficient series a_0..a_{p-1}, mu): p <= 5 in 1..3 variables,
    exact polynomials or jets certified to a bound >= mu."""
    n = draw(st.integers(1, 3))
    p = draw(st.integers(1, 5 if n == 1 else 4))
    mu = draw(st.integers(1, 4 if n < 3 else 3))
    L = O.std_form(n)
    degree = st.integers(0, mu)
    coeffs = []
    for _ in range(p):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            e = tuple(draw(st.integers(0, mu)) for _ in range(n))
            if sum(e) <= mu:
                terms[e] = draw(coefficient)
        if draw(st.booleans()):
            coeffs.append(K.series(n, terms))
        else:
            bound = mu + draw(degree)
            coeffs.append(K.series(n, terms, prec=bound, form=L))
    return coeffs, mu


@settings(max_examples=60, deadline=None)
@given(series_vectors())
# y^p: every coefficient zero, so every power sum but s_0 vanishes
@example(([K.series(1, {})] * 5, 4))
@example(([K.series(2, {})] * 4, 3))
# y^p - x^k: only a_0 is nonzero, and D_1 is a power of it, inside the
# window or beyond it
@example(([K.series(1, {(1,): F(-1)})] + [K.series(1, {})] * 2, 4))
@example(([K.series(1, {(2,): F(-1)})] + [K.series(1, {})] * 4, 4))
@example(([K.series(2, {(1, 1): F(-1)})] + [K.series(2, {})], 3))
@example(([K.truncate(K.series(2, {(2, 0): F(-7, 12)}), O.std_form(2), 3)]
          + [K.series(2, {})] * 3, 3))
def test_series_match_the_symbolic_oracle(case):
    _check_series(*case)


def test_large_denominators_seeded():
    rng = random.Random(2024)
    primes = [10 ** 12 + 39, 10 ** 9 + 7, 998244353, 2 ** 61 - 1]
    for _ in range(12):
        p = rng.randint(2, 5)
        vec = [F(rng.randint(-10 ** 6, 10 ** 6), rng.choice(primes))
               for _ in range(p)]
        _check_numbers(vec)
    L = O.std_form(1)
    for _ in range(4):
        p = rng.randint(2, 4)
        coeffs = [K.series(1, {(k,): F(rng.randint(-99, 99), rng.choice(primes))
                               for k in range(rng.randint(0, 3))},
                           prec=4, form=L)
                  for _ in range(p)]
        _check_series(coeffs, 4)


def test_repeated_roots_with_denominators():
    # (X - 7/12)^2 (X + 5/9)^3: two distinct roots, D_1..D_3 vanish
    coeffs = [F(1)]
    for r, m in ((F(7, 12), 2), (F(-5, 9), 3)):
        for _ in range(m):
            coeffs = [F(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
    vec = coeffs[:-1]
    assert E.distinct_root_count_check(vec, 5) == 3
    _check_numbers(vec)


# -- Weierstrass preparation against a kernel-level lift -----------------------

def _unit_inverse(w, i, top):
    """1 / w to x_i-degree top, for a unit w in x_i alone."""
    n = w.n
    c = {e[i]: v for e, v in w.terms.items()}
    inv = [1 / c[0]]
    for m in range(1, top + 1):
        inv.append(-sum(c.get(r, 0) * inv[m - r] for r in range(1, m + 1)) / c[0])
    return K.series(n, {tuple(m if k == i else 0 for k in range(n)): v
                        for m, v in enumerate(inv)})


def reference_prepare(f, i, mu):
    """An independent lift of the mu-jet j of f to u * P by codegree (the
    total degree in the variables other than x_i), in kernel `mul`, `add`,
    `series` and `truncate` on series.

    Every step is truncated under the form with weight 1 on x_i and p + 1
    on the others, at level (p + 1) * mu + p.  That window holds every term
    of total degree <= mu; a truncation residue reaches P only above it and
    u only above (p + 1) * mu, when the residue is divided by x_i^p.  So P
    is compared on (std, mu) and u on (std, mu - ord P), the windows
    `weierstrass_prepare` certifies.
    """
    mu = F(mu)
    n = f.n
    L = O.std_form(n)
    j = K.truncate(f, L, mu)
    p = E.regular_order(j, i)
    if p is None or p > mu:
        raise NotRegular("not regular")
    top = int(mu)
    Lref = O.LinearForm(tuple(1 if k == i else p + 1 for k in range(n)))
    level = (p + 1) * top + p

    def cut(s):
        return K.series(n, K.truncate(s, Lref, level).terms)

    parts = {}  # the terms by codegree, their degree in the other variables
    for e, c in j.terms.items():
        parts.setdefault(sum(e) - e[i], {})[e] = c

    def divided_by_pivot(terms):  # x_i^-p times terms of x_i-degree >= p
        if any(e[i] < p for e in terms):
            raise InvariantViolation("residue not divisible")
        return K.series(n, {tuple(b - p if k == i else b
                                  for k, b in enumerate(e)): c
                            for e, c in terms.items()})

    w = divided_by_pivot(parts[0])
    w_inv = _unit_inverse(w, i, level)
    u_parts = {0: w}
    p_parts = {}
    for d in range(1, top + 1):
        c_d = K.series(n, parts.get(d, {}))
        for a in range(1, d):
            c_d = K.add(c_d, -K.mul(u_parts[a], p_parts[d - a]))
        c_d = cut(c_d)
        P_d = K.series(n, {e: c for e, c in cut(K.mul(w_inv, c_d)).terms.items()
                           if e[i] < p})
        p_parts[d] = P_d
        u_parts[d] = divided_by_pivot(cut(K.add(c_d, -K.mul(w, P_d))).terms)
    P = K.monomial(n, tuple(p if k == i else 0 for k in range(n)))
    for pd in p_parts.values():
        P = K.add(P, pd)
    u = K.zero(n)
    for ud in u_parts.values():
        u = K.add(u, ud)
    P = K.truncate(P, L, mu)
    return P, K.truncate(u, L, mu - min(map(sum, P.terms)))


@st.composite
def unit_times_branch(draw):
    """(f, mu): a unit with a rational constant times a branch whose lowest
    pure power of the last variable is x_n^a, a <= mu, in n = 1..3."""
    n = draw(st.integers(1, 3))
    mu = draw(st.integers(2, 7 if n < 3 else 5))
    a = draw(st.integers(1, min(mu, 4)))
    i = n - 1

    def exponent():
        return tuple(draw(st.integers(0, 3)) for _ in range(n))

    unit = {(0,) * n: draw(coefficient)}
    for _ in range(draw(st.integers(0, 3))):
        e = exponent()
        if any(e):
            unit[e] = draw(coefficient)
    branch = {(0,) * i + (a,): draw(coefficient)}
    for _ in range(draw(st.integers(0, 4))):
        e = exponent()
        if any(e[:i]) or e[i] > a:
            branch[e] = draw(coefficient)
    f = K.mul(K.series(n, unit), K.series(n, branch))
    if draw(st.booleans()):
        f = K.truncate(f, O.std_form(n), mu + draw(st.integers(0, 2)))
    return f, mu


@settings(max_examples=120, deadline=None)
@given(unit_times_branch())
# (1 + y)(y^2 + x^3) at mu 3: w^-1 * c_3 has the term -x^3*y above the window
@example((K.mul(K.series(2, {(0, 0): 1, (0, 1): 1}),
                K.series(2, {(0, 2): 1, (3, 0): 1})), 3))
def test_prepare_matches_the_kernel_lifting(case):
    f, mu = case
    i = f.n - 1
    P, u = E.weierstrass_prepare(f, i, mu)
    P_ref, u_ref = reference_prepare(f, i, mu)
    assert P == P_ref and u == u_ref
    assert all(type(c) is F for c in (*P.terms.values(), *u.terms.values()))


@st.composite
def monomial_times_unit(draw):
    """(f, i, mu): x_i^p times a unit v in n = 1..3 variables, p = 1..5,
    with an integer or half-integer mu >= p; f exact or certified."""
    n = draw(st.integers(1, 3))
    i = draw(st.integers(0, n - 1))
    p = draw(st.integers(1, 5))
    mu = F(draw(st.integers(2 * p, 2 * p + (8 if n < 3 else 4))), 2)
    v = {(0,) * n: draw(coefficient)}
    for _ in range(draw(st.integers(0, 4))):
        e = tuple(draw(st.integers(0, 3)) for _ in range(n))
        if any(e):
            v[e] = draw(coefficient)
    f = K.mul(K.monomial(n, tuple(p if k == i else 0 for k in range(n))),
              K.series(n, v))
    if draw(st.booleans()):
        f = K.truncate(f, O.std_form(n), mu + draw(st.integers(0, 2)))
    return f, i, mu


@settings(max_examples=120, deadline=None)
@given(monomial_times_unit())
# univariate, as every discriminant of a plane tower: x^3 (2 - x) at 7/2
@example((K.series(1, {(3,): 2, (4,): -1}), 0, F(7, 2)))
def test_prepare_of_a_power_times_a_unit_divides_nothing(case):
    # x_i^p divides every term of the jet, so P = x_i^p and u = j / x_i^p
    # in closed form, with no division
    f, i, mu = case
    with mock.patch.object(E, "_divide", wraps=E._divide) as divide:
        P, u = E.weierstrass_prepare(f, i, mu)
    assert not divide.called
    P_ref, u_ref = reference_prepare(f, i, mu)
    L = O.std_form(f.n)
    assert P.prec == P_ref.prec and u.prec == u_ref.prec
    assert K.agrees_up_to(P, P_ref, L, P.prec)
    assert K.agrees_up_to(u, u_ref, L, u.prec)


@st.composite
def distinguished_jets(draw):
    """(f, i, mu): x_i^p plus terms of x_i-degree below p off the x_i-axis,
    in n = 2..3 variables, p = 1..4, so that the mu-jet of f is already a
    Weierstrass polynomial; f exact or certified."""
    n = draw(st.integers(2, 3))
    i = draw(st.integers(0, n - 1))
    p = draw(st.integers(1, 4))
    mu = draw(st.integers(p, p + (5 if n == 2 else 3)))
    terms = {tuple(p if k == i else 0 for k in range(n)): F(1)}
    for _ in range(draw(st.integers(1, 4))):
        e = tuple(draw(st.integers(0, 3)) for _ in range(n))
        if e[i] < p < sum(e) + p - e[i]:  # below x_i^p, off the axis
            terms[e] = draw(coefficient)
    f = K.series(n, terms)
    if draw(st.booleans()):
        f = K.truncate(f, O.std_form(n), mu + draw(st.integers(0, 2)))
    return f, i, mu


@settings(max_examples=100, deadline=None)
@given(distinguished_jets())
@example((K.series(2, {(0, 3): 1, (2, 1): F(-1, 2), (5, 0): 3}), 1, 6))
def test_a_distinguished_jet_prepares_to_itself_with_no_division(case):
    # P = j and u = 1 by uniqueness; 2j has the head 2 x_i^p and goes the
    # division route, to the same P and the unit 2
    f, i, mu = case
    with mock.patch.object(E, "_divide", wraps=E._divide) as divide:
        P, u = E.weierstrass_prepare(f, i, mu)
    assert not divide.called
    assert P == K.truncate(f, O.std_form(f.n), mu)
    assert u.terms == {(0,) * f.n: 1}
    assert (P, u) == reference_prepare(f, i, mu)
    with mock.patch.object(E, "_divide", wraps=E._divide) as divide:
        P2, u2 = E.weierstrass_prepare(K.scale(f, 2), i, mu)
    assert divide.called == (len(P.terms) > 1)  # else j = x_i^p
    assert P2 == P and u2 == K.scale(u, 2)


@pytest.mark.parametrize("f", [
    K.series(2, {(0, 3): 2, (2, 1): 1, (5, 0): 3}),             # 2 y^3
    K.series(2, {(0, 3): 1, (1, 3): 1, (2, 1): 1, (5, 0): 3}),  # y^3 (1 + x)
    K.series(2, {(0, 3): 1, (0, 4): 1, (2, 1): 1, (5, 0): 3}),  # y^3 + y^4
])
def test_a_near_miss_of_a_distinguished_jet_still_divides(f):
    with mock.patch.object(E, "_divide", wraps=E._divide) as divide:
        P, u = E.weierstrass_prepare(f, 1, 6)
    assert divide.called
    assert (P, u) == reference_prepare(f, 1, 6)
    assert u.terms != {(0, 0): 1}


def test_prepared_unit_does_not_change_on_its_window_when_mu_grows():
    # ord P = 3, so u is certified only to degree 8 - 3 = 5; its term -2 at
    # x^5*y lies beyond that window at mu = 8 and inside it at mu = 20
    f = K.series(2, {(0, 3): -3, (8, 0): 3, (3, 0): -2, (1, 5): 3})
    _, u8 = E.weierstrass_prepare(f, 1, 8)
    _, u20 = E.weierstrass_prepare(f, 1, 20)
    assert u8.prec == 5 and u20.prec == 17
    assert u20.coefficient((5, 1)) == -2
    assert K.agrees_up_to(u8, K.truncate(u20, O.std_form(2), 8),
                          O.std_form(2), u8.prec)


def test_prepared_polynomial_does_not_change_on_its_window_when_mu_grows():
    # f has degree 3 and p = 2; P has 3 at x^3 at every mu >= 3
    f = K.series(2, {(0, 2): 1, (0, 3): 1, (1, 0): 1})
    P3, _ = E.weierstrass_prepare(f, 1, 3)
    P8, _ = E.weierstrass_prepare(f, 1, 8)
    assert P3.coefficient((3, 0)) == P8.coefficient((3, 0)) == 3
    assert K.agrees_up_to(P3, K.truncate(P8, O.std_form(2), 3),
                          O.std_form(2), P3.prec)


def test_prepare_refuses_what_the_reference_refuses():
    for prepare in (E.weierstrass_prepare, reference_prepare):
        with pytest.raises(NotRegular):
            prepare(K.monomial(2, (1, 1)), 1, 6)


@st.composite
def regular_polynomials(draw):
    """(f, mu): an exact polynomial of degree <= mu in n = 1..3 variables
    whose lowest pure power of the last variable is x_n^p, p <= 3."""
    n = draw(st.integers(1, 3))
    mu = draw(st.integers(3, 7 if n < 3 else 5))
    p = draw(st.integers(1, 3))
    i = n - 1
    terms = {(0,) * i + (p,): draw(coefficient)}
    for _ in range(draw(st.integers(0, 5))):
        e = tuple(draw(st.integers(0, mu)) for _ in range(n))
        if sum(e) <= mu and (any(e[:i]) or e[i] > p):
            terms[e] = draw(coefficient)
    return K.series(n, terms), mu


@settings(max_examples=100, deadline=None)
@given(regular_polynomials())
@example((K.series(2, {(0, 2): 1, (0, 3): 1, (1, 0): 1}), 3))
@example((K.series(2, {(0, 3): -3, (8, 0): 3, (3, 0): -2, (1, 5): 3}), 8))
# ord P = 1 < p = 3: dividing by P cut to degree mu breaks u * P = j
@example((K.series(2, {(0, 3): 1, (0, 4): 1, (1, 0): 1}), 4))
def test_preparation_is_stable_as_mu_grows(case):
    f, mu = case
    i = f.n - 1
    P, u = E.weierstrass_prepare(f, i, mu)
    assert P.prec == mu and u.prec == mu - min(map(sum, P.terms))
    L = O.std_form(f.n)
    for k in range(1, 5):
        P_k, u_k = E.weierstrass_prepare(f, i, mu + k)
        assert K.agrees_up_to(P, K.truncate(P_k, L, mu), L, P.prec)
        assert K.agrees_up_to(u, K.truncate(u_k, L, u.prec), L, u.prec)


def test_unit_prepares_to_one_and_itself():
    f = K.series(2, {(0, 0): 3, (1, 0): -1, (0, 2): F(1, 2), (2, 1): 5})
    P, u = E.weierstrass_prepare(f, 1, 4)
    assert P.terms == {(0, 0): 1}
    assert u.terms == f.terms and u.prec == 4


def test_a_tower_hands_each_level_its_degree(monkeypatch):
    # the cusp y^2 - x^3 at mu 8: one x_i-order for the generator and one
    # for its discriminant -4x^3, and none read off a level
    original, orders = E.regular_order, []

    def regular_order(f, i):
        orders.append(i)
        return original(f, i)

    monkeypatch.setattr(E, "regular_order", regular_order)
    T = E.build_tower([K.series(2, {(0, 2): 1, (3, 0): -1})], 8)
    assert len(orders) == 2
    assert [level.degree for level in T.levels] == [2, 3]
    assert E.validate_tower(T)["all_pass"]


def test_a_top_level_above_the_window_is_refused():
    # y^2 - x^3 and y^3 - x^2 are regular of orders 2 and 3 at mu 4, and
    # their product has degree 5 > 4 in y
    gens = [K.series(2, {(0, 2): 1, (3, 0): -1}),
            K.series(2, {(0, 3): 1, (2, 0): -1})]
    with pytest.raises(PrecisionShortfall, match=(
            r"^the level in 2 variables has no pure power of its last "
            r"variable on the window 4: its degree lies beyond the window$")):
        E.build_tower(gens, 4)
    assert E.build_tower(gens, 5).levels[0].degree == 5


@pytest.mark.xfail(strict=True, reason="a level certified to degree mu knows "
                   "its coefficient a_m only to degree mu - m, but "
                   "`equising._level_jets` certifies every a_m to mu")
def test_discriminant_certificates_do_not_over_claim():
    # f = y^4 + x^5 + x^7*y^2 has D_3 = 8x^7: mu = 9 and mu = 10 find it and
    # record disc_index 3, while mu = 8 certifies D_3 zero and records 4
    f = K.series(2, {(0, 4): 1, (5, 0): 1, (7, 2): 1})
    assert E.build_tower([f], 8).levels[0].disc_index == 3
