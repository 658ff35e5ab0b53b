"""Packed exponents in the division loop.

Inside `division` an exponent is one int: its level above slots that hold
the components, each slot with a zero guard bit on top.  These tests check
the properties the loop relies on against the tuple operations they stand
for, and the division itself where the components run far above the window.
"""

import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localring import division as DIV
from localring import kernel as K
from localring import order as O
from localring.errors import DimensionMismatch, InvariantViolation
from oracles import heads_coprime
from test_integer_levels import outcome, reference_divide, series_data

WEIGHTS = (F(1, 2), F(2, 3), F(1), F(3, 2), F(3))


def forms(n):
    return st.one_of(
        st.just(O.std_form(n)),
        st.tuples(*[st.sampled_from(WEIGHTS)] * n).map(O.LinearForm))


@st.composite
def packings(draw, count=6):
    """(form, mu, packing, exponents): the packing chosen for a series whose
    exponents are the drawn ones, as `division` chooses it."""
    n = draw(st.integers(1, 4))
    L = draw(forms(n))
    mu = draw(st.sampled_from([F(0), F(1), F(5, 2), F(4), F(7)]))
    top = draw(st.sampled_from([3, 9, 40]))
    exps = draw(st.lists(st.tuples(*[st.integers(0, top)] * n),
                         min_size=2, max_size=count, unique=True))
    pk = DIV._packing(L, mu, [K.series(n, {e: 1 for e in exps})])
    return L, mu, pk, exps


def capc(L, mu):
    return max(L.level_cap(mu), 0) // min(L.int_weights)


@settings(max_examples=200, deadline=None)
@given(packings())
def test_packed_order_is_the_order_of_the_form(problem):
    L, _, pk, exps = problem
    packed = sorted(exps, key=lambda e: DIV._pack(pk, e))
    assert packed == sorted(exps, key=lambda e: O.sort_key(L, e))


@settings(max_examples=200, deadline=None)
@given(packings())
def test_guard_mask_is_the_cone_test(problem):
    _, _, pk, exps = problem
    for alpha in exps:
        for beta in exps:
            in_cone = not (DIV._pack(pk, beta) - DIV._pack(pk, alpha)) & pk.guard
            assert in_cone == all(map(operator.ge, beta, alpha))


@settings(max_examples=200, deadline=None)
@given(packings(), st.data())
def test_sums_and_the_window_test(problem, data):
    L, mu, pk, exps = problem
    cap, limit = pk.cap, pk.limit
    assert cap == L.level_cap(mu)
    # a shift out of the window plus a member term fits its slots
    shift = data.draw(st.tuples(*[st.integers(0, capc(L, mu))] * pk.n))
    for e in exps:
        total = (*map(operator.add, shift, e),)
        p = DIV._pack(pk, shift) + DIV._pack(pk, e)
        assert p == DIV._pack(pk, total)
        assert (p < limit) == (L.level(total) <= cap)
    # any two packed exponents: their slots may overflow, the test holds
    for a in exps:
        for b in exps:
            total = (*map(operator.add, a, b),)
            p = DIV._pack(pk, a) + DIV._pack(pk, b)
            assert (p < limit) == (L.level(total) <= cap)


@settings(max_examples=200, deadline=None)
@given(packings())
def test_unpacking_inverts_packing(problem):
    L, _, pk, exps = problem
    for e in exps:
        p = DIV._pack(pk, e)
        assert DIV._unpack(pk, p) == e
        assert p >> pk.shift == L.level(e)


@st.composite
def window_heads(draw):
    """(packing, heads): heads in the window {L <= mu}, each component at
    most capc, and the packing `_slots` chooses for that window and a
    bound B on the given components."""
    n = draw(st.integers(1, 4))
    # weighted forms include integer ones with a weight of 1, whose
    # variable reaches capc = cap in the window
    unit = st.lists(st.integers(1, 3), min_size=n, max_size=n).map(
        lambda ws: O.LinearForm((1, *ws[1:])))
    L = draw(st.one_of(forms(n), unit))
    mu = draw(st.sampled_from([F(1), F(5, 2), F(4), F(7)]))
    cap = L.level_cap(mu)
    pk = DIV._slots(L, mu, draw(st.integers(0, 3 * capc(L, mu))))
    heads = []
    for _ in range(draw(st.integers(2, 6))):
        e, room = [0] * n, cap
        for k in draw(st.permutations(range(n))):
            e[k] = draw(st.integers(0, room // L.int_weights[k]))
            room -= e[k] * L.int_weights[k]
        heads.append(tuple(e))
    return pk, heads


@settings(max_examples=300, deadline=None)
@given(window_heads())
def test_packed_lcm_is_the_sum_exactly_for_coprime_heads(problem):
    # completion skips a pair as coprime when the packed lcm of its heads
    # is the sum of the packed heads; that holds because the slots have
    # room for the sum of two heads in the window, so it carries nowhere
    pk, heads = problem
    for a in heads:
        for b in heads:
            total = DIV._pack(pk, a) + DIV._pack(pk, b)
            assert total == DIV._pack(pk, (*map(operator.add, a, b),))
            lcm = DIV._pack(pk, (*map(max, a, b),))
            assert (lcm == total) == heads_coprime(a, b)


@st.composite
def far_problems(draw):
    """Exact division problems whose dividend and divisors carry components
    of 2^20 and more, far above the window."""
    n = draw(st.integers(1, 3))
    L = draw(forms(n))
    mu = draw(st.sampled_from([F(2), F(7, 2), F(5)]))
    small = st.tuples(*[st.integers(0, 3)] * n)
    # one or more components raised by 2^20 and up
    far = st.tuples(small, st.tuples(*[st.sampled_from([0, 2 ** 20, 2 ** 20 + 7,
                                                        2 ** 21])] * n)).map(
        lambda pair: (*map(operator.add, *pair),)).filter(any)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)

    def poly(min_size):
        terms = draw(st.dictionaries(small, coeff, min_size=min_size, max_size=4))
        terms.update(draw(st.dictionaries(far, coeff, min_size=1, max_size=2)))
        return K.series(n, terms)

    divisors = [poly(1) for _ in range(draw(st.integers(1, 3)))]
    return poly(0), divisors, L, mu


@settings(max_examples=150, deadline=None)
@given(far_problems())
def test_division_far_above_the_window_matches_reference(problem):
    got = outcome(DIV.hironaka_divide, problem)
    want = outcome(reference_divide, problem)
    if isinstance(got, type):
        assert got.__name__ in ("ZeroUpToPrecision", "PrecisionShortfall")
        return
    assert got == want
    assert [series_data(q) for q in got.quotients] == \
        [series_data(q) for q in want.quotients]
    assert series_data(got.remainder) == series_data(want.remainder)


def test_far_exact_terms_decide_exactness():
    # x - y^(2^20) divided by x: the far term is left over, so the division
    # is not exact; its remainder is zero only up to mu
    L, far = O.std_form(2), 2 ** 20
    res = DIV.hironaka_divide(K.series(2, {(1, 0): 1, (0, far): -1}),
                              [K.variable(2, 0)], L, 4)
    assert res.remainder.terms == {} and res.remainder.prec == 4
    # x * (1 + y^(2^20)) divided by 1 + y^(2^20): exact, quotient x
    g = K.series(2, {(0, 0): 1, (0, far): 1})
    res = DIV.hironaka_divide(K.mul(K.variable(2, 0), g), [g], L, 4)
    assert res.remainder.is_exact_zero
    assert res.quotients[0] == K.variable(2, 0)


def test_component_too_wide_for_its_slot_is_refused():
    L = O.std_form(2)
    pk = DIV._packing(L, 3, [K.series(2, {(2, 1): 1})])
    assert pk.top == 7  # room for capc + max(B, capc) = 3 + 3
    assert DIV._unpack(pk, DIV._pack(pk, (7, 0))) == (7, 0)
    for e in ((8, 0), (0, 8), (-1, 2)):
        with pytest.raises(InvariantViolation):
            DIV._pack(pk, e)
    with pytest.raises(DimensionMismatch):
        DIV._pack(pk, (1, 2, 3))
