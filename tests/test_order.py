import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localring import kernel as K
from localring import order as O
from localring.errors import DimensionMismatch, FormMismatch, ZeroUpToPrecision

std1 = O.std_form(1)
std2 = O.std_form(2)
std3 = O.std_form(3)

exponents3 = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


class TestLValue:
    def test_total_degree(self):
        assert O.lvalue(std3, (2, 3, 0)) == 5

    def test_weighted_split(self):
        w = O.weighted_split_form(3, 2, 7)
        assert O.lvalue(w, (1, 0, 3)) == 22

    def test_origin(self):
        assert O.lvalue(std2, (0, 0)) == 0

    def test_mismatch(self):
        with pytest.raises(DimensionMismatch):
            O.lvalue(std2, (1, 2, 3))


class TestCompare:
    def test_level_dominates(self):
        assert O.compare(std3, (2, 3, 0), (8, 0, 0)) == -1

    def test_equal(self):
        assert O.compare(std3, (1, 2, 3), (1, 2, 3)) == 0

    def test_tie_breaks_from_last_coordinate(self):
        # tie at level 2, then beta_2: 1 < 2
        assert O.compare(std2, (1, 1), (0, 2)) == -1

    def test_positivity_of_weights_enforced(self):
        with pytest.raises(FormMismatch):
            O.LinearForm((F(1), F(0)))


class TestInitialExponent:
    def test_example_generator(self):
        E = K.series(3, {(0, 0, 0): 1, (0, 0, 1): 1}, prec=8, form=std3)
        f = K.add(K.monomial(3, (0, 5, 0)), K.mul(K.monomial(3, (0, 2, 4)), E))
        assert O.initial_exponent(std3, f) == (0, 5, 0)

    def test_monomial(self):
        assert O.initial_exponent(std3, K.monomial(3, (2, 0, 7))) == (2, 0, 7)

    def test_lowest_degree_wins(self):
        f = K.series(1, {(1,): 1, (2,): 1})
        assert O.initial_exponent(std1, f) == (1,)

    def test_zero_has_no_initial_exponent(self):
        with pytest.raises(ZeroUpToPrecision):
            O.initial_exponent(std1, K.zero(1))
        with pytest.raises(ZeroUpToPrecision):
            O.initial_exponent(std1, K.series(1, {}, prec=4, form=std1))


@settings(max_examples=80)
@given(exponents3, exponents3, exponents3)
def test_total_order(a, b, c):
    # antisymmetry and transitivity via the key embedding
    ka, kb, kc = (O.sort_key(std3, e) for e in (a, b, c))
    assert (ka == kb) == (a == b)
    if ka < kb and kb < kc:
        assert ka < kc


@settings(max_examples=80)
@given(exponents3, exponents3, exponents3)
def test_translation_monotone(a, b, gamma):
    if O.compare(std3, a, b) == -1:
        shifted_a = tuple(x + g for x, g in zip(a, gamma))
        shifted_b = tuple(x + g for x, g in zip(b, gamma))
        assert O.compare(std3, shifted_a, shifted_b) == -1


def exponents(n):
    return st.tuples(*([st.integers(0, 3)] * n))


def nonzero_polys(n):
    return st.dictionaries(exponents(n), st.integers(-3, 3), min_size=1,
                           max_size=4).map(lambda d: K.series(n, d)).filter(
                               lambda f: bool(f.terms))


@settings(max_examples=60)
@given(nonzero_polys(2), nonzero_polys(2))
def test_initial_exponent_multiplicative(f, g):
    lhs = O.initial_exponent(std2, K.mul(f, g))
    rhs = tuple(a + b for a, b in zip(O.initial_exponent(std2, f),
                                      O.initial_exponent(std2, g)))
    assert lhs == rhs


def test_sublevel_enumeration_matches_binomial():
    import math
    pts = list(O.iter_sublevel(std3, 5))
    assert len(pts) == math.comb(3 + 5, 3)
    assert len(set(pts)) == len(pts)
    w = O.LinearForm((F(1), F(2)))
    assert set(O.iter_sublevel(w, 2)) == {(0, 0), (1, 0), (2, 0), (0, 1)}


def test_parse_form_round_trips():
    assert O.parse_form("std", 3) == std3
    assert O.parse_form("w:1,1,7", 3) == O.LinearForm((F(1), F(1), F(7)))
    assert O.parse_form("split:k=2,l=7", 3) == O.weighted_split_form(3, 2, 7)
    assert O.form_label(O.weighted_split_form(3, 2, 7)) == "w:1,1,7"
    with pytest.raises(FormMismatch):
        O.parse_form("w:1,1", 3)


@settings(max_examples=80)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.integers(0, 6)] * n)))
def test_std_key_is_the_standard_sort_key(e):
    assert O.std_key(e) == O.sort_key(O.std_form(len(e)), e)


def test_sorted_terms_in_zero_and_more_variables():
    assert O.std_key(()) == (0,)
    assert K.series(0, {(): 3}).sorted_terms() == [((), 3)]
    f = K.series(2, {(0, 2): 1, (1, 1): 2, (2, 0): 3, (1, 0): 4})
    assert [e for e, _ in f.sorted_terms()] == [(1, 0), (2, 0), (1, 1), (0, 2)]
    assert f.sorted_terms() == f.sorted_terms(std2)


# -- the derived slots of a form ----------------------------------------------

weights = st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6)


def weight_vectors(n):
    # general positive forms, and forms whose integer weights are all 1
    # although den > 1, such as (1/2, 1/2)
    return st.one_of(st.lists(weights, min_size=n, max_size=n),
                     st.integers(1, 6).map(lambda d: [F(1, d)] * n))


forms_and_exponents = st.integers(1, 4).flatmap(lambda n: st.tuples(
    weight_vectors(n), st.tuples(*[st.integers(0, 9)] * n),
    st.integers(1, n)))


@settings(max_examples=150)
@given(forms_and_exponents)
def test_level_is_den_times_the_weighted_sum(case):
    ws, b, _ = case
    L = O.LinearForm(ws)
    assert L.level(b) == sum(w * x for w, x in zip(ws, b)) * L.den
    assert L.unit == all(w * L.den == 1 for w in ws)


@settings(max_examples=150)
@given(forms_and_exponents)
def test_restrict_is_the_form_on_the_first_weights(case):
    ws, _, k = case
    L = O.LinearForm(ws)
    assert L.restrict(k) == O.LinearForm(ws[:k])
    if O.is_standard(L):
        assert L.restrict(k) is O.std_form(k)


@settings(max_examples=150)
@given(forms_and_exponents)
def test_derived_slots_take_no_part_in_identity(case):
    ws, _, _ = case
    L = O.LinearForm(ws)
    twin = O.LinearForm([str(w) for w in ws])
    assert twin == L and hash(twin) == hash(L) == hash(L.weights)
    assert repr(L) == f"LinearForm(weights={L.weights!r})"
    back = pickle.loads(pickle.dumps(L))
    assert back == L and hash(back) == hash(L) and repr(back) == repr(L)
    assert (back.den, back.int_weights, back.unit) == (L.den, L.int_weights,
                                                       L.unit)


def test_unit_forms():
    assert std3.unit and O.is_standard(std3)
    half = O.LinearForm((F(1, 2), F(1, 2)))
    assert half.unit and half.den == 2 and not O.is_standard(half)
    assert half.level((3, 4)) == 7 and O.lvalue(half, (3, 4)) == F(7, 2)
    assert half.restrict(1) == O.LinearForm((F(1, 2),))
    assert not O.weighted_split_form(3, 2, 7).unit


def test_restrict_of_a_standard_form_is_the_shared_one():
    assert std3.restrict(2) is std2
    assert std3.restrict(3) is std3
    assert O.LinearForm((1, 1, 1)).restrict(1) is std1


@pytest.mark.parametrize("k", [0, -1, 4])
def test_restrict_refuses_a_k_outside_the_form(k):
    with pytest.raises(DimensionMismatch):
        std3.restrict(k)
    with pytest.raises(DimensionMismatch):
        O.weighted_split_form(3, 2, 7).restrict(k)
