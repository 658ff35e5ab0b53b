"""Integer L-levels and the fraction-free division against plain rationals.

The division here is checked against a reference that runs the textbook
loop over `Fraction` coefficients and rational L-values, so the two share
neither the integer levels nor the common-denominator bookkeeping.
"""

import heapq
import itertools
import math
import random
from fractions import Fraction as F
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_poly
from localring import diagram as DG
from localring import division as DIV
from localring import kernel as K
from localring import order as O
from localring import stdbasis as SB
from localring.errors import LocalRingError, PrecisionShortfall

WEIGHTS = (F(1, 2), F(2, 3), F(1), F(3, 2), F(3))


# -- strategies ------------------------------------------------------------------

def forms(n):
    return st.one_of(
        st.just(O.std_form(n)),
        st.tuples(*[st.sampled_from(WEIGHTS)] * n).map(O.LinearForm))


rationals = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 5))


def exponents(n, top=4):
    return st.tuples(*[st.integers(0, top)] * n)


def polys(n, max_terms=5):
    return st.dictionaries(exponents(n), rationals, min_size=1,
                           max_size=max_terms).map(lambda t: K.series(n, t))


@st.composite
def division_problems(draw):
    n = draw(st.integers(1, 3))
    L = draw(forms(n))
    mu = draw(st.sampled_from([F(0), F(1), F(3, 2), F(2), F(3), F(9, 2), F(5), F(7)]))

    def maybe_certified(f):
        # an exact polynomial, or its jet certified a little beyond mu
        if draw(st.booleans()):
            return f
        return K.truncate(f, L, mu + draw(st.sampled_from([F(0), F(1, 2), F(2)])))

    dividend = maybe_certified(draw(polys(n, 8)))
    divisors = [maybe_certified(draw(polys(n))) for _ in range(draw(st.integers(1, 3)))]
    return dividend, divisors, L, mu


# -- the reference division ----------------------------------------------------

def reference_divide(F_, divisors, L, mu):
    """Hironaka division with Fraction coefficients and rational L-values."""
    mu = F(mu)
    heads = [O.initial_term(L, g) for g in divisors]
    partition = DIV.RegionPartition(tuple(alpha for alpha, _ in heads))
    work, heap = {}, []

    def put(exp, coeff):
        s = work.get(exp, F(0)) + coeff
        if s:
            if exp not in work:
                heapq.heappush(heap, (O.lvalue(L, exp), exp[::-1], exp))
            work[exp] = s
        else:
            work.pop(exp, None)

    for e, c in F_.terms.items():
        put(e, c)
    quotients = [dict() for _ in divisors]
    remainder = {}
    while heap:
        lval, _, beta = heapq.heappop(heap)
        if beta not in work:
            continue
        if lval > mu:
            break
        coeff = work.pop(beta)
        i = partition.region_of(beta)
        if i is DIV.COMPLEMENT:
            remainder[beta] = coeff
            continue
        alpha, lead = heads[i]
        shift = tuple(b - a for b, a in zip(beta, alpha))
        q = coeff / lead
        quotients[i][shift] = q
        for e, c in divisors[i].terms.items():
            if e != alpha:
                put(tuple(x + y for x, y in zip(shift, e)), -q * c)
    exact = (F_.prec is K.EXACT and all(g.prec is K.EXACT for g in divisors)
             and not work)
    if exact:
        out_q = [K.PrecisionSeries(F_.n, q) for q in quotients]
        rem = K.PrecisionSeries(F_.n, remainder)
    else:
        out_q = [K.PrecisionSeries(F_.n, q, mu - O.lvalue(L, alpha), L)
                 for q, (alpha, _) in zip(quotients, heads)]
        rem = K.PrecisionSeries(F_.n, remainder, mu, L)
    return DIV.DivisionResult(tuple(out_q), rem, mu, partition)


def outcome(divide, problem):
    try:
        return divide(*problem)
    except LocalRingError as exc:
        return type(exc)


def series_data(f):
    return list(f.terms.items()), f.prec, f.form_ctx


@settings(max_examples=300, deadline=None)
@given(division_problems())
def test_fraction_free_division_matches_reference(problem):
    got = outcome(DIV.hironaka_divide, problem)
    want = outcome(reference_divide, problem)
    if isinstance(got, type):
        # the reference has no guards: the refusal must be a real one
        assert got.__name__ in ("ZeroUpToPrecision", "PrecisionShortfall")
        return
    assert got == want
    assert [series_data(q) for q in got.quotients] == \
        [series_data(q) for q in want.quotients]
    assert series_data(got.remainder) == series_data(want.remainder)
    assert got.certified_prec == want.certified_prec


def test_fraction_free_division_with_large_denominators():
    # non-monic heads whose integer forms do not divide the popped
    # coefficients force the working denominator to grow on every pop
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 3)
        L = O.LinearForm(tuple(rng.choice(WEIGHTS) for _ in range(n)))
        f = K.series(n, {e: c * F(1, rng.choice([7, 11, 13]))
                         for e, c in rand_poly(rng, n, max_terms=8).terms.items()})
        divisors = [K.series(n, {e: c * F(rng.choice([2, 3, 5]), rng.choice([3, 7]))
                                 for e, c in rand_poly(rng, n).terms.items()})
                    for _ in range(rng.randint(1, 3))]
        problem = (f, divisors, L, rng.choice([4, F(11, 2), 8]))
        assert outcome(DIV.hironaka_divide, problem) == \
            outcome(reference_divide, problem)


# -- integer levels ---------------------------------------------------------------

@st.composite
def forms_and_exponents(draw, count=12):
    n = draw(st.integers(1, 4))
    return draw(forms(n)), draw(st.lists(exponents(n, 6), min_size=1, max_size=count))


@settings(max_examples=150)
@given(forms_and_exponents())
def test_lvalue_is_level_over_den(data):
    L, exps = data
    assert L.den == math.lcm(*(w.denominator for w in L.weights))
    assert L.int_weights == tuple(w * L.den for w in L.weights)
    for e in exps:
        assert isinstance(L.level(e), int)
        assert O.lvalue(L, e) == F(L.level(e), L.den) == sum(
            (w * b for w, b in zip(L.weights, e)), F(0))


@settings(max_examples=150)
@given(forms_and_exponents(),
       st.builds(F, st.integers(-2, 30), st.integers(1, 6)) | st.integers(-5, 30))
def test_level_cap_is_the_window(data, bound):
    L, exps = data
    cap = L.level_cap(bound)
    for e in exps:
        assert (L.level(e) <= cap) == (O.lvalue(L, e) <= bound)


@settings(max_examples=150)
@given(forms_and_exponents(count=20))
def test_integer_sort_key_orders_like_rational_lvalues(data):
    L, exps = data
    by_int = sorted(exps, key=partial(O.sort_key, L))
    by_rational = sorted(exps, key=lambda e: (O.lvalue(L, e), e[::-1]))
    assert by_int == by_rational


def test_form_equality_ignores_integer_attributes():
    a = O.LinearForm((F(1, 2), F(2, 3)))
    b = O.parse_form("w:1/2,2/3", 2)
    assert (a.den, a.int_weights) == (6, (3, 4))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "LinearForm(weights=(Fraction(1, 2), Fraction(2, 3)))"
    assert O.form_label(a) == "w:1/2,2/3"


@settings(max_examples=60)
@given(st.integers(1, 3).flatmap(forms),
       st.builds(F, st.integers(-1, 12), st.integers(1, 3)))
def test_iter_sublevel_enumerates_the_window_in_order(L, eta):
    top = int(eta / min(L.weights)) + 1
    brute = [e for e in itertools.product(range(top + 1), repeat=L.n)
             if O.lvalue(L, e) <= eta]
    assert list(O.iter_sublevel(L, eta)) == brute


# -- completion cross-checks -------------------------------------------------------

def random_ideals(seed, count):
    """Small ideals in 2-3 variables with rational coefficients, under the
    standard form or a random weighted one."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 3)
        if rng.random() < 0.5:
            L = O.std_form(n)
        else:
            L = O.LinearForm(tuple(rng.choice(WEIGHTS) for _ in range(n)))
        gens = tuple(K.series(n, {e: c / rng.randint(1, 4) for e, c in
                                  rand_poly(rng, n, max_exp=2, min_order=1).terms.items()})
                     for _ in range(rng.randint(2, 3)))
        yield K.IdealPresentation(n, gens), L


def test_coprime_skip_does_not_change_the_staircase():
    for I, L in random_ideals(21, 100):
        mu = 6 * max(L.weights)
        with_skip = DG.diagram_of(SB.complete(I, L, mu))
        without = DG.diagram_of(SB.complete(I, L, mu, use_coprime_skip=False))
        assert with_skip.vertices == without.vertices


def test_weighted_completion_matches_the_sublevel_oracle():
    checked = 0
    for I, L in random_ideals(22, 100):
        mu = 5 * max(L.weights)
        try:
            D = DG.diagram_of(SB.complete(I, L, mu))
        except PrecisionShortfall:
            continue  # a generator's head lies beyond the window
        for eta in (mu / 2, mu - F(1, 2), mu):
            assert DG.complement_count(D, L, eta) == \
                DG.oracle_sublevel_quotient_dim(I, L, eta)
        checked += 1
    assert checked >= 90
