"""Integer-form completion against the public rational route.

`complete` and `becker_check` hold every member once as an integer record
and divide integer s-series.  The reference below is the plain route: the
public `s_series` and `hironaka_divide`, with heads read by `initial_term`
and adjoined members made head-monic.
"""

import heapq
import itertools
import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import recheck_step
from oracles import heads_coprime
from localring import division as DIV
from localring import kernel as K
from localring import order as O
from localring import stdbasis as SB
from localring.errors import (
    DimensionMismatch,
    FormMismatch,
    LocalRingError,
    PrecisionShortfall,
    ZeroUpToPrecision,
)

WEIGHTS = [F(1, 2), F(2, 3), F(1), F(3, 2), F(2)]


def reference_ready(gens, L, mu):
    heads = []
    for g in gens:
        if g.is_zero_up_to_prec:
            raise ZeroUpToPrecision("basis members must be nonzero")
        if not K.prec_at_least(g.prec, mu):
            raise PrecisionShortfall("member certified below mu")
        head, _ = O.initial_term(L, g)
        if O.lvalue(L, head) > mu:
            raise PrecisionShortfall("head beyond the window")
        heads.append(head)
    return heads


def reference_complete(gens, L, mu, use_coprime_skip=True,
                       use_chain_criterion=True):
    """(basis, steps) with steps as (i, j, basis_size, adjoined)."""
    mu = F(mu)
    basis = list(gens)
    heads = reference_ready(basis, L, mu)
    steps, queue, left_queue = [], [], set()

    def push_pairs(j):
        for i in range(j):
            lcm = tuple(map(max, heads[i], heads[j]))
            heapq.heappush(queue, (O.sort_key(L, lcm), i, j, lcm))

    for j in range(len(basis)):
        push_pairs(j)
    while queue:
        _, i, j, lcm = heapq.heappop(queue)
        left_queue |= {(i, j), (j, i)}
        if use_coprime_skip and heads_coprime(heads[i], heads[j]):
            continue
        if use_chain_criterion and any(
                k not in (i, j) and all(map(operator.le, hk, lcm))
                and (i, k) in left_queue and (j, k) in left_queue
                for k, hk in enumerate(heads)):
            continue
        s = SB.s_series(basis[i], basis[j], L)
        if s.is_zero_up_to_prec:
            continue
        division = DIV.hironaka_divide(s, basis, L, mu)
        if division.remainder_is_zero:
            steps.append((i, j, len(basis), None))
            continue
        _, lead = O.initial_term(L, division.remainder)
        basis.append(K.scale(division.remainder, 1 / lead))
        heads.append(O.initial_term(L, basis[-1])[0])
        steps.append((i, j, len(basis) - 1, len(basis) - 1))
        push_pairs(len(basis) - 1)
    return basis, steps


def reference_check(gens, L, mu, use_coprime_skip=True):
    mu = F(mu)
    heads = reference_ready(gens, L, mu)
    statuses = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if use_coprime_skip and heads_coprime(heads[i], heads[j]):
                statuses.append((i, j, "skipped-coprime"))
                continue
            division = DIV.hironaka_divide(SB.s_series(gens[i], gens[j], L),
                                           gens, L, mu)
            statuses.append((i, j, "pass" if division.remainder_is_zero
                             else "fail"))
    return statuses


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except LocalRingError as exc:
        return type(exc)


def rational_multiple(a, b):
    """The nonzero c with a = c * b termwise, or None."""
    if a.terms.keys() != b.terms.keys() or not a.terms:
        return None
    ratios = {a.terms[e] / b.terms[e] for e in a.terms}
    return ratios.pop() if len(ratios) == 1 else None


@st.composite
def ideals(draw):
    """(generators, form, mu): exact or finite-precision generators under
    the standard form or a rational weighted one."""
    n = draw(st.integers(2, 3))
    if draw(st.booleans()):
        L = O.std_form(n)
    else:
        L = O.LinearForm(tuple(draw(st.sampled_from(WEIGHTS)) for _ in range(n)))
    mu = F(draw(st.integers(3, 5)))
    exponent = st.tuples(*([st.integers(0, 3)] * n)).filter(any)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        f = K.series(n, draw(st.dictionaries(exponent, coeff, min_size=1,
                                             max_size=4)))
        if f.terms and draw(st.booleans()):
            # certified to mu or a little beyond: the window drops the rest
            f = K.truncate(f, L, mu + draw(st.sampled_from([0, F(1, 2), 1])))
        if f.terms:
            gens.append(f)
    return tuple(gens), L, mu


def series_data(f):
    return dict(f.terms), f.prec, f.form_ctx


@settings(max_examples=80, deadline=None)
@given(ideals(), st.booleans(), st.booleans())
def test_complete_matches_rational_reference(problem, coprime, chain):
    gens, L, mu = problem
    if not gens:
        return
    got = outcome(SB.complete, K.IdealPresentation(gens[0].n, gens), L, mu,
                  use_coprime_skip=coprime, use_chain_criterion=chain)
    want = outcome(reference_complete, gens, L, mu, coprime, chain)
    if isinstance(want, type):
        assert got is want
        return
    basis, steps = want
    assert [series_data(g) for g in got.gens] == [series_data(g) for g in basis]
    assert got.heads == tuple(O.initial_term(L, g)[0] for g in basis)
    assert [(step.i, step.j, step.basis_size, step.adjoined_index)
            for step in got.completion_steps] == steps
    for step in got.completion_steps:
        recheck_step(got, step)


@settings(max_examples=80, deadline=None)
@given(ideals(), st.booleans())
def test_becker_check_matches_rational_reference(problem, coprime):
    gens, L, mu = problem
    if not gens:
        return
    got = outcome(SB.becker_check, gens, L, mu, use_coprime_skip=coprime)
    want = outcome(reference_check, gens, L, mu, coprime)
    if isinstance(want, type):
        assert got is want
        return
    assert [(p.i, p.j, p.status) for p in got.pair_checks] == want
    assert got.verified == all(status != "fail" for *_, status in want)


@settings(max_examples=60, deadline=None)
@given(ideals())
def test_completion_steps_recheck_through_public_calls(problem):
    gens, L, mu = problem
    if not gens:
        return
    basis = outcome(SB.complete, K.IdealPresentation(gens[0].n, gens), L, mu)
    if isinstance(basis, type):
        return
    for step in basis.completion_steps:
        recheck_step(basis, step)
    assert SB.becker_check(basis.gens, L, mu, use_coprime_skip=False).verified


def test_integer_s_series_is_the_cleared_s_series():
    # 3x^2 + y^3/2 and 2xy/3 - y^4: heads x^2 and xy, integer forms
    # 6x^2 + y^3 and 2xy - 3y^4, so the integer s-series is
    # 2 * y * (y^3) - 6 * x * (-3y^4) = 2y^4 + 18xy^4
    L = O.std_form(2)
    f = K.series(2, {(2, 0): 3, (0, 3): F(1, 2)})
    g = K.series(2, {(1, 1): F(2, 3), (0, 4): -1})
    pk, (rf, rg) = SB._check_ready((f, g), L, F(6))
    lcm = DIV._pack(pk, (2, 1))
    terms, prec = SB._integer_s_series(rf, rg, lcm, pk)
    s = K.series(2, {DIV._unpack(pk, p): c for p, c in terms.items()})
    assert s.terms == {(0, 4): 2, (1, 4): 18}
    assert rational_multiple(s, SB.s_series(f, g, L)) == 6
    assert prec is K.EXACT


@settings(max_examples=80, deadline=None)
@given(ideals())
def test_integer_s_series_cap_is_the_rational_bound(problem):
    # the integer window of every pair is the level cap of the bound that
    # `s_series` computes on Fractions, and the terms agree up to a factor
    gens, L, mu = problem
    ready = outcome(SB._check_ready, gens, L, mu)
    if isinstance(ready, type):
        return
    pk, members = ready
    for i, j in itertools.combinations(range(len(gens)), 2):
        ri, rj = members[i], members[j]
        lcm = DIV._pack(pk, tuple(map(max, ri.alpha, rj.alpha)))
        terms, cap = SB._integer_s_series(ri, rj, lcm, pk)
        s = SB.s_series(gens[i], gens[j], L)
        assert (cap is K.EXACT) == (s.prec is K.EXACT)
        if cap is not K.EXACT:
            assert cap == L.level_cap(s.prec)
            s = K.truncate(s, L, s.prec)
        got = K.series(L.n, {DIV._unpack(pk, p): c for p, c in terms.items()})
        if s.terms:
            assert rational_multiple(got, s)
        else:
            assert not got.terms


def test_member_records_are_checked():
    L = O.std_form(2)
    foreign = K.series(2, {(1, 0): 1}, prec=5, form=O.LinearForm((F(1), F(2))))
    with pytest.raises(FormMismatch):
        SB.complete(K.IdealPresentation(2, (foreign, K.variable(2, 1))), L, 4)
    with pytest.raises(PrecisionShortfall):
        SB.becker_check((K.monomial(2, (5, 0)), K.variable(2, 1)), L, 4)


@pytest.mark.parametrize("exact", [True, False])
def test_dividend_exponent_of_wrong_length_is_refused(exact):
    # the exponents bypass the sanitizing constructor; one of them lies
    # above the window, where a non-exact division never routes it
    L = O.std_form(2)
    terms = {(1, 0): F(1), (9, 0, 0): F(1)}
    F_ = K.PrecisionSeries(2, terms) if exact else \
        K.PrecisionSeries(2, terms, F(12), L)
    with pytest.raises(DimensionMismatch):
        DIV.hironaka_divide(F_, [K.variable(2, 0)], L, 4)
    with pytest.raises(DimensionMismatch):
        DIV.hironaka_divide(K.PrecisionSeries(2, {(1, 0, 0): F(1)}),
                            [K.variable(2, 0)], L, 4)
