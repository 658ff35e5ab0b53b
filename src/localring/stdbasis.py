"""s-series, standard representations, and certified standard bases.

A finite set is a standard basis of the ideal it generates exactly when
every pairwise s-series admits a standard representation; here that test is
run through Hironaka division at a fixed precision mu, so a passing set is
"mu-certified": its heads generate the true staircase on the window
{L <= mu}, and nothing is claimed beyond.

Completion is a closure of the same criterion: any s-series with a nonzero
remainder gets its (head-monic) remainder adjoined.  At fixed mu this always
terminates, since every adjoined head is a remainder term, hence lies both
in the window and outside all earlier head cones, and only finitely many
exponents qualify.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .division import DivisionResult, hironaka_divide
from .errors import BudgetExceeded, PrecisionShortfall, ZeroUpToPrecision
from .kernel import (
    EXACT,
    IdealPresentation,
    PrecisionSeries,
    mul_monomial,
    prec_at_least,
    scale,
    sub,
)
from .order import LinearForm, initial_term, lvalue, sort_key


@dataclass(frozen=True)
class PairCheck:
    i: int
    j: int
    status: str  # "pass" | "fail" | "skipped-coprime"


@dataclass(frozen=True)
class CompletionStep:
    """One s-series reduction performed during completion.

    Keeps enough data to re-verify that the adjoined element is an explicit
    ideal combination: s = sum(quotients * basis) + remainder, and the
    adjoined element is the remainder made head-monic.
    """

    i: int
    j: int
    s: PrecisionSeries
    division: DivisionResult
    basis_size: int
    adjoined_index: Optional[int]


@dataclass
class CertifiedBasis:
    gens: tuple
    form: LinearForm
    mu: Fraction
    verified: bool
    pair_checks: tuple = ()
    completion_steps: tuple = ()

    @property
    def heads(self) -> tuple:
        return tuple(initial_term(self.form, g)[0] for g in self.gens)


def s_series(F: PrecisionSeries, G: PrecisionSeries, L: LinearForm) -> PrecisionSeries:
    """Head-cancelling combination: g_G x^(c-bF) F - f_F x^(c-bG) G.

    c is the componentwise max (lcm of the head monomials); the result's
    head, if any, strictly exceeds c in the order.
    """
    bF, cF = initial_term(L, F)
    bG, cG = initial_term(L, G)
    lcm = tuple(max(a, b) for a, b in zip(bF, bG))
    left = mul_monomial(F, tuple(c - b for c, b in zip(lcm, bF)), cG)
    right = mul_monomial(G, tuple(c - b for c, b in zip(lcm, bG)), cF)
    return sub(left, right)


def heads_coprime(a, b) -> bool:
    """Disjoint supports: lcm == product, Buchberger's product criterion."""
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def has_standard_representation(F: PrecisionSeries, basis: Sequence[PrecisionSeries],
                                L: LinearForm, mu) -> tuple[bool, DivisionResult]:
    """Does F reduce to zero (up to mu) against the basis?

    The division quotients automatically satisfy the initial-exponent
    inequality of a standard representation, because support regions force
    inexp(Q_i G_i) >= inexp(F).  An exactly-zero F (and any F that is zero
    up to mu) passes by the convention inexp(F) < inexp(0).
    """
    if F.is_zero_up_to_prec:
        return True, None
    result = hironaka_divide(F, basis, L, mu)
    return result.remainder_is_zero, result


def _check_ready(gens: Sequence[PrecisionSeries], L: LinearForm, mu) -> list:
    heads = []
    for g in gens:
        if g.is_zero_up_to_prec:
            raise ZeroUpToPrecision("basis members must be nonzero")
        if not prec_at_least(g.prec, mu):
            raise PrecisionShortfall(f"member certified to {g.prec}, asked {mu}")
        head, _ = initial_term(L, g)
        if lvalue(L, head) > mu:
            raise PrecisionShortfall(
                f"head {head} lies beyond the verification window {mu}")
        heads.append(head)
    return heads


def becker_check(gens: Sequence[PrecisionSeries], L: LinearForm, mu,
                 use_coprime_skip: bool = True) -> CertifiedBasis:
    """Pairwise s-series criterion at precision mu.

    With `use_coprime_skip` the relatively-prime-heads pairs are accepted
    without division; pass False to cross-validate by reducing every pair.
    """
    mu = Fraction(mu)
    gens = tuple(gens)
    heads = _check_ready(gens, L, mu)
    checks = []
    verified = True
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if use_coprime_skip and heads_coprime(heads[i], heads[j]):
                checks.append(PairCheck(i, j, "skipped-coprime"))
                continue
            ok, _ = has_standard_representation(
                s_series(gens[i], gens[j], L), gens, L, mu)
            checks.append(PairCheck(i, j, "pass" if ok else "fail"))
            verified = verified and ok
    return CertifiedBasis(gens, L, mu, verified, tuple(checks))


def _monic(f: PrecisionSeries, L: LinearForm) -> PrecisionSeries:
    _, lead = initial_term(L, f)
    return scale(f, Fraction(1) / lead)


def complete(I: IdealPresentation, L: LinearForm, mu,
             use_coprime_skip: bool = True,
             max_adjoined: int = 10000) -> CertifiedBasis:
    """Close the generator list under the s-series criterion at precision mu.

    Adjoined elements are head-monic remainders, each an explicit ideal
    combination of earlier members (recorded in `completion_steps`).  By the
    low-level stability of staircases under jet truncation, the resulting
    head set generates the true staircase of the ideal on {L <= mu}.
    Monomial-ideal inputs come back unchanged.
    """
    mu = Fraction(mu)
    basis = list(I.gens)
    heads = _check_ready(basis, L, mu)
    steps = []
    queue: list = []

    def push_pairs(j: int):
        hj = heads[j]
        for i in range(j):
            lcm = tuple(max(a, b) for a, b in zip(heads[i], hj))
            heapq.heappush(queue, (sort_key(L, lcm), i, j))

    for j in range(len(basis)):
        push_pairs(j)

    adjoined = 0
    while queue:
        _, i, j = heapq.heappop(queue)
        if use_coprime_skip and heads_coprime(heads[i], heads[j]):
            continue
        s = s_series(basis[i], basis[j], L)
        if s.is_zero_up_to_prec:
            continue
        division = hironaka_divide(s, basis, L, mu)
        if division.remainder_is_zero:
            steps.append(CompletionStep(i, j, s, division, len(basis), None))
            continue
        adjoined += 1
        if adjoined > max_adjoined:
            exc = BudgetExceeded(
                f"completion adjoined more than {max_adjoined} elements")
            exc.partial = CertifiedBasis(tuple(basis), L, mu, False,
                                         completion_steps=tuple(steps))
            raise exc
        basis.append(_monic(division.remainder, L))
        heads.append(initial_term(L, basis[-1])[0])
        steps.append(CompletionStep(i, j, s, division, len(basis) - 1,
                                    len(basis) - 1))
        push_pairs(len(basis) - 1)

    return CertifiedBasis(tuple(basis), L, mu, True,
                          completion_steps=tuple(steps))
