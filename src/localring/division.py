"""Hironaka division of a series by a finite list, at a certified precision.

The divisor heads alpha^1..alpha^t cut N^n into regions

    D_1 = alpha^1 + N^n,   D_i = (alpha^i + N^n) \\ (D_1 u ... u D_{i-1}),

plus the complement D.  Division routes every term of the running series to
the quotient of the region its exponent falls in (or to the remainder for
the complement), always processing the order-minimal unprocessed term.  Each
step replaces that term by strictly larger ones, and only finitely many
exponents sit below any L-level, so the loop terminates once the minimal
unprocessed level exceeds the requested bound mu.

Quotients and remainder are unique (the greedy routing is forced), and the
listing order of the divisors is significant: the API never re-sorts it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    PrecisionShortfall,
    ZeroUpToPrecision,
)
from .kernel import EXACT, PrecisionSeries, prec_at_least
from .order import Exponent, LinearForm, initial_term, lvalue, sort_key

#: Region index returned for exponents outside every divisor cone.
COMPLEMENT = None


@dataclass(frozen=True)
class RegionPartition:
    """The translated-cone partition determined by an ordered head list."""

    alphas: tuple

    def region_of(self, beta: Exponent) -> Optional[int]:
        for i, alpha in enumerate(self.alphas):
            if len(alpha) != len(beta):
                raise DimensionMismatch(f"{beta} against head {alpha}")
            if all(b >= a for b, a in zip(beta, alpha)):
                return i
        return COMPLEMENT


def region_of(partition: RegionPartition, beta: Exponent) -> Optional[int]:
    """Index of the unique region containing beta, or COMPLEMENT."""
    return partition.region_of(beta)


@dataclass
class DivisionResult:
    quotients: tuple
    remainder: PrecisionSeries
    certified_prec: Fraction
    partition: RegionPartition

    @property
    def remainder_is_zero(self) -> bool:
        """Zero up to the certified precision of the division."""
        return not self.remainder.terms


def hironaka_divide(F: PrecisionSeries, divisors: Sequence[PrecisionSeries],
                    L: LinearForm, mu) -> DivisionResult:
    """Divide F by the listed series, certified on the window {L <= mu}.

    Every divisor must be nonzero with a certified head, and all inputs must
    certify at least mu.  Unprocessed terms of F (and of intermediate
    combinations) above the window are discarded: the identity
    F = sum Q_i G_i + R holds exactly for all exponents with L <= mu.
    """
    mu = Fraction(mu)
    n = F.n
    if not divisors:
        raise ZeroUpToPrecision("division needs at least one divisor")
    if not prec_at_least(F.prec, mu):
        raise PrecisionShortfall(f"dividend certified to {F.prec}, asked {mu}")
    if F.form_ctx is not None and F.form_ctx != L:
        raise PrecisionShortfall("dividend certified under a different form")
    heads = []
    for g in divisors:
        if g.n != n:
            raise DimensionMismatch("divisor dimension differs from dividend")
        if g.is_zero_up_to_prec:
            raise ZeroUpToPrecision("divisor is zero up to its precision")
        if not prec_at_least(g.prec, mu):
            raise PrecisionShortfall(f"divisor certified to {g.prec}, asked {mu}")
        if g.form_ctx is not None and g.form_ctx != L:
            raise PrecisionShortfall("divisor certified under a different form")
        heads.append(initial_term(L, g))
    partition = RegionPartition(tuple(alpha for alpha, _ in heads))

    work: dict = {}
    heap: list = []

    def put(exp: Exponent, coeff: Fraction):
        s = work.get(exp, Fraction(0)) + coeff
        if s:
            if exp not in work:
                heapq.heappush(heap, (sort_key(L, exp), exp))
            work[exp] = s
        else:
            work.pop(exp, None)

    for e, c in F.terms.items():
        put(e, c)

    quotients: list[dict] = [dict() for _ in divisors]
    remainder: dict = {}
    all_exact = F.prec is EXACT and all(g.prec is EXACT for g in divisors)
    last_key = None

    while heap:
        key, beta = heapq.heappop(heap)
        if beta not in work:
            continue  # stale entry: the term cancelled meanwhile
        if key[0] > mu:
            break
        if last_key is not None and key <= last_key:
            raise InvariantViolation("division made no strict progress in the order")
        last_key = key
        coeff = work.pop(beta)
        i = partition.region_of(beta)
        if i is COMPLEMENT:
            remainder[beta] = coeff
            continue
        alpha, lead = heads[i]
        shift = tuple(b - a for b, a in zip(beta, alpha))
        q = coeff / lead
        quotients[i][shift] = quotients[i].get(shift, Fraction(0)) + q
        for e, c in divisors[i].terms.items():
            if e == alpha:
                continue  # the head term cancels the popped one exactly
            put(tuple(x + y for x, y in zip(shift, e)), -q * c)

    leftovers = bool(work)
    exact = all_exact and not leftovers

    out_q = []
    for i, qterms in enumerate(quotients):
        alpha = partition.alphas[i]
        for e in qterms:  # support certification at emission time
            if partition.region_of(tuple(x + y for x, y in zip(e, alpha))) != i:
                raise InvariantViolation(f"quotient {i} left its region")
        if exact:
            out_q.append(PrecisionSeries(n, qterms))
        else:
            out_q.append(PrecisionSeries(n, qterms, mu - lvalue(L, alpha), L))
    for e in remainder:
        if partition.region_of(e) is not COMPLEMENT:
            raise InvariantViolation("remainder term outside the complement")
    if exact:
        rem = PrecisionSeries(n, remainder)
    else:
        rem = PrecisionSeries(n, remainder, mu, L)
    return DivisionResult(tuple(out_q), rem, mu, partition)
