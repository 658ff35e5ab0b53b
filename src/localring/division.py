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

There is one division loop, and it is fraction-free.  It runs on member
records: each divisor admitted once on the window (`kernel._admit`) and
converted once to a primitive integer multiple with a positive integer head
a, its tail sorted by integer level (see `order`).  A record also carries
the divisor's certified bound, so nothing downstream reads head, level or
bound from the series again.  `hironaka_divide` and standard-basis
completion build the records through `_members`; completion hands each
integer s-series to the same loop.  The running series is held as Python
integers over one common denominator.  Processing a term w (over the
denominator) scales the running series by a / gcd(w, a) when that is not
1, then subtracts w / gcd(w, a) times the shifted integer tail.  A term
above the window is dropped at once unless the division may still turn out
exact.  Rationals are built only for what is emitted: one quotient
coefficient per processed term and one coefficient per remainder term.  By
uniqueness the results equal those of the plain rational loop, and dividing
a rational multiple of a series gives the same multiple of its quotients
and remainder.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import DimensionMismatch, InvariantViolation, ZeroUpToPrecision
from .kernel import EXACT, Prec, PrecisionSeries, _admit
from .order import Exponent, LinearForm

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
            if all(map(operator.ge, beta, alpha)):
                return i
        return COMPLEMENT


class _Member(NamedTuple):
    """A divisor g in integer form: g = (lead / a) * (a x^alpha + tail)."""

    alpha: Exponent  # the head exponent
    level: int  # its integer level
    lead: Fraction  # the head coefficient of g
    a: int  # the positive integer head
    tail: list  # (level, exponent, integer coefficient) by increasing level
    prec: Prec  # the certified bound of g


def _member(g: PrecisionSeries, L: LinearForm) -> _Member:
    """The record of a nonzero series g under L, in its primitive integer
    multiple with a positive head; every exponent must have L's length."""
    n, level = L.n, L.level
    m = math.lcm(*(c.denominator for c in g.terms.values()))
    terms = []
    for e, c in g.terms.items():
        if len(e) != n:
            raise DimensionMismatch(f"exponent {e} vs form on {n} variables")
        lev = level(e)
        terms.append(((lev,) + e[::-1], lev, e, c))
    terms.sort()  # by the order of L, whose keys are distinct
    _, alpha_level, alpha, lead = terms[0]
    ints = [c.numerator * (m // c.denominator) for *_, c in terms]
    content = math.gcd(*ints)
    if ints[0] < 0:
        content = -content
    tail = [(lev, e, c // content)
            for (_, lev, e, _), c in zip(terms[1:], ints[1:])]
    return _Member(alpha, alpha_level, lead, ints[0] // content, tail, g.prec)


def _members(gens: Sequence[PrecisionSeries], L: LinearForm, mu) -> list:
    """The records of divisors or basis members, each admitted once on the
    window {L <= mu}."""
    members = []
    for g in gens:
        if g.is_zero_up_to_prec:
            raise ZeroUpToPrecision(
                "a divisor or basis member is zero up to its precision")
        _admit(g, L, mu)
        members.append(_member(g, L))
    return members


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
    _admit(F, L, mu)
    if any(g.n != n for g in divisors):
        raise DimensionMismatch("divisor dimension differs from dividend")
    if L.n != n:
        raise DimensionMismatch(f"form on {L.n} variables, dividend in {n}")
    members = _members(divisors, L, mu)
    den = math.lcm(*(c.denominator for c in F.terms.values()))
    terms = {e: c.numerator * (den // c.denominator) for e, c in F.terms.items()}
    exact = F.prec is EXACT and all(m.prec is EXACT for m in members)
    return _divide(terms, den, members, L, mu, exact)


def _divide(terms: dict, den: int, members: Sequence[_Member], L: LinearForm,
            mu: Fraction, exact: bool) -> DivisionResult:
    """The division loop: divide {e: terms[e] / den}, with integer
    terms[e], by the member records.

    `exact` says that the dividend and every member are exact.  The
    exponents of the dividend are checked against L here; the members were
    checked when their records were built.
    """
    n = L.n
    alphas = tuple([m.alpha for m in members])
    ge = operator.ge

    def region(beta: Exponent) -> Optional[int]:
        for i, alpha in enumerate(alphas):
            if all(map(ge, beta, alpha)):
                return i
        return COMPLEMENT

    level, cap = L.level, L.level_cap(mu)
    # A term above the window only ever feeds terms above it.  Such terms are
    # kept only in an exact division, to tell whether anything is left over.
    work: dict = {}  # the running series is {e: work[e] / den}
    heap: list = []  # (sort_key(L, e), e) for the terms inside the window
    for e, c in terms.items():
        if len(e) != n:
            raise DimensionMismatch(f"exponent {e} vs form on {n} variables")
        if not c:
            continue
        lev = level(e)
        if lev <= cap:
            heap.append(((lev,) + e[::-1], e))
        elif not exact:
            continue
        work[e] = c
    heapq.heapify(heap)

    quotients: list[dict] = [dict() for _ in members]
    remainder: dict = {}
    last_key = None
    sub, add = operator.sub, operator.add

    while heap:
        key, beta = heapq.heappop(heap)
        w = work.pop(beta, None)
        if w is None:
            continue  # stale entry: the term cancelled meanwhile
        if last_key is not None and key <= last_key:
            raise InvariantViolation("division made no strict progress in the order")
        last_key = key
        i = region(beta)
        if i is COMPLEMENT:
            remainder[beta] = Fraction(w, den)
            continue
        alpha, alpha_level, lead, a, tail, _ = members[i]
        shift = (*map(sub, beta, alpha),)
        quotients[i][shift] = Fraction(w * lead.denominator, den * lead.numerator)
        # subtract w / (den * a) times x^shift times the integer divisor,
        # over the new denominator den * a / g
        g = math.gcd(w, a)
        if g != a:
            factor = a // g
            for e in work:
                work[e] *= factor
            den *= factor
        w //= g
        base = key[0] - alpha_level
        for lev, e, c in tail:
            lev += base
            if lev > cap and not exact:
                break  # the tail is sorted by level
            t = (*map(add, shift, e),)
            v = work.get(t)
            if v is None:
                work[t] = -w * c
                if lev <= cap:
                    heapq.heappush(heap, ((lev,) + t[::-1], t))
            else:
                v -= w * c
                if v:
                    work[t] = v
                else:
                    del work[t]

    exact = exact and not work

    # quotient i is certified to mu - L(alpha_i) = (mu * den - level_i) / den
    top, bottom = mu.numerator * L.den, mu.denominator * L.den
    out_q = []
    for i, qterms in enumerate(quotients):
        alpha = alphas[i]
        for e in qterms:  # support certification at emission time
            if region((*map(add, e, alpha),)) != i:
                raise InvariantViolation(f"quotient {i} left its region")
        if exact:
            out_q.append(PrecisionSeries(n, qterms))
        else:
            bound = Fraction(top - members[i].level * mu.denominator, bottom)
            out_q.append(PrecisionSeries(n, qterms, bound, L))
    for e in remainder:
        if region(e) is not COMPLEMENT:
            raise InvariantViolation("remainder term outside the complement")
    if exact:
        rem = PrecisionSeries(n, remainder)
    else:
        rem = PrecisionSeries(n, remainder, mu, L)
    return DivisionResult(tuple(out_q), rem, mu, RegionPartition(alphas))
