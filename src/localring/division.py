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

There is one division loop, and it holds integers alone.  It runs on
member records: each divisor admitted once on the window (`kernel._admit`)
and converted once to a primitive integer multiple with a positive integer
head a, its tail sorted in the order of L.  A record holds the head
exponent, a, the packed head (whose top bits are the head's level), the
packed integer tail and the level cap of the divisor's certified bound
(EXACT for an exact divisor), so nothing downstream reads head, level or
bound from the series again; it holds no rational.  A series
becomes integer terms here in `_packed`, which writes it as numerators over
the lcm of its denominators (`kernel._numerators`) on packed exponents, and
`_member` builds a record from such terms (`equising._level`, which also
admits a tower level that arrives as a series, and
`diagram.ideal_span_rows` read `kernel._numerators` themselves).
`hironaka_divide` and standard-basis completion build the records through
`_members`, and `equising._weierstrass_polynomial` builds its one record,
of an exact jet, with `_packed` and `_member`; completion hands each
integer s-series to the same loop, and builds the record of an adjoined
remainder straight from the loop's packed output.  The running series is
held as Python integers over one common denominator.  Processing a term w
(over the denominator) scales the running series by a / gcd(w, a) when
that is not 1, then subtracts w / gcd(w, a) times the shifted integer
tail.  The loop reads from its caller's flag for the dividend and the
records' caps whether the division may turn out exact; unless it may, a
term above the window is dropped at once.  Each call lists the routes
(packed head, a, tail, index) of the members once, in list order, and
windows its dividend once; it skips the gcd when a = 1.  A processed term
beta shifts a tail by s = beta - alpha, and the tail is sorted, so the
shifted tail leaves the window at its first term e >= limit - s, where
limit packs the first level above the window: an inexact division reads no
tail past that integer.  The loop builds no rational: a quotient term comes
back as the integer pair (w, den) of the step that routed it, the remainder
as numerators over one denominator.  Only the callers that emit series
build `Fraction`s: `hironaka_divide`, which divides w / den by the head
coefficient of the divisor, `_adjoined` and `equising._prepare`.  A
remainder term is checked against the head tuples, outside every cone, as
it is unpacked.  By uniqueness the results equal those of the plain rational
loop, and dividing a rational multiple of a series gives the same multiple
of its quotients and remainder.

Packed exponents (Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  Inside the loop an
exponent e is one Python int,

    level(e) << n*w  |  e[n-1] << (n-1)*w  |  ...  |  e[0],

with slots of w bits whose top bit, the guard, is zero.  Since the level is
linear in e and every slot holds its component without carry:

- integers compare as `order.sort_key` does: level first, then the
  components from the last one down;
- adding two packed ints packs the sum of the exponents;
- the window test level(e) <= cap is p < (cap + 1) << n*w.  It stays
  exact for a sum whose slots overflowed: a term of level at most cap has
  components that fit (see below), and a term of higher level packs to at
  least (cap + 1) << n*w whatever its slots hold, so the loop may form a sum
  first and drop it by this test;
- beta lies in the cone of alpha exactly when (p_beta - p_alpha) & GUARD is
  0: at the lowest slot where beta_k < alpha_k the subtraction borrows into
  that slot's guard bit, and below it nothing borrows.

The heap holds these ints, routing is a subtract-and-mask over the heads in
list order (so the first dividing head still wins), and exponent tuples are
built only for emitted terms, where the usual checks run on them.

The packing has a second user: `equising` keys the jets of its discriminant
towers by these ints, under the standard form, and relies on the sum and
window-test properties above.  Its Weierstrass preparation is this loop,
run through `_packed`, `_member` and `_divide` as completion runs it.

The slot width.  Let cap be the window's top level, capc = cap //
min(int_weights) and B the largest component of the dividend and of the
divisors as given.  A processed term lies in the window, so its components
are at most capc, and so is every shift beta - alpha it produces.  A member
is a divisor (components at most B) or a remainder adjoined by completion
(its terms were processed, so at most capc); write M = max(B, capc).  Every
term the loop creates is a shift plus a member term, at most capc + M; an
s-series is the same kind of sum (the lcm of two heads in the window, minus
a head, plus a member term).  So one packing with room for capc + M serves a
whole `hironaka_divide`, `complete` or `becker_check` call, including every
member completion adjoins.  Two heads in the window have components at most
capc, so their sum fits as well: completion reads coprime heads off it.
`_pack` checks every component it packs against the slot and raises
`InvariantViolation` if it does not fit.
"""

from __future__ import annotations

import heapq
import math
import operator
from fractions import Fraction
from functools import reduce
from typing import NamedTuple, Optional, Sequence

from .errors import DimensionMismatch, InvariantViolation, ZeroUpToPrecision
from .kernel import EXACT, PrecisionSeries, _admit, _numerators
from .order import Exponent, LinearForm, lvalue

#: Region index returned for exponents outside every divisor cone.
COMPLEMENT = None


class RegionPartition(NamedTuple):
    """The translated-cone partition determined by an ordered head list."""

    alphas: tuple

    def region_of(self, beta: Exponent) -> Optional[int]:
        """The index of the first head whose cone holds beta, or COMPLEMENT."""
        for i, alpha in enumerate(self.alphas):
            if len(alpha) != len(beta):
                raise DimensionMismatch(f"{beta} against head {alpha}")
            if all(map(operator.ge, beta, alpha)):
                return i
        return COMPLEMENT


class _Packing(NamedTuple):
    """How exponents in n variables are packed into ints (module docstring)."""

    n: int
    width: int  # bits per slot, the guard bit included
    weights: tuple  # the integer weights of the form
    top: int  # the largest component a slot holds
    guard: int  # the guard bit of every slot
    shift: int  # n * width, the position of the level


def _packing(L: LinearForm, mu, series: Sequence[PrecisionSeries]) -> _Packing:
    """The packing for a computation on the window {L <= mu} whose dividend
    and divisors are among `series`."""
    return _slots(L, mu, max([max(e, default=0) for f in series
                              for e in f.terms], default=0))


def _slots(L: LinearForm, mu, B: int) -> _Packing:
    """The packing for the window {L <= mu} of exponents whose components
    are at most B: slots with room for capc + max(B, capc) (module
    docstring)."""
    n = L.n
    capc = max(L.level_cap(mu), 0) // min(L.int_weights)
    width = (capc + max(B, capc)).bit_length() + 1
    guard = 0
    for k in range(n):
        guard |= 1 << (k * width + width - 1)
    return _Packing(n, width, L.int_weights, (1 << (width - 1)) - 1, guard,
                    n * width)


def _pack(pk: _Packing, e: Exponent) -> int:
    """The packed exponent e; every component must fit its slot."""
    if len(e) != pk.n:
        raise DimensionMismatch(f"exponent {e} vs form on {pk.n} variables")
    width, top = pk.width, pk.top
    p = sum(map(operator.mul, pk.weights, e))
    for c in reversed(e):
        if not 0 <= c <= top:
            raise InvariantViolation(
                f"component {c} of {e} does not fit a {width}-bit slot")
        p = p << width | c
    return p


def _unpack(pk: _Packing, p: int) -> Exponent:
    """The exponent tuple of a packed exponent (its level is dropped)."""
    width, mask = pk.width, (1 << pk.width) - 1
    return (*[p >> (k * width) & mask for k in range(pk.n)],)


class _Member(NamedTuple):
    """A divisor g in integer form: g is a rational multiple of
    a x^alpha + tail.  The head's level is that of the packed head, and the
    rational factor is read from g by the one caller that emits quotients,
    `hironaka_divide`."""

    alpha: Exponent  # the head exponent
    a: int  # the positive integer head
    head: int  # the packed head exponent
    tail: list  # (packed exponent, integer coefficient) in increasing order
    cap: Optional[int]  # the level cap of g's certified bound, or EXACT


def _member(terms: dict, cap: Optional[int], pk: _Packing) -> _Member:
    """The record of a nonzero series with integer terms[p] on packed
    exponents p (over any denominator), certified to the levels <= cap
    (EXACT when it is exact): its primitive integer multiple with a
    positive head."""
    # packed exponents are distinct, so the sort never compares coefficients
    (head, w0), *rest = sorted(terms.items())
    content = reduce(math.gcd, terms.values())
    if w0 < 0:
        content = -content
    return _Member(_unpack(pk, head), w0 // content, head,
                   [(p, c // content) for p, c in rest], cap)


def _members(gens: Sequence[PrecisionSeries], L: LinearForm, mu,
             pk: _Packing) -> list:
    """The records of divisors or basis members, each admitted once on the
    window {L <= mu}."""
    members = []
    for g in gens:
        if g.is_zero_up_to_prec:
            raise ZeroUpToPrecision(
                "a divisor or basis member is zero up to its precision")
        _admit(g, L, mu)
        cap = EXACT if g.prec is EXACT else L.level_cap(g.prec)
        members.append(_member(_packed(g, pk)[0], cap, pk))
    return members


def _packed(f: PrecisionSeries, pk: _Packing) -> tuple:
    """(terms, den): f = {p: terms[p] / den} on packed exponents p; every
    exponent must have the packing's length."""
    ints, den = _numerators(f)
    return {_pack(pk, e): c for e, c in ints.items()}, den


class DivisionResult(NamedTuple):
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
    Every emitted exponent is checked against its region.
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
    pk = _packing(L, mu, [F, *divisors])
    members = _members(divisors, L, mu, pk)
    terms, den = _packed(F, pk)
    quotients: list[dict] = [dict() for _ in members]
    rem, den, exact = _divide(terms, den, F.prec is EXACT, members, pk,
                              L.level_cap(mu), quotients)
    add = operator.add
    partition = RegionPartition(tuple([m.alpha for m in members]))
    out_q = []
    for i, (packed, m, g) in enumerate(zip(quotients, members, divisors)):
        # a term w over den comes back as the quotient term (w / den) / lead
        # of g, lead the head coefficient of g
        lead = g.terms[m.alpha]
        qterms = {}
        for s, (w, d) in packed.items():
            e = _unpack(pk, s)
            if partition.region_of((*map(add, e, m.alpha),)) != i:
                raise InvariantViolation(f"quotient {i} left its region")
            qterms[e] = Fraction(w * lead.denominator, d * lead.numerator)
        bound = EXACT if exact else mu - lvalue(L, m.alpha)
        out_q.append(PrecisionSeries(n, qterms, bound, L))
    remainder = _remainder(rem, den, pk, partition.alphas)
    rem_series = PrecisionSeries(n, remainder, EXACT if exact else mu, L)
    return DivisionResult(tuple(out_q), rem_series, mu, partition)


def _remainder(rem: dict, den: int, pk: _Packing,
               alphas: Sequence[Exponent]) -> dict:
    """{exponent: rem[p] / den} for a packed remainder, every term checked,
    as it is unpacked, to lie outside the heads' cones (the packing fixes
    the length of every exponent, so no length is compared)."""
    ge = operator.ge
    out = {}
    for p, w in rem.items():
        e = _unpack(pk, p)
        for alpha in alphas:
            if all(map(ge, e, alpha)):
                raise InvariantViolation(
                    "remainder term outside the complement")
        out[e] = Fraction(w, den)
    return out


def _adjoined(rem: dict, exact: bool, members: Sequence[_Member],
              pk: _Packing, L: LinearForm, mu: Fraction) -> tuple:
    """(series, record) of the head-monic multiple of a nonzero remainder
    {p: rem[p] / den} returned by `_divide`, with the exactness it returned.
    That multiple is {p: rem[p] / w0} for the head numerator w0, so the
    record is built from the packed remainder itself."""
    w0 = next(iter(rem.values()))  # `_divide` emits in increasing order
    terms = _remainder(rem, w0, pk, [m.alpha for m in members])
    prec, cap = (EXACT, EXACT) if exact else (mu, L.level_cap(mu))
    return PrecisionSeries(L.n, terms, prec, L), _member(rem, cap, pk)


def _divide(terms: dict, den: int, exact: bool, members: Sequence[_Member],
            pk: _Packing, cap: int, quotients: Optional[list] = None) -> tuple:
    """The division loop: divide {p: terms[p] / den}, with packed exponents
    p and integer terms[p], by the member records, on the levels <= cap.
    `exact` says whether the dividend is exact.

    Returns (remainder, den, exact): the remainder maps packed exponents, in
    increasing order, to integer numerators over the returned den, and exact
    says whether the division is exact: the dividend and every member are
    exact, and nothing is left above the window.  With `quotients`, a list
    of one dict per member, quotient i gets {packed shift: (w, d)}: the
    term w / d of the running series routed to member i, over the
    denominator d of that step.  The quotient term of a divisor whose head
    coefficient is c is w / (d * c).  Without it no quotient is built.
    """
    exact = exact and all(m.cap is EXACT for m in members)
    limit = (cap + 1) << pk.shift  # p < limit exactly when level(p) <= cap
    guard = pk.guard
    # the routes in list order, so the first dividing head wins
    routes = [(m.head, m.a, m.tail, i) for i, m in enumerate(members)]
    # A term above the window only ever feeds terms above it.  Such terms are
    # kept only in an exact division, to tell whether anything is left over;
    # it reads every tail to its end, and each tail term lies below `reach`.
    reach = 1 + max([m.tail[-1][0] for m in members if m.tail], default=0)
    work = {p: c for p, c in terms.items() if c and (exact or p < limit)}
    heap = [p for p in work if p < limit]  # the terms inside the window
    heapq.heapify(heap)

    remainder: dict = {}
    last = -1  # packed exponents are nonnegative
    heappop, heappush, gcd = heapq.heappop, heapq.heappush, math.gcd

    while heap:
        beta = heappop(heap)
        w = work.pop(beta, None)
        if w is None:
            continue  # stale entry: the term cancelled meanwhile
        if beta <= last:
            raise InvariantViolation("division made no strict progress in the order")
        last = beta
        for head, a, tail, i in routes:
            if not (beta - head) & guard:
                break
        else:
            remainder[beta] = w
            continue
        shift = beta - head
        if quotients is not None:
            quotients[i][shift] = (w, den)
        # subtract w / (den * a) times x^shift times the integer divisor,
        # over the new denominator den * a / g
        if a != 1:
            g = gcd(w, a)
            if g != a:
                factor = a // g
                for p in work:
                    work[p] *= factor
                for p in remainder:
                    remainder[p] *= factor
                den *= factor
            w //= g
        # shift + e lies above the window exactly when e >= limit - shift
        edge = reach if exact else limit - shift
        for e, c in tail:
            if e >= edge:
                break  # the tail is sorted by level
            t = shift + e
            v = work.get(t)
            if v is None:
                work[t] = -w * c
                if t < limit:
                    heappush(heap, t)
            else:
                v -= w * c
                if v:
                    work[t] = v
                else:
                    del work[t]

    return remainder, den, exact and not work
