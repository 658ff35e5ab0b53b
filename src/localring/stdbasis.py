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

Completion and `becker_check` choose one exponent packing per call (see
`division`: it has room for every member completion can adjoin, and it
records the window's top level), admit and convert each member once, when
it enters the basis, into the integer record of `division` (head,
primitive integer head a, packed head, packed integer tail in increasing
order and the level cap of its certified bound), and read heads, levels
and caps from the records and the window from the packing: a level is the
top bits of a packed head, and a head lies in the window when it packs
below the packing's `limit`.  An adjoined member's record is built from
the packed integer remainder itself, with the packing's cap when it is
inexact, and the division loop alone decides exactness.  The s-series of
members i and j is formed on integers and packed exponents,

    a_j x^(m - alpha_i) tail_i - a_i x^(m - alpha_j) tail_j,

windowed to the same bound as `s_series(g_i, g_j)`, and divided by the one
division loop over denominator 1.  That bound is the least r.prec + L(m -
alpha_r) over the inexact members r of the pair, and since floor(x * den +
k) = floor(x * den) + k for an integer k, its level cap is the least

    cap_r + level(m) - level(alpha_r)

on integers, with cap_r the record's cap and level(m) - level(alpha_r) the
level of the packed shift m - alpha_r: no rational is formed per pair.
It is a nonzero rational multiple of `s_series(g_i, g_j)`, so by linearity
and uniqueness of division its remainder is the same multiple of that
s-series' remainder: the pair statuses, the adjoined head-monic members and
the staircases are those of the rational computation.

Completion prunes pairs by Buchberger's chain criterion in the form of
Gebauer and Moeller (1988): the pair (i, j) is skipped when another head h_k
divides m_ij = lcm(h_i, h_j) and the pairs (i, k) and (j, k) have both left
the queue, whether they were divided, skipped as coprime, found zero up to
their precision or skipped by this rule.  Every pair that leaves the queue
has a representation s_ij = sum q_l g_l + r over the final basis in which r
is zero up to mu and every q_l g_l has initial exponent strictly above m_ij
(a divided pair: the division quotients, plus the adjoined remainder if
any).  With c the head coefficients,

    c_k s_ij = c_j x^(m_ij - m_ik) s_ik - c_i x^(m_ij - m_jk) s_jk,

and multiplying by a monomial keeps both properties, since the order is
compatible with multiplication and a shift only raises levels, so terms
beyond mu stay beyond mu.  A skipped pair therefore has such a
representation too.  Representations with every term above m_ij are all
the s-series criterion asks for, and the argument uses nothing of the order
beyond its compatibility with multiplication and the finiteness of the
window, so it holds for the local and weighted orders used here.  Pairs
leave the queue in non-decreasing order of m_ij (every adjoined head lies
above the lcm whose s-series produced it), so a skip rests only on pairs
that left before it, and three pairs sharing one lcm cannot excuse each
other.

Both criteria are read from packed heads, not from exponent tuples.  Two
heads are coprime (Buchberger's product criterion) exactly when their lcm is
their sum, and on packed heads that is the integer test m_ij == h_i + h_j:
both heads lie in the window, so their components are at most capc (the
window's top level over the least integer weight), and the packing gives
every slot room for 2 * capc (see `division`), so the packed sum carries
into no other slot.  Each member i also has the set
left[i] of the partners k whose pair (i, k) has left the queue, so the
candidates of the chain criterion are left[i] & left[j], and h_k divides the
packed lcm when subtracting the packed head borrows into no guard bit.

The criterion keeps the staircase but not the basis: a skipped pair might
have adjoined a redundant member.  `sbasis complete` prints the heads, the
adjoined members and the number of steps as frozen JSON, so the command
line turns the criterion off there and nowhere else.

Steps as records.  Completion asks the division loop for the remainder
only: it builds no quotients and no `DivisionResult`.  A `CompletionStep`
records the pair, the basis size and the adjoined index, and its docstring
says how to re-check it through the public `s_series` and
`hironaka_divide`.
"""

from __future__ import annotations

import heapq
import operator
from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .division import _adjoined, _divide, _members, _pack, _Packing, _packing
from .errors import BudgetExceeded, PrecisionShortfall
from .kernel import (
    EXACT,
    IdealPresentation,
    PrecisionSeries,
    mul_monomial,
    sub,
)
from .order import LinearForm, initial_term


class PairCheck(NamedTuple):
    i: int
    j: int
    status: str  # "pass" | "fail" | "skipped-coprime"


class CompletionStep(NamedTuple):
    """One s-series reduction performed during completion: the pair (i, j)
    of members, the number of members it was divided by, and the index of
    the member it adjoined, or None.

    Re-check it with public calls.  With B the completed basis, L its form
    and mu its window,

        hironaka_divide(s_series(B[i], B[j], L), B[:basis_size], L, mu)

    leaves a remainder whose head-monic multiple is B[adjoined_index], or,
    when adjoined_index is None, a remainder that is zero up to mu.
    Completion divided a nonzero rational multiple of that s-series (module
    docstring), and Hironaka division is unique, so this is the remainder
    it used, up to a rational factor.
    """

    i: int
    j: int
    basis_size: int
    adjoined_index: Optional[int]


class CertifiedBasis(NamedTuple):
    """`heads` are the members' head exponents under `form`."""

    gens: tuple
    form: LinearForm
    mu: Fraction
    verified: bool
    heads: tuple
    pair_checks: tuple = ()
    completion_steps: tuple = ()


def s_series(F: PrecisionSeries, G: PrecisionSeries, L: LinearForm) -> PrecisionSeries:
    """Head-cancelling combination: g_G x^(c-bF) F - f_F x^(c-bG) G.

    c is the componentwise max (lcm of the head monomials); the result's
    head, if any, strictly exceeds c in the order.
    """
    bF, cF = initial_term(L, F)
    bG, cG = initial_term(L, G)
    lcm = (*map(max, bF, bG),)
    left = mul_monomial(F, (*map(operator.sub, lcm, bF),), cG)
    right = mul_monomial(G, (*map(operator.sub, lcm, bG),), cF)
    return sub(left, right)


def _check_ready(gens: Sequence[PrecisionSeries], L: LinearForm, mu) -> tuple:
    """(packing, records) of the members, once they are admitted and their
    heads lie in the window."""
    pk = _packing(L, mu, gens)
    members, limit = _members(gens, L, mu, pk), pk.limit
    for m in members:
        if m.head >= limit:  # its level is above the window
            raise PrecisionShortfall(
                f"head {m.alpha} lies beyond the verification window {mu}")
    return pk, members


def _integer_s_series(ri, rj, lcm: int, pk: _Packing) -> tuple:
    """(terms, cap): the s-series of two members from their records and the
    packed lcm of their heads.

    terms maps packed exponents to the integer coefficients of
    a_j x^(m - alpha_i) tail_i - a_i x^(m - alpha_j) tail_j, kept on the
    levels <= cap, the level cap of the bound of `s_series(g_i, g_j, L)`
    (EXACT when that is exact).  That cap is the s-series' own bound, not
    the packing's window, so its limit is formed here.
    """
    # the shift lcm - alpha raises every level by level(lcm) - level(alpha),
    # the level of the packed shift
    cap = min([r.cap + ((lcm - r.head) >> pk.shift) for r in (ri, rj)
               if r.cap is not EXACT], default=EXACT)
    limit = None if cap is EXACT else (cap + 1) << pk.shift
    terms: dict = {}
    for shift, tail, c in ((lcm - ri.head, ri.tail, rj.a),
                           (lcm - rj.head, rj.tail, -ri.a)):
        if limit is not None:  # keep the terms with shift + e < limit
            tail = tail[:bisect_left(tail, (limit - shift,))]
        for e, v in tail:
            t = shift + e
            v = terms.get(t, 0) + c * v
            if v:
                terms[t] = v
            else:
                del terms[t]
    return terms, cap


def becker_check(gens: Sequence[PrecisionSeries], L: LinearForm, mu,
                 use_coprime_skip: bool = True) -> CertifiedBasis:
    """Pairwise s-series criterion at precision mu.

    With `use_coprime_skip` the relatively-prime-heads pairs are accepted
    without division; pass False to cross-validate by reducing every pair.
    """
    mu = Fraction(mu)
    gens = tuple(gens)
    pk, members = _check_ready(gens, L, mu)
    checks = []
    verified = True
    for i, ri in enumerate(members):
        for j in range(i + 1, len(gens)):
            rj = members[j]
            lcm = _pack(pk, (*map(max, ri.alpha, rj.alpha),))
            if use_coprime_skip and lcm == ri.head + rj.head:
                checks.append(PairCheck(i, j, "skipped-coprime"))
                continue
            terms, scap = _integer_s_series(ri, rj, lcm, pk)
            ok = not terms or not _divide(terms, 1, scap is EXACT, members,
                                          pk)[0]
            checks.append(PairCheck(i, j, "pass" if ok else "fail"))
            verified = verified and ok
    return CertifiedBasis(gens, L, mu, verified,
                          heads=tuple([m.alpha for m in members]),
                          pair_checks=tuple(checks))


def complete(I: IdealPresentation, L: LinearForm, mu,
             use_coprime_skip: bool = True,
             use_chain_criterion: bool = True,
             max_adjoined: int = 10000) -> CertifiedBasis:
    """Close the generator list under the s-series criterion at precision mu.

    Adjoined elements are head-monic remainders, each an explicit ideal
    combination of earlier members (recorded in `completion_steps`; see
    `CompletionStep` for how to re-check each one).  By the low-level
    stability of staircases under jet truncation, the resulting head set
    generates the true staircase of the ideal on {L <= mu}.  Monomial-ideal
    inputs come back unchanged.  `use_chain_criterion` skips pairs by the
    chain criterion (module docstring); it keeps the staircase, but may
    adjoin fewer members and record fewer steps.
    """
    mu = Fraction(mu)
    basis = list(I.gens)
    pk, members = _check_ready(basis, L, mu)
    guard = pk.guard
    left: list = [set() for _ in members]  # left[i]: k with (i, k) popped
    steps = []
    queue: list = []

    def push_pairs(j: int):
        hj = members[j].alpha
        for i in range(j):
            # packed exponents sort as `order.sort_key` does
            lcm = _pack(pk, (*map(max, members[i].alpha, hj),))
            heapq.heappush(queue, (lcm, i, j))

    for j in range(len(basis)):
        push_pairs(j)

    adjoined = 0
    while queue:
        lcm, i, j = heapq.heappop(queue)
        left[i].add(j)
        left[j].add(i)
        if use_coprime_skip and lcm == members[i].head + members[j].head:
            continue
        # the chain criterion: h_k divides the lcm when subtracting it
        # borrows into no guard bit
        if use_chain_criterion and any(not (lcm - members[k].head) & guard
                                       for k in left[i] & left[j]):
            continue
        terms, scap = _integer_s_series(members[i], members[j], lcm, pk)
        if not terms:
            continue
        rem, _, exact = _divide(terms, 1, scap is EXACT, members, pk)
        if not rem:
            steps.append(CompletionStep(i, j, len(basis), None))
            continue
        adjoined += 1
        if adjoined > max_adjoined:
            exc = BudgetExceeded(
                f"completion adjoined more than {max_adjoined} elements")
            exc.partial = CertifiedBasis(
                tuple(basis), L, mu, False,
                heads=tuple([m.alpha for m in members]),
                completion_steps=tuple(steps))
            raise exc
        series, member = _adjoined(rem, exact, members, pk, L, mu)
        basis.append(series)
        members.append(member)
        left.append(set())
        steps.append(CompletionStep(i, j, len(basis) - 1, len(basis) - 1))
        push_pairs(len(basis) - 1)

    return CertifiedBasis(tuple(basis), L, mu, True,
                          heads=tuple([m.alpha for m in members]),
                          completion_steps=tuple(steps))
