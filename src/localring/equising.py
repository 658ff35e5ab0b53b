"""Generalized discriminants, Weierstrass preparation, and discriminant
towers of distinguished polynomials.

The j-th generalized discriminant of a monic degree-p polynomial
X^p + a_{p-1} X^{p-1} + ... + a_0 with roots T_1..T_p is the symmetric
function

    D_j = sum over (j-1)-subsets R of the root indices of
          prod over ordered pairs (k, l), k != l, k, l not in R, of (T_k - T_l).

The pattern D_1 = ... = D_j = 0, D_{j+1} != 0 says the polynomial has
exactly p - j distinct roots.  With m = p - j + 1 and the power sums
s_k = T_1^k + ... + T_p^k, Cauchy-Binet on the Vandermonde matrix gives

    D_j = (-1)^(m(m-1)/2) det[s_{a+b}]_{0 <= a, b < m},

a signed leading principal minor of one Hankel matrix.  The tower path
evaluates every D_j this way: Newton's identities give the power sums from
the coefficients, and one Berkowitz pass gives all the minors.  Both steps
are division-free, so they run on integers: scaling the roots by the lcm d
of the coefficient denominators makes the coefficients integral and
multiplies the m x m minor by d^(m(m-1)), which is divided out at the end.
The pass reads the polynomial once, split by the degree in its last
variable.  Numbers and truncated power series take the same loop, with no
degree cap, both as integer jets: a number is a jet in zero variables.

The pass skips work whose result it knows.  Berkowitz step r needs
c.H^k c for k < r, H the leading r x r block and c the next column.  (a)
Once v_j = H^j c is zero, so is every later v_j and c.H^k c, and the step
stops.  (b) H is symmetric, so c.H^k c = v_{k//2} . v_{(k+1)//2}, and half
the matrix-vector products suffice.  (c) No product is formed whose value
is known: the step's Toeplitz update adds t_k * char_r[i - k] only for the
nonzero t_k with k >= 1 to char_r[i] itself (t_0 = 1), and Newton's
identities pair only the nonzero coefficients and add k * c_k as a scaled
copy.  (a)-(c) are identities in every commutative ring, truncation to
the window is a ring map onto Q[x]/m^(mu+1), and so the minors are those
of the full pass.  (d) Minors that vanish on the window are not formed.
With w_i the lowest degree of a_i, the orders of the roots (Newton-Puiseux,
in t after x -> t x) are read off the lower Newton polygon of the points
(i, w_i) and (p, 0): an edge of width l and slope -theta carries l roots of
order theta, and the roots left of the polygon, one per zero a_i below its
first vertex, are zero, of infinite order.  D_j sums products of the
m(m-1) ordered differences of m roots, and T_k - T_l has order at least
min(theta_k, theta_l), so with theta_(1) <= theta_(2) <= ... it is zero on
the window once 2 * sum_{a <= m} (m - a) theta_(a) exceeds the window's top
degree.  The orders are scaled by p! to integers.  When only the 1 x 1
minor reaches the window, as for y^p, D_p = s_0 = p is returned with no
Newton or Berkowitz step.

The discriminants run on integer jets {packed exponent: coefficient}
truncated to the window.  The exponents are packed into ints as `division`
packs them (Monagan and Pearce), under the standard form, where the packed
level is the total degree: a product term is the sum of two ints, and one
compare with (top + 1) << shift tests its degree.  The jets are multiplied
with one degree-truncated product, `_jet_dot`, and only the minor a tower
keeps is unpacked and built as `Fraction`s.  A tower hands each step the
integers the last one holds, so no polynomial is built as `Fraction`s only
to be re-read: `_ensure_regular` passes on the mu-jets it truncated to
test regularity, with their orders; `_weierstrass_polynomial` returns the
prepared polynomial as integer numerators over a denominator in lowest
terms; the top level, the product of the prepared generators, is the
kernel's windowed integer product of their numerators (`_prepared_product`
by `kernel._int_product`), no term above the window formed; and a prepared
discriminant's integers are the next level's, its x_i-order the next
level's degree.  A `Fraction` is built only for a polynomial the tower
keeps, one per term.
A level (`_Level`) is read for the pass (`_level_jets`) in one sweep of
its numerators over any common denominator d, since the minors are scaled
back by the same d.  A level that arrives as a series is admitted once,
where its `_numerators` are taken (`_level`); the levels a tower builds
lie on the window by construction.  The read skips a term above the
window before packing: every packing here is the window's own.

Weierstrass preparation is Weierstrass division, that is Hironaka division
by one series under a form that makes x_i^p its head (Grauert and Remmert;
Greuel and Pfister, *A Singular Introduction to Commutative Algebra*,
section 6.2): it runs on the division loop of `division`, and the kernel
only checks the prepared identity u * P = j on the window, j the jet.
When x_i^p divides every term of j, as for every univariate j, P = x_i^p
and u = j / x_i^p, with no division.  This is exact: j = x_i^p * v with
v(0) != 0, so v is a unit and uniqueness gives P = x_i^p.  When j is
already distinguished, x_i^p plus terms of x_i-degree below p (off the
x_i-axis, by the choice of p), P = j and u = 1 by the same uniqueness, again
with no division.  `_weierstrass_polynomial` takes j already truncated and
its x_i-order p, and truncates nothing and recomputes no order; it checks
every term of the remainder to lie outside the cone of x_i^p.  The public
`weierstrass_prepare` truncates its input once, and the unit divides the
jet packed once for P's division.  The check u * P = j runs on every call.

The tower construction iterates: prepare the input list to distinguished
form in the last variable, take the product, locate the first discriminant
that is not identically zero (up to the working precision), and Weierstrass-
prepare it to get the next, lower-dimensional, distinguished polynomial;
a surviving unit discriminant ends the tower with constant levels.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Optional, Sequence

from . import linalg
from .division import (
    _Packing,
    _divide,
    _member,
    _packed,
    _slots,
    _unpack,
)
from .errors import (
    DimensionMismatch,
    FormMismatch,
    InvariantViolation,
    NotRegular,
    PrecisionShortfall,
    PresentationError,
)
from .kernel import (
    EXACT,
    PrecisionSeries,
    _admit,
    _as_fraction,
    _int_product,
    _numerators,
    agrees_up_to,
    mul,
    prec_min,
    substitute_linear,
    truncate,
)
from .order import LinearForm, std_form

#: Seeded coordinate changes `_ensure_regular` samples before giving up.
COORDINATE_CHANGE_RETRIES = 25


def _jet_dot(pairs, limit: int, start: Optional[dict] = None) -> dict:
    """`start` plus the sum of the products a * b over pairs of jets
    {packed exponent: coefficient}, keeping only the terms packed below
    `limit`; `start` must already lie below it.

    The exponents are packed as in `division`, under the standard form, so
    the packed level is the total degree: a product term packs to the sum
    e1 + e2, and with limit = (top + 1) << shift the test e1 + e2 < limit
    keeps exactly the terms of degree <= top, even when a slot of the sum
    overflowed.  Each b is sorted once, so the inner loop stops at the
    first term beyond the room a term of a leaves.
    """
    out = dict(start) if start else {}
    get = out.get
    for a, b in pairs:
        if not a or not b:
            continue
        terms = sorted(b.items())  # packed exponents are distinct ints
        for e1, c1 in a.items():
            room = limit - e1
            for e2, c2 in terms:
                if e2 >= room:
                    break
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _negated(jet: dict) -> dict:
    return {e: -c for e, c in jet.items()}


def _lowest_terms(ints: dict, den: int) -> tuple:
    """(ints, den) for {e: ints[e] / den} over the lcm of its reduced
    denominators: divided by the gcd of den and every numerator."""
    g = functools.reduce(math.gcd, ints.values(), den)
    if g == 1:
        return ints, den
    return {e: c // g for e, c in ints.items()}, den // g


class _Level(NamedTuple):
    """A level f = {e: ints[e] / d} in n variables with integer ints[e] and
    any common denominator d > 0: what `_level_jets` reads."""

    n: int
    ints: dict
    d: int


def _level(f: PrecisionSeries, mu) -> _Level:
    """The level f, its coefficients as `_numerators` writes them, once f
    is admitted on the window mu: in two or more variables the admission
    rule, for the a_i certified under f's form restricted to them and
    asked under the standard one."""
    n_vars = f.n - 1
    if n_vars:
        # the admission rule reads only the bound: a stand-in with no terms
        _admit(PrecisionSeries(n_vars, {}, f.prec,
                               f.form_ctx and f.form_ctx.restrict(n_vars)),
               std_form(n_vars), mu)
    ints, d = _numerators(f)
    return _Level(f.n, ints, d)


def _level_jets(f: _Level, p: int, mu) -> tuple:
    """(jets, d, top, shift, unpack): the input of the Hankel pass, read
    from f = x^p + a_{p-1} x^{p-1} + ... + a_0, x its last variable, in one
    sweep of its numerators.

    jets[i] is the integer jet A_i = a_i * d^(p-i) on the window, d the
    level's common denominator (the x^p term has numerator d).  Its keys
    are the exponents in the other f.n - 1 variables, packed as in
    `division` with the level above `shift`; top is the window's top
    level, and unpack undoes the packing.  In zero variables every
    exponent packs to 0, the origin, the window is the one level 0, and mu
    is not read.

    f is checked as a level: a PresentationError when it has no x^p term
    with coefficient 1 or a term lies above degree p.  Its admission on
    the window is the caller's (`_level`).  A term above the window is
    skipped before it is packed, so every packed component is at most top
    and fits the window's own slots; the packing still checks it.
    """
    n_vars, ints, d = f.n - 1, f.ints, f.d
    if ints.get((0,) * n_vars + (p,)) != d:  # the x^p term is d / d
        raise PresentationError("polynomial is not monic")
    if n_vars:
        L = std_form(n_vars)
        pk, top = _slots(L, mu, 0), L.level_cap(mu)
    else:  # no slot: every exponent packs to 0
        pk, top = _Packing(0, 1, (), 0, 0, 0), 0
    width, slot = pk.width, pk.top
    # A_m = (a_m * d) * d^(p-1-m): both factors are integers
    powers = [d ** (p - 1 - m) for m in range(p)]
    jets = [{} for _ in range(p)]
    for e, c in ints.items():
        m, rest = e[-1], e[:-1]
        if m >= p:
            if m == p and not any(rest):
                continue
            raise PresentationError("terms above the distinguished degree")
        level = sum(rest)  # `_pack` under the standard form
        if level > top:
            continue
        for k in reversed(rest):
            if not 0 <= k <= slot:
                raise InvariantViolation(
                    f"component {k} of {rest} does not fit a {width}-bit slot")
            level = level << width | k
        jets[m][level] = c * powers[m]
    return jets, d, top, pk.shift, functools.partial(_unpack, pk)


def _polygon_size(jets: list, p: int, top: int, shift: int) -> int:
    """The largest m <= p whose m x m Hankel minor the Newton polygon of the
    jets A_i (`_level_jets`) lets reach the window's top level: shortcut (d)
    of the module docstring.  1 when every A_i is zero and p >= 1.

    The root orders, smallest first, are the slopes of the lower Newton
    polygon of (p, 0) and the (i, w_i), w_i the lowest degree of a nonzero
    A_i, read leftwards from (p, 0); scaled by p! they are integers.  The
    roots left of the polygon are zero, of infinite order.
    """
    fact = math.factorial(p)
    points = [(i, min(jet) >> shift) for i, jet in enumerate(jets) if jet]
    orders, right, w_right = [], p, 0
    while points and points[0][0] < right:
        theta, i, w = min([((wk - w_right) * (fact // (right - k)), k, wk)
                           for k, wk in points if k < right])
        orders += [theta] * (right - i)
        right, w_right = i, w
    # the largest m with 2 * sum_{a <= m} (m - a) theta_(a) <= top
    size, low, bound = min(p, 1), 0, 0
    while size < p and size <= len(orders):
        low += orders[size - 1]
        bound += 2 * low
        if bound > top * fact:
            break
        size += 1
    return size


def _hankel_discriminants(f: _Level, p: int, mu) -> tuple:
    """(minors, unpack): D_1, ..., D_p of f = x^p + a_{p-1} x^{p-1} + ...
    + a_0, x its last variable, one pair (jet, scale) each.

    jet is {packed exponent: integer}, and D_j = {unpack(e): Fraction(c,
    scale)}, its terms of total degree <= mu in the other f.n - 1
    variables; a minor the pass does not form is (None, 1).  f is read
    once, by `_level_jets`, which also checks it.  The power sums
    s_0..s_{2p-2} come from Newton's identities, and D_j is the signed
    leading m x m minor of the Hankel matrix [s_{a+b}], m = p - j + 1.  One
    Berkowitz pass yields the characteristic polynomials of all leading
    principal submatrices, whose constant terms are (-1)^m times the minors.
    Every sum of products is one `dot`, and nothing divides.  When only the
    1 x 1 minor reaches the window, D_p = s_0 = p is returned with no pass.

    The pass runs on integers by scaling the roots by d, the level's common
    denominator.  Then X^p + A_{p-1} X^{p-1} + ... + A_0 = d^p f(X/d) is
    the monic polynomial whose roots are d*T_k.  Its power sums are d^k
    s_k, so its Hankel entry (a, b) is d^(a+b) s_{a+b}, and its leading m x
    m minor is d^(0+1+...+(m-1)) twice over, that is d^(m(m-1)), times the
    original one.  Scaling commutes with truncation by degree, so each
    minor is the integer one divided by d^(m(m-1)), its sign folded into
    the scale.

    `dot` is the truncated `_jet_dot`.  The pass takes the four shortcuts
    of the module docstring; by (d) it forms only the leading size x size
    minors, size from `_polygon_size`.
    """
    jets, d, top, shift, unpack = _level_jets(f, p, mu)
    size = _polygon_size(jets, p, top, shift)
    if size == 1:  # only D_p = s_0 = p reaches the window, as for y^p
        return [(None, 1)] * (p - 1) + [({0: p}, 1)], unpack
    limit = (top + 1) << shift

    def dot(pairs: list, start: dict) -> dict:
        return _jet_dot(pairs, limit, start) if pairs else start

    # Newton: s_k = -(k c_k + c_1 s_{k-1} + ... + c_{k-1} s_1) with
    # c_i = A_{p-i}, and c_i = 0 for i > p; only nonzero c_i make pairs
    nonzero = [i for i in range(1, p + 1) if jets[p - i]]
    s = [{0: p}]
    for k in range(1, 2 * size - 1):
        kc = {e: k * c for e, c in jets[p - k].items()} if k <= p else {}
        s.append(_negated(dot([(jets[p - i], s[k - i])
                               for i in nonzero if i < k], kc)))

    # Berkowitz: with H_r the leading r x r block, c its next column (also
    # its next row, by symmetry) and h the new diagonal entry, the
    # characteristic polynomial of H_{r+1} is the Toeplitz product of
    # t = (1, -h, -c.c, -c.H_r c, ..., -c.H_r^{r-1} c) with that of H_r.
    # v[j] = H_r^j c, as far as shortcuts (a) and (b) need it; (c) t_0 = 1
    # and the zero t_k make no product.
    char = [{0: 1}]                     # highest degree first
    minors = []
    for r in range(size):
        t = [{0: 1}, _negated(s[2 * r])]
        v = [s[r:2 * r]]
        for k in range(r):
            hi = (k + 1) // 2
            if hi == len(v):
                v.append([_jet_dot(zip(s[a:a + r], v[-1]), limit)
                          for a in range(r)])
            if not any(v[hi]):
                break
            t.append(_negated(_jet_dot(zip(v[k // 2], v[hi]), limit)))
        ks = [k for k in range(1, len(t)) if t[k]]
        char.append({})                 # char_r[r + 1] = 0
        # the last step forms only the constant term, the minor it returns
        rows = range(r + 2) if r + 1 < size else (r + 1,)
        char = [dot([(t[k], char[i - k]) for k in ks if k <= i], char[i])
                for i in rows]
        m = r + 1
        scale = d ** (m * (m - 1)) * (1 if m * (m + 1) // 2 % 2 == 0 else -1)
        minors.append((char[-1], scale))
    return [(None, 1)] * (p - size) + minors[::-1], unpack


def distinct_root_count_check(coeffs: Sequence, p: int) -> int:
    """The j with D_1 = ... = D_j = 0 and D_{j+1} != 0 (so p - j distinct
    roots); cross-checkable against gcd-based squarefree degree."""
    if len(coeffs) != p:
        raise DimensionMismatch(f"expected {p} coefficients")
    f = {(m,): a for m, a in enumerate(map(_as_fraction, coeffs)) if a}
    f[(p,)] = Fraction(1)
    j, _, _ = _first_nonvanishing(_level(PrecisionSeries(1, f), 0), p, 0)
    # D_p = s_0 = p vanishes only for p = 0: the polynomial 1 has no roots
    return p if j is None else j - 1


def squarefree_defect(coeffs: Sequence, p: int) -> int:
    """deg gcd(f, f') for monic f = X^p + sum a_m X^m: the number of
    repeated-root multiplicities, i.e. p minus the distinct-root count."""
    f = [Fraction(c) for c in coeffs] + [Fraction(1)]
    fp = [m * f[m] for m in range(1, p + 1)]

    def norm(v):
        while v and not v[-1]:
            v.pop()
        return v

    def polymod(a, b):
        a = a[:]
        while len(a) >= len(b):
            if not a[-1]:
                a.pop()
                continue
            q = a[-1] / b[-1]
            off = len(a) - len(b)
            for i in range(len(b)):
                a[off + i] -= q * b[i]
            a.pop()
        return norm(a)

    a, b = norm(f[:]), norm(fp[:])
    while b:
        a, b = b, polymod(a, b)
    return len(a) - 1


# -- Weierstrass preparation -------------------------------------------------

def regular_order(f: PrecisionSeries, i: int) -> Optional[int]:
    """Lowest power of x_i among the pure-x_i terms of f, or None."""
    pure = [e[i] for e in f.terms if sum(e) == e[i]]
    return min(pure) if pure else None


def _weierstrass_polynomial(jet: PrecisionSeries, p: int, i: int,
                            mu: Fraction) -> tuple:
    """(ints, den, division): the Weierstrass polynomial P = {e: ints[e] /
    den} in x_i of the mu-jet j = `jet` of x_i-order p, certified on (std,
    mu), with integer ints[e] in lowest terms over den > 0; division is None
    when P = x_i^p or P = j (module docstring), and else (terms, jden, head,
    rem, rden, pk, cap): j = {s: terms[s] / jden} packed by pk, P = x_i^p -
    {s: rem[s] / rden} on the whole division window, head the x_i^p packed
    by pk, cap the window's top level.

    j is the series truncated to (std, mu) and p = `regular_order`(j, i);
    neither is recomputed here.  Let Lw be the form with weight 1 on x_i and
    W on every other variable, W the least integer above (p - b) / |a| over
    the terms x'^a x_i^b of j with b < p (each has |a| >= 1, by the choice
    of p).  Then x_i^p is the Lw-head of j, and Hironaka division by j
    under Lw is Weierstrass division: x_i^p = q * j + r with r of
    x_i-degree below p, and P = x_i^p - r = q * j.  A term of total degree
    at most mu has Lw at most W * floor(mu), so the window {Lw <= W *
    floor(mu) + p} certifies P on (std, mu), and a quotient by P on the
    standard window as well.  Every term of r is checked to lie outside the
    cone of x_i^p.
    """
    n, top = jet.n, int(mu)
    alpha = tuple([p if k == i else 0 for k in range(n)])
    low = [e for e in jet.terms if e[i] < p]
    if not low:  # x_i^p divides j
        return {alpha: 1}, 1, None
    if len(low) + 1 == len(jet.terms) and jet.terms[alpha] == 1:
        ints, den = _numerators(jet)
        return ints, den, None  # j is distinguished
    W = max([(p - e[i]) // (sum(e) - e[i]) + 1 for e in low])
    Lw = std_form(n) if W == 1 else LinearForm(
        tuple([1 if k == i else W for k in range(n)]))
    cap = W * top + p
    pk = _slots(Lw, cap, 0)  # j's components are at most top <= cap
    terms, jden = _packed(jet, pk)
    divisor = _member(terms, EXACT, pk)  # j is exact under Lw
    # only the window is wanted (the dividend passed as inexact): terms above
    # it are dropped at once, and the quotient q is not built
    rem, den, _ = _divide({divisor.head: 1}, 1, False, [divisor], pk, cap)
    ints = {alpha: den}
    for s, w in rem.items():
        e = _unpack(pk, s)
        if e[i] >= p:
            raise InvariantViolation("remainder term outside the complement")
        if sum(e) <= top:
            ints[e] = -w
    return (*_lowest_terms(ints, den),
            (terms, jden, divisor.head, rem, den, pk, cap))


def _series(n: int, ints: dict, den: int, mu) -> PrecisionSeries:
    """{e: ints[e] / den}, certified to mu under the standard form."""
    return PrecisionSeries(n, {e: Fraction(c, den) for e, c in ints.items()},
                           mu, std_form(n))


def _prepare(jet: PrecisionSeries, p: int, i: int, mu: Fraction) -> tuple:
    """(P, u, ints, den): `weierstrass_prepare` of the mu-jet `jet` of
    x_i-order p, and P = {e: ints[e] / den} as `_weierstrass_polynomial`
    gives it."""
    n, L = jet.n, std_form(jet.n)
    ints, den, division = _weierstrass_polynomial(jet, p, i, mu)
    order = min(map(sum, ints))
    distinguished = division is None and len(ints) > 1
    P = jet if distinguished else _series(n, ints, den, mu)
    if distinguished:  # P = j
        u_terms = {(0,) * n: Fraction(1)}
    elif division is None:  # j = x_i^p * u, and order = p
        u_terms = {(*e[:i], e[i] - order, *e[i + 1:]): c
                   for e, c in jet.terms.items()}
    else:
        terms, jden, head, rem, rden, pk, cap = division
        record = _member({head: rden, **{e: -w for e, w in rem.items()}},
                         cap, pk)
        quotient: list = [{}]
        _divide(terms, jden, False, [record], pk, cap, quotient)
        top = int(mu) - order
        u_terms = {}
        for s, (w, d) in quotient[0].items():
            e = _unpack(pk, s)
            if sum(e) <= top:
                u_terms[e] = Fraction(w, d)  # P is monic
    u = PrecisionSeries(n, u_terms, mu - order, L)
    check = mul(u, P)
    if not agrees_up_to(check, jet, L, prec_min(mu, check.prec)):
        raise PresentationError("preparation identity failed; this is a bug")
    return P, u, ints, den


def weierstrass_prepare(f: PrecisionSeries, i: int, mu) -> tuple:
    """Factor f = u * P up to the window (std, mu).

    P is monic of degree p in x_i with the lower coefficients, series in the
    other variables, vanishing at the origin; u is a unit.  p is the
    x_i-order of f restricted to the x_i-axis, and must satisfy p <= mu.

    Contract: P is the Weierstrass polynomial of the mu-jet j of f,
    certified on (std, mu), and u is the unit of j, certified on (std,
    mu - ord P): u * P = j on the window determines u only that far.  When
    P = x_i^p, u is j / x_i^p, and when j is distinguished, P = j and u =
    1; otherwise u is the quotient of j by P on the whole division window,
    the one use of P's division record, which divides the jet packed for
    that record.  P cut to total degree mu would not do when ord P < p: the
    tail of P lowers the total degree, so that division may leave a
    remainder inside the window (as for y^3 + y^4 + x at mu = 4), and then
    u * P != j there.  The identity u * P = j is re-verified on the window
    before returning.
    """
    mu = _as_fraction(mu)
    n = f.n
    if not 0 <= i < n:
        raise DimensionMismatch(f"variable index {i} out of range for n={n}")
    jet = truncate(f, std_form(n), mu)
    p = regular_order(jet, i)
    if p is None:
        raise NotRegular(
            f"not regular in variable {i} at precision {mu}; "
            "apply a linear change of coordinates and retry")
    return _prepare(jet, p, i, mu)[:2]

# -- discriminant towers -----------------------------------------------------

class TowerLevel(NamedTuple):
    index: int                      # ambient variable count of this level
    is_one: bool
    poly: Optional[PrecisionSeries]
    degree: Optional[int]
    disc_index: Optional[int]       # first non-vanishing discriminant index
    vanish_certificates: tuple      # one entry per index below disc_index
    unit_below: Optional[PrecisionSeries]
    unit_constant: Optional[Fraction]


class Tower(NamedTuple):
    n: int
    mu: Fraction
    seed: int
    levels: tuple                   # TowerLevel for index n down to 1
    coordinate_changes: tuple       # (ambient_level, matrix) pairs


def _first_nonvanishing(f: _Level, p: int, mu) -> tuple:
    """(j, value, certificates): minimal j with D_j of the level f of
    degree p not zero up to mu, or three Nones when every D_j is.

    The value is a rational for a univariate f and a series in the other
    variables certified to mu under the standard form otherwise.
    """
    n_vars = f.n - 1
    # a series value is known only on the window, a number exactly
    cert = "zero-up-to-mu" if n_vars else "exact-zero"
    minors, unpack = _hankel_discriminants(f, p, mu)
    for j, (jet, scale) in enumerate(minors, start=1):
        if jet:
            d = {unpack(e): Fraction(c, scale) for e, c in jet.items()}
            val = d[()] if n_vars == 0 else PrecisionSeries(
                n_vars, d, _as_fraction(mu), std_form(n_vars))
            return j, val, (cert,) * (j - 1)
    return None, None, None


def _at_origin(value):
    """The constant term of a series; a number is its own constant term."""
    if isinstance(value, PrecisionSeries):
        return value.coefficient((0,) * value.n)
    return value


def _embed_change(M, n: int) -> tuple:
    """The k x k coordinate change M acting on the first k of n variables."""
    k = len(M)
    return tuple([tuple([M[r][c] if r < k and c < k else (1 if r == c else 0)
                         for c in range(n)])
                  for r in range(n)])


def _ensure_regular(polys: Sequence[PrecisionSeries], i: int, mu,
                    rng: random.Random) -> tuple:
    """(jets, orders, matrix): the mu-jets on (std, mu) of the listed
    series, all regular in variable i, their x_i-orders (`regular_order`),
    and the change of the first i+1 variables that made them so (None when
    they already were).  Draws up to COORDINATE_CHANGE_RETRIES seeded
    changes."""
    n = polys[0].n
    L = std_form(n)
    draws = (_embed_change(linalg.seeded_unimodular(rng, i + 1), n)
             for _ in range(COORDINATE_CHANGE_RETRIES))
    for M in chain([None], draws):
        jets, orders = [], []
        for f in polys:
            jet = truncate(f if M is None else substitute_linear(f, M), L, mu)
            orders.append(regular_order(jet, i))
            if orders[-1] is None:
                break
            jets.append(jet)
        else:
            return jets, orders, M
    raise NotRegular(f"no sampled change made the series regular in x_{i + 1}")


def _prepared_product(n: int, prepared: Sequence[tuple], mu) -> tuple:
    """(ints, den): the product of the prepared generators {e: ints_k[e] /
    den_k} in n variables (`_weierstrass_polynomial`) on the window {std <=
    mu}, {e: ints[e] / den} in lowest terms, as one `_int_product` of the
    numerators per further generator, windowed by the level cap of mu.

    Each generator is certified to mu and has no constant term, so the
    product is certified beyond mu and its terms of degree <= mu are the
    truncated products of the terms the generators store; no term above
    mu is formed.
    """
    L = std_form(n)
    (ints, den), *rest = prepared
    for terms, d in rest:
        ints, den = _int_product(ints, terms, L, L.level_cap(mu)), den * d
    return _lowest_terms(ints, den)


def build_tower(gens: Sequence[PrecisionSeries], mu, seed: int = 0) -> Tower:
    """Construct the discriminant tower of the product of the inputs.

    Prepares every generator to distinguished form in the last variable
    (after a recorded coordinate change when regularity fails), multiplies
    them into the top polynomial, and then recursively takes the first
    non-vanishing generalized discriminant, prepared to distinguished form
    one variable down.  A change drawn at a lower level re-expresses every
    earlier level, its unit included.  A unit discriminant ends the tower
    with constant levels; a univariate level's discriminant is a nonzero
    number, so the bottom level is always the constant 1.
    """
    mu = _as_fraction(mu)
    gens = list(gens)
    if not gens:
        raise PresentationError("tower construction needs generators")
    n = gens[0].n
    if n < 1:
        raise DimensionMismatch("ambient dimension must be at least 1")
    rng = random.Random(seed)
    changes = []
    for k, g in enumerate(gens, start=1):
        if g.n != n:
            raise DimensionMismatch("mixed ambient dimensions")
        if g.is_zero_up_to_prec:
            raise PresentationError("tower generators must be nonzero")
        if g.coefficient((0,) * n):
            raise PresentationError("unit generator: the germ is empty")
        if min(map(sum, g.terms)) > mu:
            raise PrecisionShortfall(
                f"generator {k} has no term on the window {mu}: its order "
                "lies beyond the window")

    jets, orders, M = _ensure_regular(gens, n - 1, mu, rng)
    if M is not None:
        changes.append((n, M))
    # the levels are handed down as integers over a common denominator, read
    # by `_level_jets` as they are; a Fraction is built only for a kept level
    prepared = [_weierstrass_polynomial(jet, p, n - 1, mu)[:2]
                for jet, p in zip(jets, orders)]
    # the prepared generators' lower coefficients vanish at the origin, so
    # the product's one pure power of x_n is x_n^p, p the sum of the orders
    p = sum(orders)
    if p > mu:
        raise PrecisionShortfall(
            f"the level in {n} variables has no pure power of its last "
            f"variable on the window {mu}: its degree lies beyond the window")
    ints, den = _prepared_product(n, prepared, mu)
    current = _series(n, ints, den, mu)

    levels = []
    for dim in range(n, 0, -1):
        # every level is built on the window: the product, a prepared
        # discriminant, or one of them after a linear change, which moves
        # only the first dim - 1 variables and so keeps the degree p; and
        # p >= 1, so D_p = s_0 = p is nonzero and j is always found
        j, disc_val, certs = _first_nonvanishing(_Level(dim, ints, den), p, mu)
        const = _at_origin(disc_val)
        if const:
            levels.append(TowerLevel(dim, False, current, p, j, certs,
                                     None, const))
            levels += [TowerLevel(i, True, None, None, None, (), None, None)
                       for i in range(dim - 1, 0, -1)]
            break
        (jet,), (q,), M = _ensure_regular([disc_val], dim - 2, mu, rng)
        if M is not None:
            changes.append((dim - 1, M))
            current = substitute_linear(current, _embed_change(M, dim))
            levels = [lvl._replace(
                poly=substitute_linear(lvl.poly, _embed_change(M, lvl.index)),
                unit_below=substitute_linear(
                    lvl.unit_below, _embed_change(M, lvl.index - 1)))
                for lvl in levels]
        P, u, ints, den = _prepare(jet, q, dim - 2, mu)
        levels.append(TowerLevel(dim, False, current, p, j, certs, u,
                                 _at_origin(u)))
        current, p = P, q
    return Tower(n, mu, seed, tuple(levels), tuple(changes))


def _level_checks(lvl: TowerLevel, below: Optional[TowerLevel], mu) -> dict:
    """The checks of one level that is not constant one."""
    idx, f, p = lvl.index, lvl.poly, lvl.degree
    try:
        j, disc_val, certs = _first_nonvanishing(_level(f, mu), p, mu)
        monic = True
    except (PresentationError, PrecisionShortfall, FormMismatch):
        # not monic, a term above the degree, or not admitted on the window
        j, monic = None, False
    # every a_i vanishes at the origin: each term of x_n-degree below p
    # has a positive degree in the other variables
    vanish = monic and all([sum(e) > e[-1] for e in f.terms if e[-1] < p])
    cert_ok = unit_ok = False
    if j is not None:
        cert_ok = (j, certs) == (lvl.disc_index, lvl.vanish_certificates)
        if below is None or below.is_one:
            # the discriminant is the unit: its constant term is recorded
            const = _at_origin(disc_val)
            unit_ok = bool(const) and lvl.unit_constant == const
        elif lvl.unit_below is not None:
            u0 = _at_origin(lvl.unit_below)
            prod = mul(lvl.unit_below, below.poly)
            unit_ok = (bool(u0) and lvl.unit_constant == u0
                       and agrees_up_to(disc_val, prod, std_form(idx - 1),
                                        prec_min(mu, prod.prec)))
    return {
        "distinguished_form": f.n == idx and monic,
        "coefficients_vanish": vanish,
        "discriminant_certificates": cert_ok,
        "unit_factorization": unit_ok,
    }


def validate_tower(T: Tower) -> dict:
    """Re-check the tower conditions level by level.

    Per level: monic distinguished form with coefficients vanishing at the
    origin, the recorded discriminant index and vanishing certificates, the
    unit factorization D = u * F_below with the recorded unit constant, and
    the once-one-always-one chain; the bottom of the tower is the constant 1.
    """
    levels = {lvl.index: lvl for lvl in T.levels}
    report: dict = {"mu": T.mu, "levels": {}, "all_pass": True}
    seen_one = False
    for idx in sorted(levels, reverse=True):
        lvl = levels[idx]
        seen_one = seen_one or lvl.is_one
        if seen_one:
            entry = {"one_propagation": lvl.is_one}
        else:
            entry = _level_checks(lvl, levels.get(idx - 1), T.mu)
        report["levels"][idx] = entry
        if not all(entry.values()):
            report["all_pass"] = False
    bottom = levels.get(1)
    report["base_is_one"] = bottom is not None and (
        bottom.is_one or bottom.disc_index is not None)
    report["all_pass"] = report["all_pass"] and report["base_is_one"]
    return report
