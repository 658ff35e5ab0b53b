"""Reference implementations that the tests hold the command path to.

This module lives beside the tests that import it, outside the package, so
no command loads it.

The classical leading-term reduction of D_j to a polynomial in the
elementary symmetric values (`generalized_discriminant`) is kept as an
independent, degree-capped oracle for the tests.  It runs on exact kernel
series (`mul`, `power`, `add`), which the Hankel route of `equising`
never calls.  Beyond its cap, `berkowitz_discriminants` runs Newton's
identities and a plain Berkowitz pass on the same kernel series, forming
every product that the Hankel route skips.  The oracles take coefficient
vectors, and the Hankel route the monic level polynomial:
`monic_polynomial` builds it from a vector, `coefficient_vector` reads the
vector back, and `hankel_minors` reads the Hankel route's integer minors as
the rational jets the oracles return.

`plain_rank` is the dense `Fraction` elimination that
`diagram.ExactRowReducer`, with its sparse integer rows and primitive
pivots, is held to on rows scaled by random rationals.  A table that
`diagram.oracle_jet_quotient_table` reads from one reduction is held to
one `plain_rank` per degree (`tests/test_diagram.py`).

`walk_complement_levels` counts a staircase complement per level by
visiting every complement point, the way `diagram._complement_levels` did
before it read the counts off the Hilbert-series numerator.

`fraction_product` is the `Fraction` loop that `kernel.mul` replaced; the
fraction-free product and the shift for a one-term factor are both held
to it.  Its bound rule reads `min_lvalue`, the L-order lower bound as a
`Fraction`, which `kernel._product_bound` forms from an integer level.
`truncated_product` multiplies prepared generators the way
`equising.build_tower` did before its one truncated integer product: one
`mul` and one `truncate` per generator (`tests/test_packed_products.py`).
`series_substitute` composes a series with a linear change the way
`kernel.substitute_linear` did before it composed integer numerators: row
powers and products as `Fraction` series by `mul` (`tests/test_kernel.py`).
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from localring.diagram import _span, tail_monomials
from localring.equising import _hankel_discriminants, _level
from localring.errors import (BudgetExceeded, DimensionMismatch, PresentationError,
                               ZeroUpToPrecision)
from localring.kernel import (EXACT, IdealPresentation, PrecisionSeries, _join_forms,
                              add, monomial, mul,
                              one, power, scale, series, sub, truncate, variable,
                              zero)
from localring.order import LinearForm, std_form

#: Budget of the symbolic oracle `generalized_discriminant`: p = 4 reduces
#: in well under a second, p = 5 in a few seconds, p = 6 in many minutes.
MAX_DISCRIMINANT_DEGREE = 5


def _elementary_symmetric(p: int) -> list:
    """[e_0, e_1, ..., e_p] of the roots T_1..T_p as exact series."""
    return [series(p, {tuple([int(v in subset) for v in range(p)]): 1
                       for subset in combinations(range(p), i)})
            for i in range(p + 1)]


def raw_discriminant(p: int, j: int) -> PrecisionSeries:
    """The unreduced symmetric sum of squared Vandermonde products, an exact
    series in the roots T_1..T_p."""
    total = zero(p)
    for removed in combinations(range(p), j - 1):
        rest = [v for v in range(p) if v not in removed]
        half = one(p)
        for a, b in combinations(rest, 2):
            half = mul(half, sub(variable(p, a), variable(p, b)))
        m = len(rest)
        # ordered pairs = square of the half-product, negated when the
        # number m(m-1)/2 of unordered pairs is odd
        square = mul(half, half)
        total = sub(total, square) if m * (m - 1) // 2 % 2 else add(total, square)
    return total


class SymmetricReduction(NamedTuple):
    """A symmetric polynomial rewritten in the variables A_0..A_{p-1}.

    `expr` maps an exponent tuple over (A_0, ..., A_{p-1}) to its rational
    coefficient; substituting A_m = e_{p-m}(T) reproduces the raw symmetric
    polynomial identically.
    """

    p: int
    expr: dict


def reduce_symmetric(p: int, poly: PrecisionSeries) -> SymmetricReduction:
    """Classical leading-term elimination into elementary symmetric values.

    The lex-leading term coeff * T^lam of the remainder is cancelled by
    adding -coeff * e_1^(lam_1 - lam_2) ... e_p^(lam_p), whose leading term
    is -coeff * T^lam, so the leading exponents strictly decrease and each
    A-exponent occurs once.
    """
    elem = _elementary_symmetric(p)
    powers: dict = {}
    work = poly
    expr: dict = {}
    while work.terms:
        lam = max(work.terms)  # lex-max; symmetry makes it weakly decreasing
        if list(lam) != sorted(lam, reverse=True):
            raise PresentationError("reduction applied to a non-symmetric input")
        coeff = work.terms[lam]
        candidate = monomial(p, (0,) * p, -coeff)
        a_exp = [0] * p
        for i in range(1, p + 1):
            ci = lam[i - 1] - (lam[i] if i < p else 0)
            if ci:
                if (i, ci) not in powers:
                    powers[i, ci] = power(elem[i], ci)
                candidate = mul(candidate, powers[i, ci])
                a_exp[p - i] += ci
        expr[tuple(a_exp)] = coeff
        work = add(work, candidate)
    return SymmetricReduction(p, expr)


def symmetric_roundtrip_ok(red: SymmetricReduction, raw: PrecisionSeries) -> bool:
    """Substitute A_m = e_{p-m}(T) back and compare with the raw polynomial."""
    p = red.p
    elem = _elementary_symmetric(p)
    total = zero(p)
    for a_exp, coeff in red.expr.items():
        prod = monomial(p, (0,) * p, coeff)
        for m, k in enumerate(a_exp):
            prod = mul(prod, power(elem[p - m], k))
        total = add(total, prod)
    return total == raw


@functools.cache
def generalized_discriminant(p: int, j: int) -> SymmetricReduction:
    """The reduced j-th generalized discriminant for degree p (cached).

    This symbolic route is the test oracle; towers and root counts use the
    Hankel minors of `_hankel_discriminants`, which have no degree cap.
    """
    if not 1 <= j <= p:
        raise PresentationError(f"index j={j} out of range for degree {p}")
    if p > MAX_DISCRIMINANT_DEGREE:
        raise BudgetExceeded(
            f"discriminant degree {p} exceeds the symbolic reduction cap "
            f"{MAX_DISCRIMINANT_DEGREE} (expansion cost grows steeply)")
    return reduce_symmetric(p, raw_discriminant(p, j))


def evaluate_at_rationals(red: SymmetricReduction, coeffs: Sequence) -> Fraction:
    """Evaluate at a numeric coefficient vector (a_0, ..., a_{p-1})."""
    if len(coeffs) != red.p:
        raise DimensionMismatch(f"expected {red.p} coefficients")
    vals = [Fraction(c) for c in coeffs]
    total = Fraction(0)
    for a_exp, coeff in red.expr.items():
        term = coeff
        for m, k in enumerate(a_exp):
            term *= vals[m] ** k
        total += term
    return total


def evaluate_at_series(red: SymmetricReduction, coeffs: Sequence[PrecisionSeries],
                       L: LinearForm, mu) -> PrecisionSeries:
    """Evaluate at series coefficients with kernel products, truncating
    every product to the window (L, mu)."""
    n = coeffs[0].n
    total = zero(n)
    for a_exp, c in red.expr.items():
        term = monomial(n, (0,) * n, c)
        for m, k in enumerate(a_exp):
            for _ in range(k):
                term = truncate(mul(term, coeffs[m]), L, mu)
        total = add(total, term)
    return truncate(total, L, mu)


def monic_polynomial(coeffs: Sequence, n_vars: int) -> PrecisionSeries:
    """X^p + a_{p-1} X^{p-1} + ... + a_0 for the vector (a_0, ..., a_{p-1}),
    X the last of n_vars + 1 variables: the a_i are numbers when n_vars is
    0 and series in n_vars variables otherwise.  The polynomial is
    certified to the least bound of the a_i, under the form of the first
    certified one with weight 1 on X."""
    p = len(coeffs)
    terms = {(0,) * n_vars + (p,): Fraction(1)}
    prec = form = None
    for m, a in enumerate(coeffs):
        if not n_vars:
            if a:
                terms[(m,)] = Fraction(a)
            continue
        terms.update({(*e, m): c for e, c in a.terms.items()})
        if a.prec is not None:
            prec = a.prec if prec is None else min(prec, a.prec)
            form = form or LinearForm(a.form_ctx.weights + (1,))
    return PrecisionSeries(n_vars + 1, terms, prec, form)


def coefficient_vector(f: PrecisionSeries, i: int, p: int):
    """Coefficients (a_0, ..., a_{p-1}) of x_i^m in a monic distinguished f.

    For ambient dimension >= 2 the entries are series in the remaining
    variables (the distinguished variable must be the last one); in one
    variable they are plain rationals.
    """
    n = f.n
    if i != n - 1:
        raise DimensionMismatch("coefficients are extracted along the last variable")
    slots = [dict() for _ in range(p)]
    for e, c in f.terms.items():
        m = e[i]
        if m == p and not any(e[:i]):
            if c != 1:
                raise PresentationError("polynomial is not monic")
            continue
        if m >= p:
            raise PresentationError("terms above the distinguished degree")
        slots[m][e[:i]] = c
    if n == 1:
        return tuple([s.get((), Fraction(0)) for s in slots])
    form = f.form_ctx.restrict(n - 1) if f.form_ctx is not None else None
    return tuple([PrecisionSeries(n - 1, s, f.prec, form) for s in slots])


def hankel_minors(coeffs: Sequence, n_vars: int, mu) -> list:
    """D_1, ..., D_p of `equising._hankel_discriminants` at the vector
    (a_0, ..., a_{p-1}), every one as the jet {exponent: Fraction} that its
    integer minor and scale stand for, and a minor the pass does not form
    as the zero jet; the command path converts only the minor it keeps."""
    minors, unpack = _hankel_discriminants(
        _level(monic_polynomial(coeffs, n_vars), mu), len(coeffs), mu)
    return [{unpack(e): Fraction(c, scale) for e, c in (jet or {}).items()}
            for jet, scale in minors]


def berkowitz_discriminants(coeffs: Sequence[PrecisionSeries], L: LinearForm,
                            mu) -> list:
    """D_1, ..., D_p at series coefficients (a_0, ..., a_{p-1}) on the window
    (L, mu), with no degree cap.

    Newton's identities give the power sums s_0..s_{2p-2}, and a plain
    Berkowitz pass over the Hankel matrix [s_{a+b}] gives the characteristic
    polynomial of each leading block, whose constant term is (-1)^m times
    its m x m minor.  Every product is a kernel product truncated to the
    window; no product is skipped, whatever its value.
    """
    p, n = len(coeffs), coeffs[0].n

    def dot(us, vs):
        total = zero(n)
        for u, v in zip(us, vs):
            total = add(total, truncate(mul(u, v), L, mu))
        return total

    c = [one(n)] + [coeffs[p - i] for i in range(1, p + 1)]  # c_i = a_{p-i}
    s = [scale(one(n), p)]
    for k in range(1, 2 * p - 1):
        total = dot(c[1:k], s[k - 1:0:-1])
        if k <= p:
            total = add(total, scale(c[k], k))
        s.append(-total)

    char = [one(n)]                     # highest degree first
    minors = []
    for r in range(p):
        # t = (1, -h, -c.c, -c.H c, ..., -c.H^(r-1) c), H the leading r x r
        # block, c its next column and h the new diagonal entry
        col = s[r:2 * r]
        t = [one(n), -s[2 * r]]
        v = col
        for _ in range(r):
            t.append(-dot(col, v))
            v = [dot(s[a:a + r], v) for a in range(r)]
        char = [dot(t[:i + 1], (char + [zero(n)])[i::-1]) for i in range(r + 2)]
        m = r + 1
        minors.append(scale(char[-1], (-1) ** (m * (m + 1) // 2)))
    return minors[::-1]


def min_lvalue(L: LinearForm, f: PrecisionSeries) -> Fraction:
    """Lower bound for the L-order of the true series behind f.

    For a series with stored terms this is L(inexp); for a series that is
    zero up to its bound it is the bound itself.
    """
    if f.terms:
        return Fraction(min(map(L.level, f.terms)), L.den)
    if f.prec is None:
        raise ZeroUpToPrecision("exact zero has no L-order")
    return f.prec


def fraction_product(a: PrecisionSeries, b: PrecisionSeries) -> PrecisionSeries:
    """The product of a and b by the `Fraction` loop that `kernel.mul`
    replaced: every pair of terms multiplied as rationals, the bound by the
    `min_lvalue` rule, and a term kept when its two levels sum to at most
    the level cap of the bound."""
    form = _join_forms(a, b)
    if a.is_exact_zero or b.is_exact_zero:
        return zero(a.n)
    if a.prec is EXACT and b.prec is EXACT:
        prec = EXACT
    else:
        bounds = []
        if a.prec is not EXACT:
            bounds.append(a.prec + min_lvalue(form, b))
        if b.prec is not EXACT:
            bounds.append(b.prec + min_lvalue(form, a))
        prec = min(bounds)
    if prec is not EXACT:
        cap, level = form.level_cap(prec), form.level
        b_levels = {e2: level(e2) for e2 in b.terms}
    plus = operator.add
    out = {}
    for e1, c1 in a.terms.items():
        room = None if prec is EXACT else cap - level(e1)
        for e2, c2 in b.terms.items():
            if room is not None and b_levels[e2] > room:
                continue
            e = (*map(plus, e1, e2),)
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return PrecisionSeries(a.n, out, prec, form if prec is not EXACT else None)


def truncated_product(prepared: Sequence[PrecisionSeries], mu) -> PrecisionSeries:
    """The product of the prepared generators by the route
    `equising.build_tower` took before `_prepared_product`: one `mul` per
    generator, each product truncated to the window {std <= mu}."""
    current = prepared[0]
    for P in prepared[1:]:
        current = truncate(mul(current, P), std_form(current.n), mu)
    return current


def series_substitute(f: PrecisionSeries, M) -> PrecisionSeries:
    """f composed with x -> Mx by the route `kernel.substitute_linear`
    took before it composed integers: each row of M a `series`, its powers
    cached as series, every product a `mul` on `Fraction`s, and f's
    coefficients summed in as rationals.  A certified f keeps its bound."""
    n = f.n
    units = [(0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n)]
    rows = [series(n, {units[j]: M[i][j] for j in range(n) if M[i][j]})
            for i in range(n)]
    powers = [[one(n)] for _ in range(n)]  # powers[i][k] = rows[i]^k

    def row_power(i: int, k: int) -> PrecisionSeries:
        known = powers[i]
        while len(known) <= k:  # each power from the one below it
            known.append(mul(known[-1], rows[i]))
        return known[k]

    total: dict = {}
    for e, c in f.terms.items():
        prod = one(n)
        for i, b in enumerate(e):
            if b:
                prod = mul(prod, row_power(i, b))
        for pe, pc in prod.terms.items():
            s = total.get(pe, Fraction(0)) + c * pc
            if s:
                total[pe] = s
            else:
                del total[pe]
    return PrecisionSeries(n, total, f.prec, f.form_ctx)


def print_series(f: PrecisionSeries, var_names: Sequence[str]) -> str:
    """Render a series so that reparsing yields identical terms."""
    if not f.terms:
        return "0"
    pieces = []
    for e, c in f.sorted_terms():
        factors = []
        for name, b in zip(var_names, e):
            if b == 1:
                factors.append(name)
            elif b > 1:
                factors.append(f"{name}^{b}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        pieces.append((c < 0, body))
    first_neg, first_body = pieces[0]
    out = ("-" if first_neg else "") + first_body
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


def reduction_identity_check(I: IdealPresentation, k: int, d: int, m: int,
                             eta: Optional[int] = None) -> dict:
    """Jet-scale test of I + m^(d+m) = I + (tail)^m * m^d.

    Both sides are compared as spans inside the jet space of order eta
    (default d+m+1).  The right side is contained in the left: equality of
    ranks decides equality of spans.
    """
    if eta is None:
        eta = d + m + 1
    lhs = _span(I.gens, eta, monomials=tail_monomials(I.n, k, eta, d + m, 0))
    rhs = _span(I.gens, eta, monomials=tail_monomials(I.n, k, eta, d + m, m))
    return {"eta": eta, "m": m, "lhs_rank": lhs.rank, "rhs_rank": rhs.rank,
            "equal": lhs.rank == rhs.rank}


def heads_coprime(a, b) -> bool:
    """Disjoint supports: lcm == product, Buchberger's product criterion;
    completion tests it as packed lcm == sum of the packed heads."""
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def plain_rank(rows: Sequence[dict]) -> int:
    """The rank of sparse rows {column: coefficient}, by plain Gaussian
    elimination on a dense `Fraction` matrix; the pinned reference for
    `diagram.ExactRowReducer`."""
    columns = sorted({e for row in rows for e in row})
    matrix = [[Fraction(row.get(e, 0)) for e in columns] for row in rows]
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]),
                     None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        top = matrix[rank]
        for r in range(rank + 1, len(matrix)):
            if matrix[r][col]:
                factor = matrix[r][col] / top[col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], top)]
        rank += 1
    return rank


def walk_complement_levels(vertices: tuple, weights: tuple, cap: int) -> list:
    """How many points outside the staircase of `vertices` lie at each
    level 0..cap, the level of a point being its dot product with the
    integer `weights`.

    The complement is an order ideal (every divisor of a non-member is a
    non-member), so it is walked once from 0 by unit steps: a point's
    children raise one coordinate at or after the last one raised on the
    way to it, which reaches each point exactly once, along the path that
    lowers its last nonzero coordinate first.  A child in the staircase or
    above the cap is not entered, and neither is anything above it.
    """
    counts = [0] * (cap + 1)
    n = len(weights)
    if cap < 0 or any(not any(v) for v in vertices):  # 0 is in the staircase
        return counts
    stack = [((0,) * n, 0, 0)]  # point, its level, first coordinate to raise
    while stack:
        beta, level, first = stack.pop()
        counts[level] += 1
        for i in range(first, n):
            up = level + weights[i]
            if up > cap:
                continue
            child = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
            if not any(all(map(operator.ge, child, v)) for v in vertices):
                stack.append((child, up, i))
    return counts
