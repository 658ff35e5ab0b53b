"""Staircases of initial exponents, Hilbert-Samuel tables, flatness and
dimension diagnostics, and the exact row-reduction oracle.

Every claim made here carries the certification window of the basis it came
from: a diagram computed from a mu-certified basis describes the true
staircase on {L <= mu} and says nothing beyond.  Complement counts and
Hilbert-Samuel tables are read off the numerator of the staircase's weighted
Hilbert series, which is built from the vertices alone, so their cost does
not grow with the number of points outside the staircase.  The oracle
section computes jet-space dimensions by exact row reduction over the
monomial basis, independently of the division machinery, and is used to
cross-check it.  It eliminates on integers: a row enters as its numerators
over the lcm of its denominators and is reduced fraction-free against
primitive pivots.  The column order is graded, so a pivot has no term of
lower degree than its column, and a whole table of jet-space dimensions,
one per degree e <= eta, is read from one reduction at eta by counting
the pivots of degree <= e.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, combinations_with_replacement
from typing import Iterable, NamedTuple, Optional, Sequence

from . import linalg
from .errors import (
    DimensionMismatch,
    FormMismatch,
    MissingAxisVertex,
    PrecisionShortfall,
    PresentationError,
    TrivialEvaluation,
    UnverifiedBasis,
)
from .kernel import (
    IdealPresentation,
    PrecisionSeries,
    _admit,
    _numerators,
    evaluate_tail_zero,
    prec_at_least,
    truncate,
)
from .order import (
    Exponent,
    LinearForm,
    is_standard,
    iter_sublevel,
    std_form,
    std_key,
    weighted_split_form,
)
from .stdbasis import CertifiedBasis, complete


class Diagram(NamedTuple):
    """A staircase N = vertices + N^n, given by its minimal vertex set."""

    n: int
    vertices: tuple
    form: LinearForm
    certified_to: Fraction

    def contains(self, beta: Exponent) -> bool:
        if len(beta) != self.n:
            raise DimensionMismatch(f"{beta} in dimension {self.n}")
        return any(all(map(operator.ge, beta, vertex)) for vertex in self.vertices)


class HSTable(NamedTuple):
    """Values H(0), H(1), ..., H(eta_max)."""

    values: tuple


def minimal_antichain(exponents: Iterable[Exponent]) -> tuple:
    """Minimal elements under componentwise divisibility, sorted.

    A divisor comes before its multiples in lexicographic order, so one pass
    over the sorted exponents keeps each that no kept one divides.
    """
    keep = []
    for e in sorted(set(exponents)):
        for f in keep:
            if all(map(operator.ge, e, f)):
                break
        else:
            keep.append(e)
    return tuple(keep)


def diagram_of(B: CertifiedBasis) -> Diagram:
    """Vertices = minimal heads of a verified basis; window = its mu."""
    if not B.verified:
        raise UnverifiedBasis("diagram_of needs a verified basis")
    return Diagram(B.gens[0].n, minimal_antichain(B.heads), B.form, B.mu)


def _complement_levels(vertices: tuple, weights: tuple, cap: int) -> list:
    """How many points outside the staircase of `vertices` lie at each
    level 0..cap, the level of a point being its dot product with the
    integer `weights`.

    The vertices need not be minimal or distinct.  The staircase's weighted
    Hilbert series is K(t) / prod(1 - t^w), and the numerator K comes from
    the vertices alone by K(I + (m)) = K(I) - t^L(m) K(I : m) (Bayer and
    Stillman 1992), unrolled as K(g_1..g_r) = 1 - sum_r t^L(g_r)
    K((g_1..g_{r-1}) : g_r) over an explicit stack of (ideal, level, sign)
    terms.  Only K up to t^cap is needed, and that part depends only on the
    generators of level <= cap, so each term drops the generators above its
    room and a term above the cap contributes nothing.  Each colon is
    reduced to its minimal generators; one that contains 1 (a zero
    exponent) has K = 0.  The counts are then K / prod(1 - t^w), one
    in-place prefix pass per weight.
    """
    counts = [0] * (cap + 1)
    if cap < 0 or any(not any(v) for v in vertices):  # 0 is in the staircase
        return counts
    stack = [(vertices, 0, 1)]
    while stack:
        gens, level, sign = stack.pop()
        counts[level] += sign
        room = cap - level
        kept = []
        for g in gens:
            up = sum(map(operator.mul, g, weights))
            if up > room:
                continue
            if not kept:  # nothing before g: the colon is 0, with K = 1
                counts[level + up] -= sign
            else:
                colon = minimal_antichain(
                    [tuple([a - b if a > b else 0 for a, b in zip(h, g)])
                     for h in kept])
                if any(colon[0]):  # else 1 is in the colon: K = 0
                    stack.append((colon, level + up, -sign))
            kept.append(g)
    for w in weights:
        for c in range(w, cap + 1):
            counts[c] += counts[c - w]
    return counts


def complement_count(D: Diagram, L: LinearForm, eta) -> int:
    """#{b outside the staircase with L(b) <= eta}.

    The counts per level up to L.level_cap(eta), read off the Hilbert-series
    numerator of the vertices (`_complement_levels`) and summed: neither the
    complement nor the sub-level ball is enumerated.
    """
    if L != D.form:
        raise FormMismatch("counting under a form the diagram was not built for")
    eta = Fraction(eta)
    if eta > D.certified_to:
        raise PrecisionShortfall(
            f"level {eta} beyond the certified window {D.certified_to}")
    return sum(_complement_levels(D.vertices, L.int_weights, L.level_cap(eta)))


def hilbert_samuel(B: CertifiedBasis, eta_max) -> HSTable:
    """H(eta) = staircase-complement count per level, 0 <= eta <= eta_max.

    Requires the standard form (all weights 1), where the sub-level sets are
    total-degree balls and the count equals the jet-quotient dimension.  The
    counts per degree up to eta_max come from the Hilbert-series numerator
    (as in `complement_count`) and are accumulated.  They are read from the
    heads of the verified basis as they stand, since the numerator needs no
    minimal vertex set.  eta_max is an integer degree, possibly given as an
    integral `Fraction`; any other value raises PresentationError.
    """
    if not is_standard(B.form):
        raise FormMismatch("Hilbert-Samuel tables use the standard form")
    degree = Fraction(eta_max)
    if degree.denominator != 1:
        raise PresentationError(f"eta_max {eta_max} is not an integer degree")
    eta_max = degree.numerator
    if not prec_at_least(B.mu, eta_max):
        raise PrecisionShortfall(f"eta_max {eta_max} beyond certification {B.mu}")
    if not B.verified:
        raise UnverifiedBasis("hilbert_samuel needs a verified basis")
    levels = _complement_levels(B.heads, B.form.int_weights, eta_max)
    # from a list: tuple() over an iterator of unknown length allocates ten
    # slots and shrinks, and the shrunk tuples pile up in the free lists
    return HSTable(tuple([*accumulate(levels)]))


def evaluated_ideal(I: IdealPresentation, k: int) -> IdealPresentation:
    """Set the last n-k variables to zero; drop generators that die.

    Raises TrivialEvaluation when every generator evaluates to zero (up to
    its certified precision).
    """
    if not 1 <= k < I.n:
        raise DimensionMismatch(f"split index {k} out of range for n={I.n}")
    survivors = []
    for g in I.gens:
        e = evaluate_tail_zero(g, k)
        if not e.is_zero_up_to_prec:
            survivors.append(e)
    if not survivors:
        raise TrivialEvaluation(
            "every generator evaluates to zero at this precision")
    return IdealPresentation(k, tuple(survivors), I.var_names[:k])


def product_structure_check(D: Diagram, k: int) -> tuple[bool, tuple]:
    """Is the staircase a product (base in N^k) x N^(n-k)?

    True exactly when every vertex has zero components in the coordinates
    k+1..n; the base is then the vertex projection (necessarily the
    staircase of the evaluated ideal).
    """
    if not 1 <= k < D.n:
        raise DimensionMismatch(f"split index {k} out of range for n={D.n}")
    ok = all(not any(v[k:]) for v in D.vertices)
    base = minimal_antichain(v[:k] for v in D.vertices)
    return ok, base


# -- flatness -------------------------------------------------------------

class FlatnessReport(NamedTuple):
    verdict: str  # "FLAT" | "NOT-FLAT-AT-MU"
    k: int
    l0: int
    l_used: Fraction
    window: Fraction
    base_vertices: tuple
    vertices: tuple
    offending: tuple
    base_matches_evaluated: bool


def flatness_weight_search(I: IdealPresentation, k: int, mu,
                           extra_weights: Sequence[int] = ()) -> FlatnessReport:
    """Decide the product-structure flatness criterion at split index k.

    Computes the staircase of the evaluated ideal, sets l0 = 1 + max vertex
    degree, and completes I under the split form with weight l = l0 (then
    any extra weights) on the window {L <= l*mu}.  Verdict FLAT when some
    weight exhibits the product structure there; otherwise NOT-FLAT-AT-MU
    with the offending vertices.

    Every window, the standard one of the evaluated ideal included, is
    asked of the presentation (`IdealPresentation.at`): a presentation
    with a source expands its generators to it, and one without passes
    exact generators and refuses a certified one that the form cannot
    carry to the window, with PrecisionShortfall.  The evaluated ideal is
    that of the generators cut to (std, mu), the same as each evaluation
    cut to (std_k, mu): an evaluation zero on the window is dropped,
    whatever terms it has above it.
    """
    mu = Fraction(mu)
    n, L = I.n, std_form(I.n)
    ev = evaluated_ideal(IdealPresentation(
        n, tuple([truncate(g, L, mu) for g in I.at(L, mu)]), I.var_names), k)
    base_basis = complete(ev, std_form(k), mu)
    base_D = diagram_of(base_basis)
    l0 = 1 + max(int(sum(v)) for v in base_D.vertices)
    report = None
    for l in (l0, *extra_weights):
        Lw = weighted_split_form(n, k, l)
        window = Fraction(l) * mu
        basis = complete(IdealPresentation(n, I.at(Lw, window), I.var_names),
                         Lw, window)
        D = diagram_of(basis)
        ok, base = product_structure_check(D, k)
        offending = tuple(v for v in D.vertices if any(v[k:]))
        report = FlatnessReport(
            verdict="FLAT" if ok else "NOT-FLAT-AT-MU",
            k=k, l0=l0, l_used=Fraction(l), window=window,
            base_vertices=base_D.vertices, vertices=D.vertices,
            offending=offending,
            base_matches_evaluated=(base == base_D.vertices))
        if ok:
            return report
    return report


# -- dimension ------------------------------------------------------------

class DimensionReport(NamedTuple):
    k_best: int
    upper_bound: int
    matrix: tuple
    seed: int
    trials: int


def _axis_degrees(vertices: tuple) -> dict:
    """axis index -> degree of its axis vertex, for vertices on axes."""
    out = {}
    for v in vertices:
        nz = [i for i, b in enumerate(v) if b]
        if len(nz) == 1:
            out[nz[0]] = v[nz[0]]
    return out


def axis_vertex_dimension(I: IdealPresentation, mu, trials: int = 5,
                          seed: int = 0) -> DimensionReport:
    """Probabilistic Krull-dimension upper bound from axis vertices.

    Over seeded unimodular integer coordinate changes (the identity first),
    completes the transformed ideal and finds the largest k such that the
    staircase has a vertex on each of the first k axes; reports
    dim <= n - k_best.  The matrix achieving the best k is returned for
    reproducibility.  The bound is certified for the presented generators;
    its tightness depends on the genericity of the sampled changes.
    """
    return _axis_vertex_search(I, mu, trials, seed)[0]


def _axis_vertex_search(I: IdealPresentation, mu, trials: int, seed: int
                        ) -> tuple[DimensionReport, IdealPresentation, CertifiedBasis]:
    """`axis_vertex_dimension`, with the changed presentation whose matrix
    it reports (I itself for the identity, the first trial; else
    `I.substitute`) and its certified standard basis (standard form,
    window mu)."""
    mu = Fraction(mu)
    rng = random.Random(seed)
    n = I.n
    best_k, best = -1, None
    for t in range(max(1, trials)):
        M = linalg.identity_matrix(n) if t == 0 else linalg.seeded_unimodular(rng, n)
        J = I if t == 0 else I.substitute(M)
        basis = complete(J, std_form(n), mu)
        axes = _axis_degrees(diagram_of(basis).vertices)
        k = 0
        while k < n and k in axes:
            k += 1
        if k > best_k:
            best_k, best = k, (M, J, basis)
        if best_k == n:
            break
    return DimensionReport(best_k, n - best_k, best[0], seed, t + 1), *best[1:]


# -- exact row-reduction oracle --------------------------------------------

class ExactRowReducer:
    """Incremental fraction-free Gaussian elimination with sparse dict rows.

    Columns are exponents in n variables, ordered by the standard order
    (degree, reversed tuple); each column's key is computed once per
    reducer.  A row enters as the numerators of its coefficients over the
    lcm of their denominators and is reduced on insertion: while its
    leading column holds a pivot, it becomes a*row - b*pivot, with a and b
    the two leading entries divided by their gcd, so that no rational
    number is formed (fraction-free elimination, as in Bareiss 1968).  A
    pivot is stored primitive, with a positive leading entry.  Each step
    scales a row by a nonzero integer, so ranks and memberships are those
    over Q.

    A pivot has no term below its column, so none of lower degree.  Cut to
    degree <= e, the pivots of degree <= e keep their leading columns and
    stay independent, and the others vanish.  So when the rows span a
    subspace of the jet space of order eta whose cut to degree e is the
    subspace asked at e, its dimension there is the number of pivots of
    degree <= e (`oracle_jet_quotient_table`).
    """

    def __init__(self):
        self.pivots: dict = {}
        self._keys: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, row: dict) -> tuple:
        """(r, col): the row on integers, reduced until its leading column
        col holds no pivot; r is empty when the row is in the span."""
        den = reduce(math.lcm, [c.denominator for c in row.values()], 1)
        row = {e: c.numerator * (den // c.denominator) for e, c in row.items() if c}
        keys, pivots = self._keys, self.pivots
        keys.update({e: std_key(e) for e in row if e not in keys})
        while row:
            col = min(row, key=keys.__getitem__)
            pivot = pivots.get(col)
            if pivot is None:
                return row, col
            g = math.gcd(pivot[col], row[col])
            a, b = pivot[col] // g, row[col] // g
            if a != 1:
                row = {e: a * c for e, c in row.items()}
            for e, c in pivot.items():
                s = row.pop(e, 0) - b * c
                if s:
                    row[e] = s
        return row, None

    def add(self, row: dict) -> bool:
        """Insert a row {exponent: int or Fraction}; True if it increased
        the rank."""
        row, col = self._reduce(row)
        if not row:
            return False
        g = reduce(math.gcd, row.values(), 0) * (1 if row[col] > 0 else -1)
        self.pivots[col] = {e: c // g for e, c in row.items()}
        return True

    def member(self, row: dict) -> bool:
        return not self._reduce(row)[0]


def ideal_span_rows(gens: Sequence[PrecisionSeries], eta,
                    L: Optional[LinearForm] = None):
    """Rows spanning the image of the ideal in the L-sublevel jet space.

    For each generator g and monomial x^c with L(c) <= eta - ord_L(g),
    yields the row of x^c * g cut to {L <= eta}, on integers: g's
    numerators over the lcm of its denominators (`kernel._numerators`),
    read once per generator, so that each row is a nonzero multiple of the
    rational one.  A term x^e is kept when level(e) + level(c) is at most
    the level cap of eta.  Generators must be known at least to level eta
    under L (the default L is the standard form).
    """
    for g in gens:
        form = std_form(g.n) if L is None else L
        _admit(g, form, eta)
        if g.is_zero_up_to_prec:
            continue
        if g.n != form.n:
            raise DimensionMismatch(f"series in {g.n} variables vs form on {form.n}")
        level, cap = form.level, form.level_cap(eta)
        terms = [(level(e), e, c) for e, c in _numerators(g)[0].items()]
        for gamma in iter_sublevel(form, eta, min(terms)[0]):
            room = cap - level(gamma)
            yield {(*map(operator.add, e, gamma),): c
                   for up, e, c in terms if up <= room}


def _span(gens: Sequence[PrecisionSeries], eta, L: Optional[LinearForm] = None,
          monomials: Iterable[Exponent] = ()) -> ExactRowReducer:
    """A reducer holding the given monomials and the ideal image rows of
    `ideal_span_rows(gens, eta, L)`."""
    reducer = ExactRowReducer()
    for row in chain([{e: 1} for e in monomials], ideal_span_rows(gens, eta, L)):
        reducer.add(row)
    return reducer


def jet_space_dim(n: int, eta: int) -> int:
    return math.comb(n + eta, n)


def oracle_jet_quotient_table(I: IdealPresentation, eta: int,
                              monomials: Iterable[Exponent] = ()) -> list:
    """dim of (jet space of order e) / (ideal image + the given monomials of
    degree <= e), for e = 0, ..., eta, from one reduction at eta.

    Independent oracle for the staircase-complement count: no division, no
    standard bases, just exact linear algebra over the monomial basis.  Cut
    to degree e, each row at eta is the row at e or zero, so the rank at e
    is the number of pivots of degree <= e (`ExactRowReducer`).
    """
    degrees = [*map(sum, _span(I.gens, eta, monomials=monomials).pivots)]
    ranks = accumulate(map(degrees.count, range(eta + 1)))
    return [jet_space_dim(I.n, e) - r for e, r in enumerate(ranks)]


def oracle_jet_quotient_dim(I: IdealPresentation, eta: int) -> int:
    """dim of (jet space of order eta) / (ideal image): the last entry of
    `oracle_jet_quotient_table`."""
    return oracle_jet_quotient_table(I, eta)[-1]


def oracle_sublevel_quotient_dim(I: IdealPresentation, L: LinearForm,
                                 eta) -> int:
    """The weighted analogue: dim of the span of {L <= eta} monomials modulo
    the ideal image, cross-checking complement counts under any form."""
    return sum(1 for _ in iter_sublevel(L, eta)) - _span(I.gens, eta, L).rank


def tail_monomials(n: int, k: int, eta: int, min_total: int, min_tail: int):
    """Exponents with |b| in [min_total, eta] and tail degree (the degree
    in the variables from index k on) >= min_tail, in the order of
    `iter_sublevel`."""
    for beta in iter_sublevel(std_form(n), eta):
        if sum(beta) >= min_total and sum(beta[k:]) >= min_tail:
            yield beta


class ReductionReport(NamedTuple):
    k: int
    axis_degrees: tuple
    d: int
    eta: int
    monomial_checks: tuple  # ((exponent, bool), ...)
    all_ok: bool


def reduction_exponent(I: IdealPresentation, k: int, mu) -> ReductionReport:
    """Reduction exponent d = sum(d_j - 1) from the axis-vertex degrees.

    Requires axis vertices on each of the first k axes (apply a generic
    change first if needed).  Verifies, by the oracle at jet level d+1, that
    every degree-(d+1) monomial in the first k variables lies in
    I + (tail) * m^d.
    """
    if not 1 <= k <= I.n:
        raise DimensionMismatch(f"reduction index {k} out of range for n={I.n}")
    return _reduction_exponent(I, k, complete(I, std_form(I.n), Fraction(mu)))


def _reduction_exponent(I: IdealPresentation, k: int,
                        basis: CertifiedBasis) -> ReductionReport:
    """`reduction_exponent` for 1 <= k <= n, read from a certified standard
    basis of I under the standard form."""
    axes = _axis_degrees(diagram_of(basis).vertices)
    degrees = []
    for j in range(k):
        if j not in axes:
            raise MissingAxisVertex(f"no staircase vertex on axis {j + 1}")
        degrees.append(axes[j])
    d = sum(dj - 1 for dj in degrees)
    eta = d + 1
    reducer = _span(I.gens, eta, monomials=tail_monomials(I.n, k, eta, d + 1, 1))
    checks = []
    for combo in combinations_with_replacement(range(k), d + 1):
        beta = (*map(combo.count, range(I.n)),)
        checks.append((beta, reducer.member({beta: 1})))
    return ReductionReport(k, tuple(degrees), d, eta, tuple(checks),
                           all(ok for _, ok in checks))


def oracle_quotient_dim_mod_tail_power(I: IdealPresentation, k: int, m: int,
                                       eta: int) -> int:
    """dim of jet space / (I + (tail)^m) at order eta (stabilizes when the
    true quotient is finite-dimensional): the last entry of
    `oracle_jet_quotient_table` with the monomials of tail degree >= m."""
    return oracle_jet_quotient_table(I, eta, tail_monomials(I.n, k, eta, 0, m))[-1]
