"""Staircases of initial exponents, Hilbert-Samuel tables, flatness and
dimension diagnostics, and the exact row-reduction oracle.

Every claim made here carries the certification window of the basis it came
from: a diagram computed from a mu-certified basis describes the true
staircase on {L <= mu} and says nothing beyond.  Complement counts and
Hilbert-Samuel tables are read off the numerator of the staircase's weighted
Hilbert series, which is built from the vertices alone, so their cost does
not grow with the number of points outside the staircase.  The oracle
section computes jet-space dimensions by exact rational row reduction over
the monomial basis, independently of the division machinery, and is used to
cross-check it.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
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
    _ZERO,
    IdealPresentation,
    PrecisionSeries,
    _admit,
    _window,
    evaluate_tail_zero,
    prec_at_least,
)
from .order import (
    Exponent,
    LinearForm,
    is_standard,
    iter_sublevel,
    lvalue,
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
    carry to the window, with PrecisionShortfall.
    """
    mu = Fraction(mu)
    n = I.n
    ev = evaluated_ideal(
        IdealPresentation(n, I.at(std_form(n), mu), I.var_names), k)
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
    """Incremental Gaussian elimination over Q with sparse dict rows.

    Columns are exponents in n variables, ordered by the standard order
    (degree, reversed tuple); rows are reduced against the stored pivots on
    insertion.  Monomial rows become pivots in O(1) and immediately shorten
    later rows.
    """

    def __init__(self):
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        row = {e: Fraction(c) for e, c in row.items() if c}
        while row:
            col = min(row, key=std_key)
            pivot = self.pivots.get(col)
            if pivot is None:
                return row
            factor = row[col]
            for e, c in pivot.items():
                s = row.get(e, _ZERO) - factor * c
                if s:
                    row[e] = s
                else:
                    row.pop(e, None)
        return row

    def add(self, row: dict) -> bool:
        """Insert a row; True if it increased the rank."""
        row = self.reduce(row)
        if not row:
            return False
        col = min(row, key=std_key)
        lead = row[col]
        self.pivots[col] = {e: c / lead for e, c in row.items()}
        return True

    def add_monomials(self, exponents: Iterable[Exponent]) -> None:
        for e in exponents:
            if e not in self.pivots:
                self.add({e: Fraction(1)})

    def member(self, row: dict) -> bool:
        return not self.reduce(row)


def ideal_span_rows(gens: Sequence[PrecisionSeries], eta,
                    L: Optional[LinearForm] = None):
    """Rows spanning the image of the ideal in the L-sublevel jet space.

    For each generator g and monomial x^c with L(c) <= eta - ord_L(g),
    yields the coefficient row of x^c * g truncated to {L <= eta}.
    Generators must be known at least to level eta under L (the default L
    is the standard form).
    """
    for g in gens:
        form = std_form(g.n) if L is None else L
        _admit(g, form, eta)
        if g.is_zero_up_to_prec:
            continue
        o = min(lvalue(form, e) for e in g.terms)
        for gamma in iter_sublevel(form, eta - o):
            row = _window({(*map(operator.add, e, gamma),): c
                           for e, c in g.terms.items()}, form, eta)
            if row:
                yield row


def _span(gens: Sequence[PrecisionSeries], eta, L: Optional[LinearForm] = None,
          monomials: Iterable[Exponent] = ()) -> ExactRowReducer:
    """A reducer holding the given monomials and the ideal image rows of
    `ideal_span_rows(gens, eta, L)`."""
    reducer = ExactRowReducer()
    reducer.add_monomials(monomials)
    for row in ideal_span_rows(gens, eta, L):
        reducer.add(row)
    return reducer


def jet_space_dim(n: int, eta: int) -> int:
    return math.comb(n + eta, n)


def oracle_jet_quotient_dim(I: IdealPresentation, eta: int) -> int:
    """dim of (jet space of order eta) / (ideal image), by row reduction.

    Independent oracle for the staircase-complement count: no division, no
    standard bases, just exact linear algebra over the monomial basis.
    """
    return jet_space_dim(I.n, eta) - _span(I.gens, eta).rank


def oracle_sublevel_quotient_dim(I: IdealPresentation, L: LinearForm,
                                 eta) -> int:
    """The weighted analogue: dim of the span of {L <= eta} monomials modulo
    the ideal image, cross-checking complement counts under any form."""
    total = sum(1 for _ in iter_sublevel(L, eta))
    return total - _span(I.gens, eta, L).rank


def tail_monomials(n: int, k: int, eta: int, min_total: int, min_tail: int):
    """Exponents with |b| in [min_total, eta] and tail degree >= min_tail."""
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
    all_ok = True
    for combo in combinations_with_replacement(range(k), d + 1):
        beta = [0] * I.n
        for var in combo:
            beta[var] += 1
        beta = tuple(beta)
        ok = reducer.member({beta: Fraction(1)})
        checks.append((beta, ok))
        all_ok = all_ok and ok
    return ReductionReport(k, tuple(degrees), d, eta, tuple(checks), all_ok)


def oracle_quotient_dim_mod_tail_power(I: IdealPresentation, k: int, m: int,
                                       eta: int) -> int:
    """dim of jet space / (I + (tail)^m) at order eta (stabilizes when the
    true quotient is finite-dimensional)."""
    tail = _span(I.gens, eta, monomials=tail_monomials(I.n, k, eta, 0, m))
    return jet_space_dim(I.n, eta) - tail.rank
