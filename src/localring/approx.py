"""Jets, perturbations, and scripted equisingularity experiments.

A perturbation is itself an `IdealPresentation` (`perturb`), so a runner
compares one presentation with another.

The experiment runners are named scenarios, not a theorem prover: each one
checks the verifiable consequences of a stability statement on concrete
instances and emits a claim-by-claim report.  Thresholds that the underlying
proofs derive from vertex data are recomputed per instance and reported,
never hard-coded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .diagram import (
    _axis_degrees,
    _axis_vertex_search,
    _complement_levels,
    diagram_of,
    flatness_weight_search,
    _reduction_exponent,
    hilbert_samuel,
    oracle_quotient_dim_mod_tail_power,
)
from .errors import PrecisionShortfall, PresentationError
from .kernel import (
    IdealPresentation,
    PrecisionSeries,
    _window,
    add,
    agrees_up_to,
    certified_under,
    embed,
    exp_jet,
    expanded,
    monomial,
    mul,
    prec_min,
    truncate,
    variable,
)
from .order import LinearForm, lvalue, std_form
from .stdbasis import complete, becker_check, s_series


def jet(f: PrecisionSeries, L: LinearForm, mu) -> PrecisionSeries:
    """Drop all terms with L > mu: the canonical polynomial representative.

    The result is EXACT as a polynomial.  Idempotent, commutes with sums,
    and preserves the initial exponent whenever mu >= L(inexp f).
    """
    return PrecisionSeries(f.n, truncate(f, L, mu).terms)


def perturb(base: IdealPresentation, mu, deltas,
            source: Optional[Callable] = None) -> IdealPresentation:
    """The perturbed presentation G_i = F_i + delta_i, with the same
    standard mu-jets as `base`.

    It refuses a delta count other than the generator count, a delta of
    another dimension, and a delta term of standard level <= mu.
    `source`, when given, expands the deltas on any window, as a
    presentation's source does its generators; the result's source adds
    `base.at(L, w)` to the deltas certified under (L, w) by
    `kernel.expanded`.
    """
    mu = Fraction(mu)
    deltas = tuple(deltas)
    if len(deltas) != len(base.gens):
        raise PresentationError("one delta per generator (zero allowed)")
    std = std_form(base.n)
    for d in deltas:
        if d.n != base.n:
            raise PresentationError("delta dimension differs from base")
        inside = _window(d.terms, std, mu)
        if inside:
            e = next(iter(inside))
            raise PrecisionShortfall(
                f"delta term {e} has L-value <= {mu}; the jet would change")

    def expand(form: LinearForm, window) -> tuple:
        return tuple([add(g, d) for g, d in zip(
            base.at(form, window), expanded(deltas, source, form, window))])

    gens = tuple([add(g, d) for g, d in zip(base.gens, deltas)])
    return IdealPresentation(base.n, gens, base.var_names, expand)


# -- experiment runners -----------------------------------------------------

def _base_staircase_threshold(base_vertices: tuple) -> Optional[int]:
    """Largest level carrying complement points of a finite-complement base
    staircase (None when the complement is infinite), read off the counts
    per level that `diagram._complement_levels` takes from the
    Hilbert-series numerator."""
    if not base_vertices:
        return None
    caps = _axis_degrees(base_vertices)
    k = len(base_vertices[0])
    if len(caps) != k:
        return None
    # every complement point lies in the box below the axis vertices
    counts = _complement_levels(base_vertices, std_form(k).int_weights,
                                sum(caps.values()) - k)
    return max((level for level, c in enumerate(counts) if c), default=0)


def ci_stability_experiment(I: IdealPresentation, mu,
                            deltas: Sequence[PrecisionSeries],
                            seed: int = 0, trials: int = 4,
                            source: Optional[Callable] = None) -> dict:
    """Full pipeline comparison between I and its perturbation.

    Runs axis-vertex dimension, reduction exponent, the flatness weight
    search, Hilbert-Samuel tables on the certified window, and the oracle
    dimensions of the quotients by powers of the tail ideal, on both I and
    the perturbed presentation, and reports equality per item.  The
    stability threshold mu0 = max(mu1, mu2) is recomputed from vertex data.
    Each of the two changed presentations is completed once (the one of I
    by the dimension search that picks the matrix), and the reduction
    exponents, the Hilbert-Samuel tables and (for k = n) the base
    vertices are read from those bases.

    The perturbation P = `perturb(I, mu, deltas, source)` is built (and
    its deltas checked) before the search.  The changed presentation A is
    `I.substitute(M)` for the matrix M the search picks (I itself for the
    identity), and B is `P.substitute(M)` (P itself for the identity): a
    linear change commutes with the sum and keeps standard degree, so B is
    A plus the deltas changed by M.  A and B keep a source, so the
    flatness search expands them to its weighted window in any
    coordinates.
    """
    mu = Fraction(mu)
    P = perturb(I, mu, deltas, source)

    dim_rep, A, basis_a = _axis_vertex_search(I, mu, trials, seed)
    k = dim_rep.k_best
    report: dict = {
        "mu": mu,
        "seed": seed,
        "matrix": dim_rep.matrix,
        "k": k,
        "ci_witnessed": len(I.gens) == k,
    }
    if k == 0:
        report["status"] = "NO-AXIS-VERTEX"
        return report

    B = P if A is I else P.substitute(dim_rep.matrix)

    items: dict = {}

    red_a = _reduction_exponent(A, k, basis_a)
    basis_b = complete(B, std_form(I.n), mu)
    red_b = _reduction_exponent(B, k, basis_b)
    items["reduction"] = {
        "d": red_a.d, "d_perturbed": red_b.d,
        "axis_degrees": red_a.axis_degrees,
        "cor_membership_ok": red_a.all_ok and red_b.all_ok,
        "equal": red_a.d == red_b.d and red_a.axis_degrees == red_b.axis_degrees,
    }

    if k < I.n:
        flat_a = flatness_weight_search(A, k, mu)
        flat_b = flatness_weight_search(B, k, mu)
        items["flatness"] = {
            "verdict": flat_a.verdict, "verdict_perturbed": flat_b.verdict,
            "l0": flat_a.l0,
            "equal": flat_a.verdict == flat_b.verdict
            and flat_a.vertices == flat_b.vertices,
        }
        base_vertices = flat_a.base_vertices
        quotients = {}
        eta = int(mu)
        for m in (1, 2):
            qa = oracle_quotient_dim_mod_tail_power(A, k, m, eta)
            qa_prev = oracle_quotient_dim_mod_tail_power(A, k, m, eta - 1)
            qb = oracle_quotient_dim_mod_tail_power(B, k, m, eta)
            quotients[m] = {"dim": qa, "dim_perturbed": qb,
                            "stabilized": qa == qa_prev, "equal": qa == qb}
        items["tail_quotients"] = quotients
    else:
        base_vertices = diagram_of(basis_a).vertices

    eta_max = int(mu)
    hs_a = hilbert_samuel(basis_a, eta_max).values
    hs_b = hilbert_samuel(basis_b, eta_max).values
    items["hilbert_samuel"] = {"table": hs_a, "table_perturbed": hs_b,
                               "equal": hs_a == hs_b}

    mu1 = max(red_a.axis_degrees)
    mu2_complement = _base_staircase_threshold(base_vertices)
    mu2_vertices = max(int(sum(v)) for v in base_vertices)
    if mu2_complement is None:
        mu0 = None
    else:
        mu0 = max(mu1, mu2_vertices, mu2_complement)
    report["mu0"] = mu0
    report["regime_guaranteed"] = mu0 is not None and mu >= mu0
    report["items"] = items
    report["all_equal"] = all(
        entry["equal"] for name, entry in items.items() if name != "tail_quotients"
    ) and all(q["equal"] for q in items.get("tail_quotients", {}).values())
    return report


# -- the Cohen-Macaulay counterexample scenario -----------------------------

_EX_NAMES = ("x", "y", "z")


def example_family(mu: int, h: Optional[PrecisionSeries] = None
                   ) -> IdealPresentation:
    """The three-generator family x^8, y^5 + y^2 z^4 e^z,
    x^2 y^3 + x^2 z^4 e^z, optionally perturbed by y^2 z^(mu-2) h(z).

    The generators are on the standard window mu.  The source expands the
    exponential jet to any form and window, and asks h for its part of the
    window by `certified_under`.
    """
    def source(form: LinearForm, window) -> tuple:
        n = 3
        E = exp_jet(variable(n, 2), form, window)
        F1 = monomial(n, (8, 0, 0))
        F2 = add(monomial(n, (0, 5, 0)), mul(monomial(n, (0, 2, 4)), E))
        F3 = add(monomial(n, (2, 3, 0)), mul(monomial(n, (2, 0, 4)), E))
        if h is not None and not h.is_zero_up_to_prec:
            shift = (0, 2, mu - 2)
            h1 = certified_under(h, LinearForm((form.weights[2],)),
                                 window - lvalue(form, shift))
            F2 = add(F2, mul(monomial(n, shift), embed(h1, n, (2,), form)))
        return F1, F2, F3

    return IdealPresentation(3, source(std_form(3), mu), _EX_NAMES, source)


def cm_counterexample_runner(mu: int, h: Union[PrecisionSeries, None],
                             verify_mu: Optional[int] = None) -> dict:
    """End-to-end run of the non-finitely-determined Cohen-Macaulay scenario.

    Checks, for the base triple and its order-mu perturbation by h(z) with
    h(0) = 0: (1) the triple passes the s-series criterion and its staircase
    has exactly the three expected vertices; (2) the base quotient is flat
    over the last variable (product staircase under the split form);
    (3) the s-series of the perturbed pair equals x^2 y^2 z^(mu-2) h(z)
    exactly; (4) the perturbed ideal fails flatness, with an adjoined vertex
    carrying the last variable.  With h = 0 the perturbation is degenerate
    and flatness must be preserved instead.
    """
    verify_mu = mu if verify_mu is None else verify_mu
    if mu < 8 or verify_mu < 8:
        raise PresentationError(
            f"the scenario needs {'mu' if mu < 8 else 'verify_mu'} >= 8")
    degenerate = h is None or h.is_zero_up_to_prec
    if not degenerate:
        if h.n != 1:
            raise PresentationError("h must be a series in the last variable alone")
        if h.coefficient((0,)):
            raise PresentationError("h must vanish at the origin")
    std3 = std_form(3)

    I = example_family(mu)
    Ip = example_family(mu, h)

    claims: dict = {}

    F = I.at(std3, verify_mu)
    basis = becker_check(F, std3, verify_mu)
    basis_full = becker_check(F, std3, verify_mu, use_coprime_skip=False)
    vertices = diagram_of(basis).vertices if basis.verified else ()
    expected_vertices = ((0, 5, 0), (2, 3, 0), (8, 0, 0))
    claims["standard_basis"] = {
        "pass": basis.verified and basis_full.verified
        and vertices == expected_vertices,
        "verified": basis.verified,
        "verified_without_coprime_skip": basis_full.verified,
        "vertices": vertices,
    }

    flat = flatness_weight_search(I, 2, mu)
    claims["base_flat"] = {
        "pass": flat.verdict == "FLAT",
        "verdict": flat.verdict,
        "l0": flat.l0,
        "window": flat.window,
        "vertices": flat.vertices,
    }

    W = verify_mu + 6
    _, G2, G3 = Ip.at(std3, W)
    S = s_series(G2, G3, std3)
    if degenerate:
        expected = PrecisionSeries(3, {})
    else:
        # mul carries h's bound: the identity needs h only up to W - mu - 2
        expected = mul(monomial(3, (2, 2, mu - 2)), embed(h, 3, (2,), std3))
    window = prec_min(S.prec, Fraction(W))
    identity_ok = agrees_up_to(S, expected, std3, window)
    claims["s_series_identity"] = {
        "pass": identity_ok,
        "window": window,
        "s_terms": tuple(sorted(S.terms)),
    }

    # widen the verification window by the valuation of h: the candidate
    # offending vertex sits at total degree mu + ord(h)
    depth = mu if degenerate else mu + min(sum(e) for e in h.terms)
    pflat = flatness_weight_search(Ip, 2, depth)
    if degenerate:
        ok = pflat.verdict == "FLAT"
    else:
        ok = (pflat.verdict == "NOT-FLAT-AT-MU"
              and any(v[2] for v in pflat.offending))
    claims["perturbed_flatness"] = {
        "pass": ok,
        "verdict": pflat.verdict,
        "offending": pflat.offending,
        "degenerate": degenerate,
    }

    return {
        "mu": mu,
        "verify_mu": verify_mu,
        "degenerate": degenerate,
        "claims": claims,
        "all_pass": all(c["pass"] for c in claims.values()),
    }
