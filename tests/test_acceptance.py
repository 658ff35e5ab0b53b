"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All arithmetic is exact rational, so every comparison below is
equality, never approximate.
"""

import random
import time
from fractions import Fraction as F

from localring import approx as AP
from localring import diagram as DG
from localring import equising as EQ
from localring import kernel as K
from localring import order as O
from localring import stdbasis as SB
from localring.division import COMPLEMENT, hironaka_divide
from conftest import rand_poly, rand_form
import oracles as OR

std1 = O.std_form(1)
std2 = O.std_form(2)
std3 = O.std_form(3)


def _report(n, label, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {n}: {label} ({elapsed:.1f}s, limit {limit}s)")
    assert ok, f"criterion {n} failed"
    assert elapsed < limit, f"criterion {n} exceeded its {limit}s budget"


def test_criterion_1_example_end_to_end():
    t0 = time.monotonic()
    ok = True
    for mu in (8, 12):
        rep = AP.cm_counterexample_runner(mu, K.variable(1, 0))
        claims = rep["claims"]
        # (a) the becker check verifies the triple
        ok &= claims["standard_basis"]["verified"]
        ok &= claims["standard_basis"]["verified_without_coprime_skip"]
        # (b) staircase vertices are exactly the three expected ones
        ok &= claims["standard_basis"]["vertices"] == \
            ((0, 5, 0), (2, 3, 0), (8, 0, 0))
        # (c) product structure holds at k = 2 under the weighted split form
        ok &= claims["base_flat"]["verdict"] == "FLAT"
        ok &= claims["base_flat"]["l0"] == 9
        # (d) s-series of the perturbed pair is exactly x^2 y^2 z^(mu-2) h(z)
        ok &= claims["s_series_identity"]["pass"]
        ok &= claims["s_series_identity"]["s_terms"] == ((2, 2, mu - 1),)
        # (e) perturbed verdict NOT-FLAT-AT-MU with a z-bearing new vertex
        ok &= claims["perturbed_flatness"]["verdict"] == "NOT-FLAT-AT-MU"
        ok &= any(v[2] for v in claims["perturbed_flatness"]["offending"])
        ok &= rep["all_pass"]
    _report(1, "example family end-to-end at mu=8 and mu=12, h=z",
            ok, time.monotonic() - t0, 10)


def test_criterion_2_division_property_suite():
    t0 = time.monotonic()
    rng = random.Random(8520)
    checked = 0
    ok = True
    while checked < 500:
        n = rng.randint(1, 3)
        L = O.std_form(n) if rng.random() < 0.7 else rand_form(rng, n)
        mu = rng.randint(3, 10)
        f = rand_poly(rng, n)
        if checked % 5 == 0:
            f = K.truncate(f, L, mu + 2)  # certified dividends divide too
            if f.is_zero_up_to_prec:
                continue
        divisors = [rand_poly(rng, n) for _ in range(rng.randint(1, 4))]
        res = hironaka_divide(f, divisors, L, mu)
        # support-region invariants at every emitted term
        for i, q in enumerate(res.quotients):
            alpha = res.partition.alphas[i]
            for e in q.terms:
                shifted = tuple(a + b for a, b in zip(e, alpha))
                ok &= res.partition.region_of(shifted) == i
        for e in res.remainder.terms:
            ok &= res.partition.region_of(e) is COMPLEMENT
        # exact reconstruction on the window
        total = res.remainder
        for q, g in zip(res.quotients, divisors):
            total = K.add(total, K.mul(q, g))
        ok &= K.agrees_up_to(total, f, L, mu)
        # permutations of the term enumeration order change nothing
        items = list(f.terms.items())
        rng.shuffle(items)
        shuffled = K.PrecisionSeries(n, dict(items), f.prec, f.form_ctx)
        res2 = hironaka_divide(shuffled, divisors, L, mu)
        ok &= res2.quotients == res.quotients and res2.remainder == res.remainder
        checked += 1
        if not ok:
            break
    _report(2, f"division reconstruction/support/permutation on {checked} instances",
            ok, time.monotonic() - t0, 60)


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(62001)
    ideals = [
        K.IdealPresentation(2, (K.monomial(2, (2, 0)), K.monomial(2, (0, 3)))),
        K.IdealPresentation(2, (K.series(2, {(0, 1): 1, (2, 0): -1}),
                                K.variable(2, 1))),
    ]
    ideals.append(AP.example_family(8))
    while len(ideals) < 50:
        n = rng.randint(1, 3)
        gens = tuple(rand_poly(rng, n, min_order=1, max_exp=2,
                               max_terms=rng.choice([1, 2, 3]))
                     for _ in range(rng.randint(1, 3)))
        ideals.append(K.IdealPresentation(n, gens))
    ok = True
    for I in ideals:
        basis = SB.complete(I, O.std_form(I.n), 8)
        hs = DG.hilbert_samuel(basis, 6).values
        oracle = tuple(DG.oracle_jet_quotient_dim(I, eta) for eta in range(7))
        ok &= hs == oracle
        if not ok:
            break
    _report(3, f"Hilbert-Samuel equals the row-reduction oracle on {len(ideals)} ideals",
            ok, time.monotonic() - t0, 120)


def test_criterion_4_jet_stability_suite():
    t0 = time.monotonic()
    mu = 6
    rng = random.Random(650)
    ok = True
    base = K.IdealPresentation(2, (K.monomial(2, (2, 0)), K.monomial(2, (0, 3))))
    base_vertices = DG.diagram_of(SB.complete(base, std2, mu)).vertices
    for _ in range(20):
        deltas = tuple(rand_poly(rng, 2, min_order=mu + 1, max_exp=5)
                       for _ in range(2))
        pert = AP.perturb(base, mu, deltas)
        vertices = DG.diagram_of(SB.complete(pert, std2, mu)).vertices
        ok &= vertices == base_vertices  # finite complement: full rigidity
    # infinite-complement seeds: window agreement and containment
    wide = K.IdealPresentation(2, (K.monomial(2, (2, 0)), K.monomial(2, (1, 1))))
    wide_D = DG.diagram_of(SB.complete(wide, std2, mu))
    for _ in range(8):
        deltas = tuple(rand_poly(rng, 2, min_order=mu + 1, max_exp=5)
                       for _ in range(2))
        pert = AP.perturb(wide, mu, deltas)
        D = DG.diagram_of(SB.complete(pert, std2, mu))
        for b in O.iter_sublevel(std2, mu):
            ok &= D.contains(b) == wide_D.contains(b)
            ok &= (not wide_D.contains(b)) or D.contains(b)
    _report(4, "staircase rigidity and window agreement under jet perturbations",
            ok, time.monotonic() - t0, 60)


def test_criterion_5_generalized_discriminants():
    t0 = time.monotonic()
    ok = True
    for p in range(1, 5):
        for j in range(1, p + 1):
            red = OR.generalized_discriminant(p, j)
            ok &= OR.symmetric_roundtrip_ok(red, OR.raw_discriminant(p, j))
    rng = random.Random(77001)
    count = 0
    while count < 200:
        p = rng.randint(1, 4)
        roots = []
        remaining = p
        while remaining:
            m = rng.randint(1, remaining)
            r = F(rng.randint(-8, 8), rng.randint(1, 4))
            if any(r == prev for prev, _ in roots):
                continue
            roots.append((r, m))
            remaining -= m
        coeffs = [F(1)]
        for r, m in roots:
            for _ in range(m):
                coeffs = [F(0)] + coeffs
                for i in range(len(coeffs) - 1):
                    coeffs[i] -= r * coeffs[i + 1]
        vec = tuple(coeffs[:-1])
        expected = p - len(roots)
        ok &= EQ.distinct_root_count_check(vec, p) == expected
        ok &= EQ.squarefree_defect(vec, p) == expected
        count += 1
        if not ok:
            break
    _report(5, f"discriminant round-trips and {count} vanishing patterns",
            ok, time.monotonic() - t0, 60)


def test_criterion_6_tower_construction():
    t0 = time.monotonic()
    ok = True
    # the hand-derived p=2 reduction: D_1 = 4 A0 - A1^2
    ok &= OR.generalized_discriminant(2, 1).expr == {(1, 0): F(4), (0, 2): F(-1)}

    cusp = K.series(2, {(0, 2): 1, (3, 0): -1})
    T = EQ.build_tower([cusp], 10, seed=0)
    ok &= [(lvl.degree, lvl.disc_index) for lvl in T.levels] == [(2, 1), (3, 3)]
    ok &= T.levels[1].poly.terms == {(3,): F(1)}
    ok &= EQ.validate_tower(T)["all_pass"]

    crossing = K.series(2, {(0, 2): 1, (2, 0): -1})
    T2 = EQ.build_tower([crossing], 10, seed=0)
    ok &= [(lvl.degree, lvl.disc_index) for lvl in T2.levels] == [(2, 1), (2, 2)]
    ok &= T2.levels[1].poly.terms == {(2,): F(1)}
    ok &= EQ.validate_tower(T2)["all_pass"]

    # preparation identity holds exactly up to mu = 10
    rng = random.Random(31)
    for f in (cusp, crossing,
              K.mul(K.series(2, {(0, 0): 1, (1, 0): 1}), cusp),
              K.mul(K.series(2, {(0, 0): 1, (0, 1): -2, (1, 1): 1}), crossing)):
        P, u = EQ.weierstrass_prepare(f, 1, 10)
        ok &= K.agrees_up_to(K.mul(u, P), K.truncate(f, std2, 10), std2, 10)
        ok &= u.coefficient((0, 0)) != 0
    _report(6, "cusp and crossing towers validate; preparation identity at mu=10",
            ok, time.monotonic() - t0, 30)


def test_criterion_7_reduction_identities():
    t0 = time.monotonic()
    ok = True
    # plane monomial ideal: d = (2-1) + (3-1) = 3
    I = K.IdealPresentation(2, (K.monomial(2, (2, 0)), K.monomial(2, (0, 3))))
    rep = DG.reduction_exponent(I, 2, 8)
    ok &= rep.d == 3 and rep.all_ok
    for m in (1, 2):
        res = OR.reduction_identity_check(I, 2, rep.d, m)
        ok &= res["equal"] and res["eta"] <= rep.d + 3

    # three-variable family: d = (8-1) + (5-1) = 11 at k = 2
    J = K.IdealPresentation(3, AP.example_family(12).at(std3, 14),
                            ("x", "y", "z"))
    repJ = DG.reduction_exponent(J, 2, 14)
    ok &= repJ.d == 11 and repJ.axis_degrees == (8, 5) and repJ.all_ok
    for m in (1, 2):
        res = OR.reduction_identity_check(J, 2, repJ.d, m)
        ok &= res["equal"] and res["eta"] <= repJ.d + 3
    _report(7, "reduction exponent memberships and jet-scale identities",
            ok, time.monotonic() - t0, 120)
