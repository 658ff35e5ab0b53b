"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(BENCH_DIR, "pins.json"), encoding="utf-8") as _fh:
    PINS = json.load(_fh)


# -- span arithmetic -----------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_span_arithmetic_on_a_synthetic_tree():
    # a.f [0, 100) holds b.g [10, 40) and b.g [50, 90); the second b.g holds
    # c.h [60, 70).  Self times: a.f 30, b.g 30 + 30, c.h 10.
    clock = FakeClock()
    tr = T.Tracer(clock=clock)
    tr.op = 7

    def at(t):
        clock.now = t

    at(0); root = tr.enter("a.f")
    at(10); g1 = tr.enter("b.g")
    at(40); tr.exit(g1)
    at(50); g2 = tr.enter("b.g")
    at(60); h = tr.enter("c.h")
    at(70); tr.exit(h)
    at(90); tr.exit(g2)
    at(100); tr.exit(root)

    expected = {"a.f": 30, "b.g": 60, "c.h": 10}
    assert dict(tr.self_ns) == expected
    assert T.self_times(tr.spans) == expected
    assert sum(expected.values()) == 100          # self times tile the root
    assert tr.calls == {"a.f": 1, "b.g": 2, "c.h": 1}
    parents = {s[0]: s[4] for s in tr.spans}
    assert parents == {1: None, 2: 1, 3: 1, 4: 3}
    assert {s[5] for s in tr.spans} == {7}


def test_refusal_counted_once_where_it_leaves_the_layer():
    clock = FakeClock()
    tr = T.Tracer(clock=clock)
    outer = tr.enter("equising.build_tower")
    inner = tr.enter("equising.generalized_discriminant")
    err = ValueError("refused")
    tr.exit(inner, err)
    tr.exit(outer, err)
    assert tr.counters["equising.refused"] == 1


def test_offline_self_times_clip_overlapping_children():
    spans = [(1, "a", 0, 10, None, 0), (2, "b", 2, 6, 1, 0), (3, "b", 4, 12, 1, 0)]
    assert T.self_times(spans)["a"] == 2           # [2, 10) is covered


# -- installation from outside ----------------------------------------------------------

def test_install_reaches_every_namespace_and_uninstalls():
    import localring
    from localring import diagram, division, kernel, order
    original = order.lvalue
    tr = T.Tracer()
    uninstall = T.install(tr)
    try:
        for module in (localring, order, kernel, division, diagram):
            assert module.lvalue.__traced_original__ is original
        assert diagram.ExactRowReducer.add.__traced_original__ is not None
        assert order.lvalue(order.std_form(2), (1, 2)) == 3
        assert tr.calls["order.lvalue"] == 1
    finally:
        uninstall()
    for module in (localring, order, kernel, division, diagram):
        assert module.lvalue is original
    assert not hasattr(diagram.ExactRowReducer.add, "__traced_original__")


def _traced_counts(items):
    tr = T.Tracer()
    uninstall = T.install(tr)
    try:
        for op, item in enumerate(items):
            tr.op = op
            try:
                W.run_item(item)
            except W.Refusal:
                pass
        # the row reducer, which only the oracles use
        from localring import diagram as DG
        spec = items[0].spec
        DG.oracle_jet_quotient_dim(W._presentation(spec["n"], spec["gens"]), 6)
    finally:
        uninstall()
    metrics = T.layer_metrics(T.merge([tr.summary()]))
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_counts_identical_across_two_traced_runs():
    W.warm_up_towers()
    items = []
    for workload in ("sbasis-dense", "towers"):
        ops = next(W.epochs(workload, 5, W.catalog(workload)))
        items += ops[:8]
    first = _traced_counts(items)
    assert first == _traced_counts(items)
    assert first["division.calls"] > 0 and first["diagram.rows"] > 0
    assert first["equising.eval_series.calls"] > 0


# -- workload generation -------------------------------------------------------------------

def _keys(workload, seed, count=2):
    stream = W.epochs(workload, seed, W.catalog(workload))
    return [[item.key for item in next(stream)] for _ in range(count)]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_stream_is_a_pure_function_of_the_seed(workload):
    first = _keys(workload, 11)
    assert first == _keys(workload, 11)
    assert first != _keys(workload, 12)
    assert first[0] != first[1]
    assert sorted(first[0]) == sorted(first[1])       # same multiset per epoch
    assert len(first[0]) >= 100                       # p90 has 10 ops beyond it


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_every_catalog_item_is_pinned(workload):
    pins = PINS[workload]
    strata = W.catalog(workload)
    keys = {item.key for items in strata.values() for item in items}
    assert set(pins) == keys
    for items in strata.values():
        for item in items:
            assert pins[item.key]["input"] == item.fingerprint(), item.key


def test_known_defects_are_exactly_the_refused_pins():
    expected = {("towers", "deg6"), ("cli", "broken")}
    for workload in W.WORKLOADS:
        for stratum, items in W.catalog(workload).items():
            refused = {PINS[workload][item.key]["result"] is None for item in items}
            assert refused == {(workload, stratum) in expected}, (workload, stratum)


# -- pinned results against the independent oracles ---------------------------------------

PINS_BY_KEY = {key: pin for pins in PINS.values() for key, pin in pins.items()}


def _checked(item):
    result = W.run_item(item)
    assert W.digest(result) == PINS_BY_KEY[item.key]["result"], item.key
    return result


def test_std_hilbert_samuel_pins_match_the_jet_oracle():
    from localring import diagram as DG
    strata = W.catalog("sbasis-dense")
    for item in strata["std3"][:20] + strata["std4"][:20]:
        hs = _checked(item)["hs"]
        I = W._presentation(item.spec["n"], item.spec["gens"])
        assert hs == [DG.oracle_jet_quotient_dim(I, eta)
                      for eta in range(item.spec["mu"] + 1)], item.key


def test_weighted_count_pins_match_the_sublevel_oracle():
    from localring import diagram as DG, order as O
    strata = W.catalog("sbasis-dense")
    for item in strata["w3"][:12] + strata["w4"][:6]:
        count = _checked(item)["count"]
        L = O.LinearForm(tuple(Fraction(w) for w in item.spec["weights"]))
        I = W._presentation(item.spec["n"], item.spec["gens"])
        window = Fraction(item.spec["window"])
        assert count == DG.oracle_sublevel_quotient_dim(I, L, window), item.key


def test_root_count_pins_match_the_gcd_defect():
    from localring import equising as EQ
    W.warm_up_towers()
    for item in W.catalog("towers")["roots"]:
        coeffs = [Fraction(c) for c in item.spec["coeffs"]]
        assert _checked(item)["defect"] == EQ.squarefree_defect(coeffs, len(coeffs))


# -- scaling by machine speed ------------------------------------------------------------

def test_each_operation_is_scaled_by_the_calibration_samples_nearest_to_it():
    import speed as S
    samples = [(float(t), 0.002 if t < 10 else 0.008) for t in range(20)]
    assert S.factors(samples, [2.0, 17.5]) == [S.REF_S / 0.002, S.REF_S / 0.008]
    assert S.factor(samples) == S.REF_S / 0.005
