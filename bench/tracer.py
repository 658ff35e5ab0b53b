"""Span tracing of the localring layers, installed from outside the package.

The package imports functions by name (``from .order import lvalue``), so a
wrapper has to replace the function in every ``localring`` module namespace
that binds it.  ``install`` does that for every public module-level function
of the traced layers, and patches ``ExactRowReducer.add`` on its class.

A span is recorded for every call of a wrapped function: its name, start,
end, parent span and operation id.  Self time of a span is its duration
minus the time covered by its child spans; it is accumulated on the fly per
span name, and ``self_times`` recomputes it from a stored span list.  Work
inside unwrapped helpers (``linalg``, ``errors``, private functions,
``Fraction`` arithmetic) counts toward the self time of the wrapped function
that performs it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("kernel", "order", "division", "stdbasis", "diagram", "approx",
          "equising", "parser", "cli")

#: spans kept for the output file; later spans still count in the totals
SPAN_CAP = 200_000

ORACLE_FUNCTIONS = ("diagram.oracle_jet_quotient_dim",
                    "diagram.oracle_sublevel_quotient_dim",
                    "diagram.oracle_quotient_dim_mod_tail_power",
                    "diagram.ideal_span_rows",
                    "diagram.jet_space_dim",
                    "diagram.ExactRowReducer.add")


class Tracer:
    """Span stack plus per-name totals.  One tracer per process."""

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.stack: list = []           # [span id, name, start, child ns]
        self.spans: list = []           # (id, name, start, end, parent, op)
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self.op = None
        self._next_id = 0

    def enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, self.clock(), 0]
        self.stack.append(frame)
        self.calls[name] += 1
        return frame

    def exit(self, frame: list, error: BaseException = None) -> None:
        end = self.clock()
        self.stack.pop()
        span_id, name, start, child_ns = frame
        duration = end - start
        self.self_ns[name] += duration - child_ns
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent else None, self.op))
        else:
            self.dropped += 1
        if error is not None and not isinstance(error, (StopIteration, GeneratorExit)):
            layer = name.split(".", 1)[0]
            if parent is None or parent[1].split(".", 1)[0] != layer:
                self.counters[f"{layer}.refused"] += 1

    def summary(self) -> dict:
        return {"calls": dict(self.calls),
                "self_ns": dict(self.self_ns),
                "counters": dict(self.counters)}


def self_times(spans) -> dict:
    """Self time per span name from a list of (id, name, start, end, parent,
    op) tuples: duration minus the union of the direct children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    totals: Counter = Counter()
    for span_id, name, start, end, _, _ in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += end - start - covered
    return dict(totals)


# -- wrappers --------------------------------------------------------------------

def wrap_function(tracer: Tracer, name: str, fn, observe=None):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            exit_(frame, exc)
            raise
        exit_(frame)
        if observe is not None:
            observe(tracer, args, result)
        return result

    traced.__traced_original__ = fn
    return traced


def _wrap_generator(tracer: Tracer, name: str, fn):
    """One span per resumption, so the consumer's own time stays its own."""
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = enter(name)
        try:
            gen = fn(*args, **kwargs)
        finally:
            exit_(frame)
        while True:
            frame = enter(name + ".next")
            try:
                value = next(gen)
            except StopIteration:
                exit_(frame)
                return
            except BaseException as exc:
                exit_(frame, exc)
                raise
            exit_(frame)
            yield value

    traced.__traced_original__ = fn
    return traced


def _observe_division(tracer, args, result):
    tracer.counters["division.dividend_terms"] += len(args[0].terms)
    tracer.counters["division.zero_remainders"] += bool(result.remainder_is_zero)
    parent = tracer.stack[-1][1] if tracer.stack else ""
    if parent.startswith("stdbasis."):
        tracer.counters["stdbasis.pairs_divided"] += 1


def _observe_complete(tracer, args, result):
    tracer.counters["stdbasis.adjoined"] += len(result.gens) - len(args[0].gens)


def _observe_row(tracer, args, result):
    tracer.counters["diagram.rank_rows"] += bool(result)


OBSERVERS = {
    "division.hironaka_divide": _observe_division,
    "stdbasis.complete": _observe_complete,
    "diagram.ExactRowReducer.add": _observe_row,
}


def install(tracer: Tracer):
    """Wrap every public function of the traced layers in every localring
    namespace.  Returns a callable that restores the originals."""
    importlib.import_module("localring")
    modules = {layer: importlib.import_module(f"localring.{layer}")
               for layer in LAYERS}
    replacement = {}
    for layer, module in modules.items():
        for attr, fn in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            name = f"{layer}.{attr}"
            if inspect.isgeneratorfunction(fn):
                replacement[fn] = _wrap_generator(tracer, name, fn)
            else:
                replacement[fn] = wrap_function(tracer, name, fn,
                                                OBSERVERS.get(name))
    restore = []
    namespaces = [m for n, m in list(sys.modules.items())
                  if n == "localring" or n.startswith("localring.")]
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replacement:
                setattr(module, attr, replacement[value])
                restore.append((module, attr, value))
    reducer = modules["diagram"].ExactRowReducer
    original_add = reducer.add
    reducer.add = wrap_function(tracer, "diagram.ExactRowReducer.add",
                                 original_add,
                                 OBSERVERS["diagram.ExactRowReducer.add"])
    restore.append((reducer, "add", original_add))

    def uninstall():
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)

    return uninstall


# -- per-layer metrics -------------------------------------------------------------

def merge(summaries) -> dict:
    total = {"calls": Counter(), "self_ns": Counter(), "counters": Counter()}
    for s in summaries:
        for key in total:
            total[key].update(s[key])
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics (values only) from merged tracer totals."""
    calls, self_ns, counters = (summary["calls"], summary["self_ns"],
                                summary["counters"])

    def layer_calls(layer):
        return sum(v for k, v in calls.items()
                   if k.startswith(layer + ".") and not k.endswith(".next"))

    def layer_self(layer):
        return sum(v for k, v in self_ns.items() if k.startswith(layer + ".")) / 1e9

    def self_s(*names):
        return sum(self_ns.get(n, 0) + self_ns.get(n + ".next", 0)
                   for n in names) / 1e9

    divisions = calls.get("division.hironaka_divide", 0)
    pairs = counters.get("stdbasis.pairs_divided", 0)
    rows = calls.get("diagram.ExactRowReducer.add", 0)
    return {
        "kernel.calls": layer_calls("kernel"),
        "kernel.self_s": layer_self("kernel"),
        "kernel.mul.self_s": self_s("kernel.mul"),
        "kernel.substitute_linear.self_s": self_s("kernel.substitute_linear"),
        "order.lvalue.calls": calls.get("order.lvalue", 0),
        "order.sort_key.calls": calls.get("order.sort_key", 0),
        "order.initial_term.calls": calls.get("order.initial_term", 0),
        "order.self_s": layer_self("order"),
        "division.calls": layer_calls("division"),
        "division.self_s": layer_self("division"),
        "division.dividend_terms": counters.get("division.dividend_terms", 0),
        "division.zero_remainder_ratio": _ratio(
            counters.get("division.zero_remainders", 0), divisions),
        "stdbasis.self_s": layer_self("stdbasis"),
        "stdbasis.pairs_divided": pairs,
        "stdbasis.adjoined": counters.get("stdbasis.adjoined", 0),
        "stdbasis.useful_pair_ratio": _ratio(
            counters.get("stdbasis.adjoined", 0), pairs),
        "diagram.self_s": layer_self("diagram"),
        "diagram.oracle.self_s": self_s(*ORACLE_FUNCTIONS),
        "diagram.rows": rows,
        "diagram.row_rank_ratio": _ratio(counters.get("diagram.rank_rows", 0), rows),
        "diagram.complement_count.self_s": self_s("diagram.complement_count"),
        "approx.self_s": layer_self("approx"),
        "approx.exp_jet.self_s": self_s("approx.exp_jet"),
        "equising.eval_series.calls": calls.get("equising.evaluate_at_series", 0),
        "equising.eval_series.self_s": self_s("equising.evaluate_at_series"),
        "equising.prepare.self_s": self_s("equising.weierstrass_prepare"),
        "equising.self_s": layer_self("equising"),
        "equising.refused": counters.get("equising.refused", 0),
        "parser.calls": layer_calls("parser"),
        "parser.self_s": layer_self("parser"),
        "cli.self_s": layer_self("cli"),
        "cli.json_s": self_s("cli.json"),
    }
