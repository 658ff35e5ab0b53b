"""The localring benchmark: one command, three workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload sbasis-dense --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of one measured run; with
``--trace 1`` it runs one epoch untraced and then traced and prints the
per-layer metrics.  ``--workload all`` runs every workload in turn.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.

The parent process never imports localring.  It starts worker processes
(this file with ``--role worker``) so that set-up time covers interpreter
start, ``import localring``, input generation and warm-up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed as S
import workloads as W

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
PINS = os.path.join(BENCH_DIR, "pins.json")

#: worker start-ups timed per measured run (the measuring worker included)
SETUP_SAMPLES = 3
#: calibration samples that scale one worker start-up
SETUP_CALIBRATION = 5
#: no new epoch starts after this many seconds of measuring
HARD_LIMIT_S = 120
STARTUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170
CLI_TIMEOUT_S = 60

SUCCESS = ("ok", "fixed")


class BenchError(Exception):
    pass


# -- shared helpers ------------------------------------------------------------

def check_checkout(root: str) -> None:
    """The benchmark builds nothing: it needs the package sources and pins."""
    for rel in ("src/localring/__init__.py", "sample_ideals/cm_family.ideal"):
        if not os.path.isfile(os.path.join(root, rel)):
            raise BenchError(f"not a localring checkout: {rel} is missing "
                             "(run from the repository root)")
    if not os.path.isfile(PINS):
        raise BenchError("bench/pins.json is missing")


def load_pins(workload: str) -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def metric_units(kind: str) -> dict:
    """Metric name -> unit for `end_to_end` or `per_layer`, in the order
    BENCHMARK.json declares them."""
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def nearest_rank(sorted_values, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def provenance(root: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit_of(root)}


def commit_of(root: str) -> str:
    """HEAD of the git checkout at `root`, or "unknown" outside one.  The
    search for a repository stops at `root`, so that a checkout nested in
    another repository does not report that repository's commit."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# -- worker side -----------------------------------------------------------------

class Context:
    """Everything a worker sets up before its first timed operation."""

    def __init__(self, workload: str, seed: int, root: str):
        import localring
        origin = os.path.realpath(localring.__file__)
        if not origin.startswith(os.path.realpath(os.path.join(root, "src")) + os.sep):
            raise BenchError(f"localring imported from {origin}, not this checkout")
        self.workload, self.root = workload, root
        self.strata = W.catalog(workload)
        self.pins = load_pins(workload)
        stale = [item.key for items in self.strata.values() for item in items
                 if self.pins.get(item.key, {}).get("input") != item.fingerprint()]
        if stale:
            raise BenchError(f"{len(stale)} {workload} catalog items have no "
                             f"matching pin (first: {stale[0]}); run bench/pin.py")
        self.epochs = W.epochs(workload, seed, self.strata)
        self.disc_warm_s = 0.0
        self.workdir = ""
        if workload == "towers":
            t0 = time.perf_counter()
            W.warm_up_towers()
            self.disc_warm_s = time.perf_counter() - t0
        if workload == "cli":
            os.makedirs(OUT_DIR, exist_ok=True)
            self.workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
            for items in self.strata.values():
                W.write_cli_inputs(items, self.workdir)
            subprocess.run(W.cli_command(["--help"]), cwd=root, env=W.child_env(root),
                           stdout=subprocess.DEVNULL, check=True)
        self.failures: list = []

    def close(self):
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def execute(self, item: W.Item, run=None) -> tuple:
        """Run one operation and classify it against its pin.  Returns the
        seconds the operation took, which leave out building and digesting
        its result, and its status."""
        pinned = self.pins[item.key]["result"]
        t0 = time.perf_counter()
        try:
            try:
                summarize = run(item) if run else W.perform(item, self.workdir, self.root)
            finally:
                seconds = time.perf_counter() - t0
            result = summarize()
        except W.Refusal as exc:
            if pinned is None:
                return seconds, "refused"
            self.failures.append(f"{item.key}: refused: {exc}")
            return seconds, "failed"
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            self.failures.append(f"{item.key}: {type(exc).__name__}: {exc}")
            return seconds, "failed"
        if pinned is None:
            return seconds, "fixed"
        if W.digest(result) != pinned:
            self.failures.append(f"{item.key}: result differs from the pin")
            return seconds, "failed"
        return seconds, "ok"


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure_loop(ctx: Context, seconds: float) -> dict:
    """Whole epochs, as many as fit in `seconds` (at least one), with
    calibration samples between the operations (see speed.py).  A record
    is (start, seconds of the operation, seconds until its result was
    checked, status)."""
    sampler = S.Sampler()
    records = []
    start = time.perf_counter()
    for done, ops in enumerate(ctx.epochs, start=1):
        for item in ops:
            sampler.maybe_sample()
            t0 = time.perf_counter()
            took, status = ctx.execute(item)
            records.append((t0, took, time.perf_counter() - t0, status))
        elapsed = time.perf_counter() - start
        if elapsed * (done + 1) / done > seconds or elapsed >= HARD_LIMIT_S:
            break
    sampler.samples.append(S.sample())
    return {"records": records, "calibration": sampler.samples,
            "peak_rss_mb": peak_rss_mb(ctx.workload),
            "failures": ctx.failures[:20]}


def _traced_cli_run(ctx: Context, tracer_files: list, op: int):
    def run(item):
        stats = os.path.join(ctx.workdir, f"trace-{op}.json")
        argv = W.cli_argv(item.spec, ctx.workdir)
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--role",
               "cli-child", "--stats", stats, "--op", str(op), "--", *argv]
        proc = subprocess.run(cmd, cwd=ctx.root, env=W.child_env(ctx.root),
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=CLI_TIMEOUT_S, check=False)
        if os.path.exists(stats):
            tracer_files.append(stats)
        return lambda: W.check_cli_output(proc.returncode, proc.stdout)
    return run


def _startup_s(root: str) -> float:
    times = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import localring.cli"], cwd=root,
                       env=W.child_env(root), check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def trace_run(ctx: Context) -> dict:
    import tracer as T
    ops = next(ctx.epochs)
    t0 = time.perf_counter()
    plain = [ctx.execute(item)[1] for item in ops]
    untraced_wall = time.perf_counter() - t0

    tracer = T.Tracer()
    files: list = []
    statuses = []
    uninstall = T.install(tracer) if ctx.workload != "cli" else (lambda: None)
    t0 = time.perf_counter()
    try:
        for op, item in enumerate(ops):
            tracer.op = op
            run = _traced_cli_run(ctx, files, op) if ctx.workload == "cli" else None
            statuses.append(ctx.execute(item, run)[1])
    finally:
        uninstall()
    traced_wall = time.perf_counter() - t0

    summaries = [tracer.summary()]
    spans = list(tracer.spans)
    dropped = tracer.dropped
    for path in files:
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        summaries.append(child["summary"])
        room = max(0, T.SPAN_CAP - len(spans))
        spans.extend(child["spans"][:room])
        dropped += child["dropped"] + len(child["spans"][room:])
    metrics = T.layer_metrics(T.merge(summaries))
    metrics["equising.disc_warm_s"] = ctx.disc_warm_s
    metrics["cli.startup_s"] = _startup_s(ctx.root) if ctx.workload == "cli" else 0.0
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{ctx.workload}.spans.jsonl")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"spans": len(spans), "dropped": dropped,
                             "fields": ["id", "name", "start_ns", "end_ns",
                                        "parent", "op"]}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return {"metrics": metrics, "statuses": plain + statuses,
            "failures": ctx.failures[:20]}


def worker_main(args, root: str) -> int:
    ctx = Context(args.workload, args.seed, root)
    try:
        print("READY", flush=True)
        if args.mode == "setup":
            result = {}
        elif args.mode == "measure":
            result = measure_loop(ctx, args.seconds)
        else:
            result = trace_run(ctx)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        ctx.close()


def cli_child_main(args) -> int:
    """One CLI command under the tracer; totals and spans go to --stats."""
    import tracer as T
    tracer = T.Tracer()
    tracer.op = args.op
    uninstall = T.install(tracer)
    cli = sys.modules["localring.cli"]
    dumps = json.dumps
    json.dumps = T.wrap_function(tracer, "cli.json", dumps)
    sys.argv = ["localring", *args.argv]
    code = 0
    try:
        cli.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        json.dumps = dumps
        uninstall()
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump({"summary": tracer.summary(), "spans": tracer.spans,
                       "dropped": tracer.dropped}, fh)
    return code


# -- parent side -------------------------------------------------------------------

def start_worker(root: str, args, mode: str):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--role", "worker",
           "--mode", mode, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    t0 = time.perf_counter()
    # unbuffered, so that readline takes nothing beyond READY from the pipe
    proc = subprocess.Popen(cmd, cwd=root, env=W.child_env(root),
                            stdout=subprocess.PIPE, bufsize=0)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != b"READY":
        finish(proc)
        raise BenchError(f"{args.workload} worker failed during set-up")
    return proc, setup


def finish(proc) -> dict:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def measure(root: str, args) -> dict:
    setups, setup_scales = [], []
    for mode in ["setup"] * (SETUP_SAMPLES - 1) + ["measure"]:
        setup_scales.append(S.factor([S.sample() for _ in range(SETUP_CALIBRATION)]))
        proc, setup = start_worker(root, args, mode)
        setups.append(setup)
        if mode == "setup":
            finish(proc)
    result = finish(proc)

    records = result["records"]
    statuses = [status for *_, status in records]
    ok = sum(s in SUCCESS for s in statuses)
    calibration = [tuple(c) for c in result["calibration"]]
    scales = S.factors(calibration, [t0 + busy / 2 for t0, _, busy, _ in records])

    def timings(scales: list, setup_scales: list) -> dict:
        busy = sum(b * k for (_, _, b, _), k in zip(records, scales))
        # a refused or failed operation ranks as slower than every success
        ranked = sorted(took * k if s in SUCCESS else math.inf
                        for (_, took, _, s), k in zip(records, scales))

        def latency_ms(q):
            value = nearest_rank(ranked, q)
            return 1000.0 * (value if value != math.inf else busy)

        return {"throughput_ops_s": ok / busy,
                "latency_p50_ms": latency_ms(0.5),
                "latency_p90_ms": latency_ms(0.9),
                "setup_s": statistics.median(s * k for s, k in zip(setups, setup_scales))}

    metrics = timings(scales, setup_scales)
    metrics["ok_ratio"] = ok / len(records)
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    unscaled = timings([1.0] * len(records), [1.0] * len(setups))
    unscaled["calibration_ms"] = 1000.0 * statistics.median(d for _, d in calibration)
    units = metric_units("end_to_end")
    return {
        "attempted": len(records),
        "failed": statuses.count("failed"),
        "refused": statuses.count("refused"),
        "fixed": statuses.count("fixed"),
        "failures": result["failures"],
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
        "unscaled": unscaled,
    }


def traced(root: str, args) -> dict:
    proc, _ = start_worker(root, args, "trace")
    result = finish(proc)
    statuses = result["statuses"]
    units = metric_units("per_layer")
    return {
        "attempted": len(statuses),
        "failed": statuses.count("failed"),
        "refused": statuses.count("refused"),
        "fixed": statuses.count("fixed"),
        "failures": result["failures"],
        "metrics": {k: {"value": result["metrics"][k], "unit": unit}
                    for k, unit in units.items()},
    }


def run_workload(root: str, args) -> dict:
    outcome = traced(root, args) if args.trace else measure(root, args)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={outcome['attempted']} failed={outcome['failed']} "
          f"refused={outcome['refused']} fixed={outcome['fixed']}")
    if not args.trace:
        ratio = 1.0 - outcome["metrics"]["ok_ratio"]["value"]
        print(f"#   failed_ratio = {ratio:.6g} 1")
        print("#   unscaled: " + ", ".join(
            f"{k} = {v:.6g}" for k, v in outcome["unscaled"].items()))
    for name, m in outcome["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    for line in outcome["failures"]:
        print(f"#   FAILED {line}")
    return outcome


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=("all",) + W.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None,
                   help="also write the full result record to this JSON file")
    p.add_argument("--role", choices=("main", "worker", "cli-child"),
                   default="main", help=argparse.SUPPRESS)
    p.add_argument("--mode", choices=("setup", "measure", "trace"),
                   default="measure", help=argparse.SUPPRESS)
    p.add_argument("--stats", help=argparse.SUPPRESS)
    p.add_argument("--op", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("argv", nargs="*", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = os.getcwd()
    if args.role == "cli-child":
        return cli_child_main(args)
    try:
        check_checkout(root)
        if args.role == "worker":
            return worker_main(args, root)
        names = W.WORKLOADS if args.workload == "all" else (args.workload,)
        outcomes = {}
        for name in names:
            args.workload = name
            outcomes[name] = run_workload(root, args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    info = provenance(root)
    print("# provenance " + json.dumps(info, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"provenance": info, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "workloads": outcomes}, fh, indent=2, sort_keys=True)
    metrics = {}
    for name, outcome in outcomes.items():
        prefix = "" if len(outcomes) == 1 else name + "/"
        metrics.update({prefix + k: v for k, v in outcome["metrics"].items()})
    attempted = sum(o["attempted"] for o in outcomes.values())
    failed = sum(o["failed"] for o in outcomes.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
