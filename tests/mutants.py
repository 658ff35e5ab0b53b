"""A mutation gate for the window rules: one-line mutants that the tests
must kill.

    python tests/mutants.py              # every mutant; exit 1 if one survives
    python tests/mutants.py --self-test  # a planted no-op mutant; exits 1

Each mutant replaces one exact piece of text in one file of the package.
It is applied to a temporary copy of the checkout (`src`, `tests`, the
`sample_ideals` the tests read, and `pyproject.toml`, so that pytest's
`pythonpath = ["src"]` resolves to the copy), and `python -m pytest -x -q
-p no:cacheprovider tests` runs there.  A mutant survives when that run
passes, and a survivor fails the gate.  So does a mutant whose text is not
found exactly once, so that a rename cannot skip it silently.  A run that
exceeds `TIMEOUT_S` counts as killed.  The planted no-op mutant survives
only when the unmutated copy passes, so `--self-test` also shows that the
copy is complete, and that a mutant is killed by a test, not by a missing
file.

Standard library only; the tests themselves need pytest and hypothesis.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: seconds one run of the tests may take before the mutant counts as killed
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str


KERNEL = "src/localring/kernel.py"
DIVISION = "src/localring/division.py"

MUTANTS = (
    Mutant("_window keeps the window's top level out", KERNEL,
           "if level(e) <= cap}", "if level(e) < cap}"),
    Mutant("_product_bound claims one level more", KERNEL,
           "m = min(map(form.level, g.terms))",
           "m = min(map(form.level, g.terms)) + 1"),
    Mutant("_shift keeps one level above the bound", KERNEL,
           "form.level_cap(prec) - form.level(alpha), form.level",
           "form.level_cap(prec) - form.level(alpha) + 1, form.level"),
    Mutant("add certifies to the second operand's bound", KERNEL,
           "prec = prec_min(a.prec, b.prec)",
           "prec = a.prec if b.prec is EXACT else b.prec"),
    Mutant("_int_product forms one level above the window", KERNEL,
           "room = None if cap is None else cap - level(e1)",
           "room = None if cap is None else cap - level(e1) + 1"),
    Mutant("reweight scales by the largest weight ratio", KERNEL,
           "c = min(nw / ow", "c = max(nw / ow"),
    Mutant("certified_under lets a bound one short through", KERNEL,
           "if not prec_at_least(h.prec, window):",
           "if not prec_at_least(h.prec, window - 1):"),
    Mutant("_admit lets a bound one short through", KERNEL,
           "if f.prec < mu:", "if f.prec < mu - 1:"),
    Mutant("hironaka_divide certifies quotients one level higher", DIVISION,
           "bound = EXACT if exact else mu - lvalue(L, m.alpha)",
           "bound = EXACT if exact else mu - lvalue(L, m.alpha)"
           " + Fraction(1, L.den)"),
    Mutant("_divide keeps one level above the window", DIVISION,
           "limit = (cap + 1) << pk.shift", "limit = (cap + 2) << pk.shift"),
    Mutant("_slots drops the guard bit", DIVISION,
           "width = (capc + max(B, capc)).bit_length() + 1",
           "width = (capc + max(B, capc)).bit_length()"),
    Mutant("the tower's top level forms one degree above the window",
           "src/localring/equising.py",
           "_int_product(ints, terms, L, L.level_cap(mu))",
           "_int_product(ints, terms, L, L.level_cap(mu) + 1)"),
)

#: a mutant that changes nothing, so the tests pass and it must survive
NO_OP = Mutant("no-op (planted survivor)", KERNEL,
               "EXACT = None", "EXACT = None")


def copy_checkout(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "sample_ideals"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_mutant(m: Mutant, copy: Path, env: dict) -> str:
    """'killed', 'survived' or 'missing' (its text is not found exactly
    once).  The copy's file is restored afterwards."""
    path = copy / m.path
    text = path.read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        return "missing"
    path.write_text(text.replace(m.old, m.new), encoding="utf-8")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "tests"], cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed"
    finally:
        path.write_text(text, encoding="utf-8")
    return "survived" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one-line mutants of the window rules against the tests.")
    parser.add_argument("--self-test", action="store_true",
                        help="run only a planted no-op mutant, which must "
                             "survive and so fail the gate")
    args = parser.parse_args(argv)
    mutants = (NO_OP,) if args.self_test else MUTANTS
    # the copy's own src, and no stale bytecode from a restored file
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        copy_checkout(copy)
        for m in mutants:
            start = time.monotonic()
            verdict = run_mutant(m, copy, env)
            failed += verdict != "killed"
            print(f"{verdict:8} {time.monotonic() - start:6.1f} s  {m.path}: "
                  f"{m.name}", flush=True)
    print(f"{len(mutants) - failed} of {len(mutants)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
