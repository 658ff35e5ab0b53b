"""The frozen CLI contract, byte for byte, on the sample ideal files.

Every row of `cli_golden.json` holds a command line, its exit code and the
sha256 of the report as `localring` prints it
(`json.dumps(report, indent=2, sort_keys=True)`).  The 13 commands run on
every `sample_ideals/*.ideal`, exit-1 and exit-2 reports included, plus
`example82` with a polynomial h, with a certified one and with a
`--verify-mu` it refuses.  Then come the
`TWO_FAULTS` lines: each sets two faults against each other (a missing
file and a bad flag, a bad `--order` and a bad `--mu`, ...), so the row
freezes which one a command line reports first.  Last come the
`REGRESSIONS` lines, command lines that once failed.
The commands run in process, from the repository root, so the file paths
in the table are relative to it.

A change that is meant to alter a report regenerates the table with

    PYTHONPATH=src python tests/test_cli_golden.py

and says in its description which reports changed and why.  The script
prints the command line of every row it adds, changes or removes against
the table it overwrites.

The table is also replayed in one `python -O` process, which strips
assert statements: the reports must not depend on them.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from localring import cli

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("cli_golden.json")

#: The 13 commands, with "F" for the file and "K" for its last-but-one
#: variable count (the `--k` of `flat` and `reduction`).
COMMANDS = [
    ["divide", "--file", "F", "--dividend", "x^2*y + x*y^4"],
    ["sbasis", "check", "--file", "F"],
    ["sbasis", "complete", "--file", "F"],
    ["diagram", "--file", "F"],
    ["hs", "--file", "F", "--eta", "6"],
    ["oracle", "hs", "--file", "F", "--eta", "6"],
    ["flat", "--file", "F", "--k", "K"],
    ["dim", "--file", "F"],
    ["reduction", "--file", "F", "--k", "K"],
    ["perturb", "--file", "F", "--delta", "x^9"],
    ["ci-experiment", "--file", "F", "--mu", "8", "--delta", "x^9"],
    ["tower", "build", "--file", "F"],
    ["tower", "validate", "--file", "F"],
]

#: Command lines with two faults each; the row shows which one wins.  The
#: order a command line is checked in is: argparse, the file, the form,
#: `--mu`, then the command's own flags.
TWO_FAULTS = [
    ["divide", "--file", "sample_ideals/cusp.ideal", "--dividend", "x",
     "--order", "bogus", "--mu", "abc"],
    ["sbasis", "complete", "--file", "sample_ideals/cusp.ideal",
     "--order", "w:1", "--mu", "0"],
    ["hs", "--file", "nope.ideal", "--eta", "-1"],
    ["hs", "--file", "sample_ideals/cusp.ideal", "--mu", "abc", "--eta", "-1"],
    ["oracle", "hs", "--file", "nope.ideal", "--eta", "-1"],
    ["flat", "--file", "sample_ideals/cusp.ideal", "--k", "1", "--mu", "0",
     "--weights", "0"],
    ["dim", "--file", "nope.ideal", "--trials", "0"],
    ["dim", "--file", "sample_ideals/cusp.ideal", "--mu", "1/0",
     "--trials", "0"],
    ["reduction", "--file", "sample_ideals/cusp.ideal", "--k", "5",
     "--mu", "abc"],
    ["ci-experiment", "--file", "sample_ideals/cusp.ideal", "--delta", "(",
     "--trials", "0"],
    ["tower", "build", "--file", "sample_ideals/cusp.ideal", "--mu", "-2"],
    ["example82", "--mu", "5"],
    ["bogus"],
    [],
]


#: Command lines that once failed: a certified `--delta` that the flatness
#: search needs on a window beyond 2 * mu, and towers whose first generator
#: has no term on the window.
REGRESSIONS = [
    ["ci-experiment", "--file", "sample_ideals/cm_family.ideal", "--mu", "8",
     "--delta", "x^9*exp(x)"],
    ["tower", "build", "--file", "sample_ideals/cusp.ideal", "--mu", "1"],
    ["tower", "build", "--file", "sample_ideals/plane_monomial.ideal",
     "--mu", "1"],
]


def command_lines() -> list:
    lines = []
    for path in sorted((ROOT / "sample_ideals").glob("*.ideal")):
        text = path.read_text(encoding="utf-8")
        n = len(next(line for line in text.splitlines()
                     if line.startswith("vars:")).split()) - 1
        name = path.relative_to(ROOT).as_posix()
        for argv in COMMANDS:
            lines.append([{"F": name, "K": str(n - 1)}.get(a, a) for a in argv])
    lines.append(["example82", "--mu", "12", "--h", "z"])
    lines.append(["example82", "--mu", "8", "--h", "z*geom(z)"])
    lines.append(["example82", "--mu", "8", "--verify-mu", "-5"])
    return lines + TWO_FAULTS + REGRESSIONS


def row(argv) -> dict:
    code, report = cli.run(argv)
    text = json.dumps(report, indent=2, sort_keys=True)
    return {"argv": argv, "exit": code,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def test_the_table_covers_every_command_line():
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    assert [r["argv"] for r in table] == command_lines()


@pytest.mark.parametrize("expected", json.loads(TABLE.read_text(encoding="utf-8")),
                         ids=lambda r: " ".join(r["argv"]) or "(empty)")
def test_report_matches_the_frozen_table(expected, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert row(expected["argv"]) == expected


#: Replays the command lines read from stdin with `row`, and prints the rows
#: with the interpreter's optimization level.
REPLAY = ("import json, sys\n"
          "from test_cli_golden import row\n"
          "rows = [row(argv) for argv in json.load(sys.stdin)]\n"
          "json.dump({'optimize': sys.flags.optimize, 'rows': rows}, sys.stdout)\n")


def test_the_table_holds_under_python_O():
    # `python -O` strips assert statements, so every invariant check on
    # the command path must raise instead; one child process replays the
    # whole table
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    path = os.pathsep.join([str(ROOT / "src"), str(TABLE.parent)])
    out = subprocess.run(
        [sys.executable, "-O", "-c", REPLAY], cwd=ROOT, capture_output=True,
        input=json.dumps([r["argv"] for r in table]), text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": path}, check=True)
    replay = json.loads(out.stdout)
    assert replay["optimize"] == 1
    assert replay["rows"] == table


def table_changes(old: list, new: list) -> dict:
    """The command lines of the rows in `new` but not in `old` ("added"),
    in both with another exit code or digest ("changed"), and in `old`
    only ("removed"), each in its table's order."""
    before = {json.dumps(r["argv"]): r for r in old}
    after = {json.dumps(r["argv"]): r for r in new}
    return {
        "added": [r["argv"] for k, r in after.items() if k not in before],
        "changed": [r["argv"] for k, r in after.items()
                    if k in before and before[k] != r],
        "removed": [r["argv"] for k, r in before.items() if k not in after],
    }


if __name__ == "__main__":
    os.chdir(ROOT)
    old = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else []
    rows = [row(argv) for argv in command_lines()]
    TABLE.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    changes = table_changes(old, rows)
    for kind, argvs in changes.items():
        for argv in argvs:
            sys.stdout.write(f"{kind}: {json.dumps(argv)}\n")
    sys.stdout.write(f"wrote {len(rows)} rows to {TABLE}: " + ", ".join(
        f"{len(argvs)} {kind}" for kind, argvs in changes.items()) + "\n")
