"""The frozen CLI contract under fuzzed command lines and ideal files.

Whatever the arguments and the file say, `hs`, `oracle hs`, `divide`,
`sbasis complete`, `sbasis check`, `diagram`, `flat`, `dim`, `reduction`,
`perturb`, `ci-experiment`, `example82`, `tower build` and `tower validate`
print exactly one JSON document on standard output and exit with code 0, 1
or 2.  `cli.run` renders every handler's values into its report, so this
also checks that each value a handler returns can be rendered.  Every
command is bounded by the fuzzed `prec` of at most 7; `flat` runs without
`--weights`, so its window stays a small multiple of it, and
`ci-experiment` with at most two trials.  `example82` reads no file: it
runs at `--mu` 8 to 10, with an `--h` drawn from a small set.
"""

import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from localring import cli

ATOMS = ["x", "y", "z", "2", "3/2", "-1", "x^2", "y^3", "z^4", "x*y", "y^2*z",
         "x^3*y", "exp(z)", "geom(x)", "(x+y)^2", "(y-z)^3", "x*exp(y)"]
MALFORMED = ["x^", "1/0", "(", ")", "w", "exp(1)", "x^-2", "", "**", "7/",
             "geom(y", "x^(2)", "x^99999999", "9" * 40, "x y", "exp()", "%"]


def sometimes_malformed(valid, malformed):
    """Draws from `valid`, and on one value of twelve from `malformed`.

    That value is an inner one: Hypothesis draws the ends of a range more
    often than the rest."""
    return st.integers(0, 11).flatmap(
        lambda k: st.sampled_from(malformed if k == 5 else valid))


@st.composite
def expressions(draw):
    parts = draw(st.lists(sometimes_malformed(ATOMS, MALFORMED),
                          min_size=1, max_size=4))
    ops = draw(st.lists(st.sampled_from([" + ", " - ", "*"]),
                        min_size=len(parts) - 1, max_size=len(parts) - 1))
    text = parts[0]
    for op, part in zip(ops, parts[1:]):
        text += op + part
    return text


def header_line(key, valid, invalid):
    return sometimes_malformed(valid, invalid).map(lambda v: f"{key}: {v}")


@st.composite
def ideal_files(draw):
    lines = [
        draw(header_line("vars", ["x y z"], ["x y", "", "x x", "1a", "x,y"])),
        draw(header_line("prec", ["3", "5", "7"], ["0", "-1", "abc", "3/2", "", "1/0"])),
    ]
    if draw(st.booleans()):
        lines.append(draw(header_line(
            "order", ["std", "w:1,2,3", "w:1/2,1,2", "split:k=1,l=2"],
            ["w:1,2", "w:0,1,1", "split:k=9,l=2", "split:k=1", "bogus",
             "split:k=a,l=2", "split:k", "w:1,a", "w:1,1/0"])))
    lines += [f"gen: {draw(expressions())}"
              for _ in range(draw(st.sampled_from([2, 1, 3])))]
    if draw(st.integers(0, 3)) == 3:
        junk = draw(st.one_of(
            st.sampled_from(["gen:", "vars:", "prec", "# note", "order: ",
                             "gen: x\ngen: y", "unknown: 3"]),
            st.text(max_size=12)))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines) + "\n"


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["hs", "oracle hs", "divide",
                                    "sbasis complete", "sbasis check",
                                    "diagram", "flat", "dim", "reduction",
                                    "perturb", "ci-experiment", "example82",
                                    "tower build", "tower validate"]))
    if command == "example82":
        argv = [command, "--mu", str(draw(st.integers(8, 10)))]
        if draw(st.booleans()):
            argv += ["--h", draw(sometimes_malformed(
                ["z", "z^2", "z*geom(z)", "exp(z) - 1", "0"],
                ["1", "exp(z)", "x", "z^", "("]))]
        return argv
    argv = command.split() + ["--file", "FILE"]
    if command.endswith("hs"):
        argv += ["--eta", draw(sometimes_malformed(["3", "0", "2", "6"],
                                                   ["-1", "x", ""]))]
    if command == "divide":
        argv += ["--dividend", draw(expressions())]
    if command == "dim":
        argv += ["--trials", draw(sometimes_malformed(["1", "2", "3"],
                                                      ["0", "-1", "x", ""]))]
    if command in ("perturb", "ci-experiment"):
        for _ in range(draw(st.integers(0, 3))):
            argv += ["--delta", draw(expressions())]
    if command == "ci-experiment":
        argv += ["--trials", draw(sometimes_malformed(["1", "2"],
                                                      ["0", "-1", "x"]))]
    if command == "reduction":
        argv += ["--k", draw(sometimes_malformed(["1", "2", "3"],
                                                 ["0", "-1", "9", "x"]))]
    if command == "flat":
        argv += ["--k", draw(sometimes_malformed(["1", "2"], ["0", "9", "x"]))]
    if command.startswith("tower") and draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(["0", "1", "7"]))]
    if command.split()[0] in ("divide", "sbasis", "diagram") \
            and draw(st.integers(0, 3)) == 3:
        argv += ["--order", draw(sometimes_malformed(
            ["w:1,2,3", "std", "split:k=2,l=3/2"],
            ["w:2,1", "nope", "split:k=a,l=2", "split:k", "w:1,a",
             "w:1,1/0"]))]
    if command.startswith("sbasis") and draw(st.booleans()):
        argv.append("--no-coprime-skip")
    if command != "oracle hs" and draw(st.booleans()):  # it takes no --mu
        argv += ["--mu", draw(sometimes_malformed(
            ["3", "5/2", "6"], ["abc", "0", "1/0", "-1"]))]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_lines(), ideal_files())
def test_one_json_report_and_a_contract_exit_code(capsys, argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ideal"
        path.write_text(text, encoding="utf-8")
        argv = [str(path) if a == "FILE" else a for a in argv]
        with mock.patch.object(sys, "argv", ["localring"] + argv):
            with pytest.raises(SystemExit) as exit_:
                cli.main()
    assert exit_.value.code in (0, 1, 2)
    report = json.loads(capsys.readouterr().out)  # one document, nothing else
    assert isinstance(report, dict)
