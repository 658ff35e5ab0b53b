import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction as F

import pytest

from localring import approx as AP
from localring import cli
from localring import diagram as DG
from localring import kernel as K
from localring import linalg
from localring import order as O
from localring import stdbasis as SB
from localring.errors import ParseError
from localring.parser import (
    MAX_NESTING,
    load_ideal_file,
    parse_expression,
)
from oracles import print_series

std1 = O.std_form(1)
std3 = O.std_form(3)

NAMES = ("x", "y", "z")

SAMPLES = Path(__file__).resolve().parent.parent / "sample_ideals"


class TestParseExpression:
    def test_example_generator(self):
        f = parse_expression("y^5 + y^2*z^4*exp(z)", NAMES, std3, 8)
        assert f.coefficient((0, 5, 0)) == 1
        assert f.coefficient((0, 2, 4)) == 1
        assert f.coefficient((0, 2, 6)) == F(1, 2)
        assert f.prec is not K.EXACT

    def test_zero(self):
        f = parse_expression("0", NAMES, std3, 8)
        assert f.is_exact_zero

    def test_builtin_needs_zero_constant_term(self):
        with pytest.raises(ParseError):
            parse_expression("exp(1 + z)", NAMES, std3, 8)

    def test_rationals_and_precedence(self):
        f = parse_expression("1/2*x^2 - 3*y + 2", NAMES, std3, 8)
        assert f.terms == {(2, 0, 0): F(1, 2), (0, 1, 0): F(-3),
                           (0, 0, 0): F(2)}
        assert f.prec is K.EXACT

    def test_unary_minus_and_parens(self):
        f = parse_expression("-(x - y)^2", NAMES, std3, 8)
        assert f.terms == {(2, 0, 0): F(-1), (1, 1, 0): F(2), (0, 2, 0): F(-1)}

    def test_geom(self):
        f = parse_expression("geom(x)", ("x",), std1, 4)
        assert f.terms == {(i,): F(1) for i in range(5)}

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x + $", ("x",), std1, 4)
        assert err.value.pos == 4

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_expression("x + w", NAMES, std3, 8)

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_expression("x y", NAMES, std3, 8)

    def test_nesting_cap(self):
        deep = "(" * 1200 + "x" + ")" * 1200
        with pytest.raises(ParseError) as err:
            parse_expression(deep, NAMES, std3, 8)
        assert err.value.pos == MAX_NESTING
        ok = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_expression(ok, NAMES, std3, 8).terms == {(1, 0, 0): 1}

    def test_long_unary_minus_chain(self):
        f = parse_expression("-" * 1201 + "x", NAMES, std3, 8)
        assert f.terms == {(1, 0, 0): -1}

    def test_zero_denominator(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x + 3/0", NAMES, std3, 8)
        assert err.value.pos == 6

    def test_power_budget(self):
        # (x+y)^k has k + 1 terms, (x+y+z)^k has C(k+2, 2)
        assert len(parse_expression("(x+y)^100", NAMES, std3, 8).terms) == 101
        assert len(parse_expression("(x+y+z)^9", NAMES, std3, 8).terms) == 55
        for src, caret in (("y + (x+y)^5000", 9), ("(x+y+z)^44", 7),
                           ("((2*x)^1000)^1000", 12), ("x^" + "9" * 40, 1)):
            with pytest.raises(ParseError) as err:
                parse_expression(src, NAMES, std3, 8)
            assert err.value.pos == caret and "budget" in str(err.value)

    def test_power_of_a_monomial_is_one_term(self):
        f = parse_expression("(2*x)^300 + y^5000", NAMES, std3, 8)
        assert f.terms == {(300, 0, 0): 2 ** 300, (0, 5000, 0): 1}

    def test_overlong_literal(self):
        for src in ("7" * 5000 + "*x", "x^" + "9" * 5000, "1/" + "3" * 5000):
            with pytest.raises(ParseError) as err:
                parse_expression(src, NAMES, std3, 8)
            assert "too long" in str(err.value)


def test_print_parse_roundtrip_seeded():
    rng = random.Random(13)
    for _ in range(50):
        terms = {tuple(rng.randint(0, 5) for _ in range(3)):
                 F(rng.randint(-12, 12), rng.randint(1, 7))
                 for _ in range(rng.randint(1, 6))}
        f = K.series(3, terms)
        assert parse_expression(print_series(f, NAMES), NAMES, std3, 20) == f
    assert print_series(K.zero(3), NAMES) == "0"


IDEAL_TEXT = """\
# the running three-variable family
vars: x y z
prec: 8
order: std
gen: x^8
gen: y^5 + y^2*z^4*exp(z)
gen: x^2*y^3 + x^2*z^4*exp(z)
"""


class TestIdealFile:
    def test_load(self):
        f = load_ideal_file(IDEAL_TEXT)
        assert f.var_names == ("x", "y", "z")
        assert f.mu == 8
        assert len(f.gen_sources) == 3

    def test_presentation_and_regenerator(self):
        f = load_ideal_file(IDEAL_TEXT)
        I = f.presentation(f.form(), f.mu)
        assert I.n == 3
        w = O.weighted_split_form(3, 2, 9)
        gens = f.generators(w, 72)
        assert all(g.prec is K.EXACT or g.prec >= 72 for g in gens)

    def test_vars_before_gens(self):
        with pytest.raises(ParseError):
            load_ideal_file("gen: x\nvars: x\nprec: 4\n")

    def test_needs_generator(self):
        with pytest.raises(ParseError):
            load_ideal_file("vars: x\nprec: 4\n")

    def test_prec_positive(self):
        with pytest.raises(ParseError):
            load_ideal_file("vars: x\nprec: 0\ngen: x\n")

    @pytest.mark.parametrize("prec", ["abc", "1/0"])
    def test_prec_malformed(self, prec):
        with pytest.raises(ParseError) as err:
            load_ideal_file(f"vars: x\nprec: {prec}\ngen: x\n")
        assert err.value.pos == 2


@pytest.fixture
def ideal_file(tmp_path):
    path = tmp_path / "example.ideal"
    path.write_text(IDEAL_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def monomial_file(tmp_path):
    path = tmp_path / "monomial.ideal"
    path.write_text("vars: x y\nprec: 8\ngen: x^2\ngen: y^3\n", encoding="utf-8")
    return str(path)


class TestJsonable:
    def test_series_carry_their_prec(self):
        exact = K.PrecisionSeries(2, {(1, 0): F(1, 2)})
        assert cli.jsonable(exact) == {"terms": [[[1, 0], "1/2"]],
                                       "prec": "EXACT"}
        jet = K.PrecisionSeries(2, {(0, 2): F(3)}, F(7, 2), O.std_form(2))
        assert cli.jsonable(jet) == {"terms": [[[0, 2], "3"]], "prec": "7/2"}

    def test_an_absent_value_is_null(self):
        # EXACT is None, but only a series' prec renders as "EXACT"
        assert cli.jsonable(None) is None
        assert cli.jsonable({"unit_constant": None, "mu": F(6)}) == {
            "unit_constant": None, "mu": "6"}

    def test_records_render_as_objects_keyed_by_field(self):
        # a record is a tuple too, but renders as an object, not a list
        report = {"pairs": (SB.PairCheck(0, 1, "pass"),),
                  "step": SB.CompletionStep(0, 1, 2, None),
                  "table": DG.HSTable((1, 2))}
        assert cli.jsonable(report) == {
            "pairs": [{"i": 0, "j": 1, "status": "pass"}],
            "step": {"i": 0, "j": 1, "basis_size": 2, "adjoined_index": None},
            "table": {"values": [1, 2]}}
        plain = (0, 1, "pass")
        assert cli.jsonable(plain) == [0, 1, "pass"]


class TestCli:
    def test_help_describes_the_tool_not_its_handlers(self):
        text = cli._build_argparser().format_help()
        assert "Exit codes: 0 = success" in text
        assert "single --seed flag" in text
        assert "handler" not in text

    @pytest.mark.parametrize("module", ["localring", "localring.cli"])
    def test_module_entry_points_print_the_report(self, monomial_file, module):
        # `python -m localring` and `python -m localring.cli` print the
        # report of `run` and exit with its code
        argv = ["hs", "--file", monomial_file, "--eta", "-1"]
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-m", module, *argv],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": path})
        code, rep = cli.run(argv)
        assert (out.returncode, json.loads(out.stdout)) == (code, rep)
        assert code == 1

    def test_hs_table(self, monomial_file):
        code, rep = cli.run(["hs", "--file", monomial_file, "--eta", "4"])
        assert code == 0
        assert rep["values"] == [1, 3, 5, 6, 6]

    def test_oracle_matches(self, monomial_file):
        code, rep = cli.run(["oracle", "hs", "--file", monomial_file,
                             "--eta", "4"])
        assert code == 0
        assert rep["values"] == [1, 3, 5, 6, 6]

    def test_divide_reports_regions(self, monomial_file):
        code, rep = cli.run(["divide", "--file", monomial_file,
                             "--dividend", "x^2*y + x*y^4"])
        assert code == 0
        assert rep["remainder_zero_up_to_mu"] is True

    def test_divide_without_generators_is_usage_error(self, tmp_path):
        path = tmp_path / "empty.ideal"
        path.write_text("vars: x\nprec: 4\n", encoding="utf-8")
        code, rep = cli.run(["divide", "--file", str(path), "--dividend", "x"])
        assert code == 1
        assert rep["error"] == "parse"

    # an empty --mu is malformed too, not a fallback to the file's prec
    @pytest.mark.parametrize("mu", ["abc", "1/0", ""])
    def test_malformed_mu_is_usage_error(self, monomial_file, mu, capsys,
                                         monkeypatch):
        argv = ["hs", "--file", monomial_file, "--eta", "4", "--mu", mu]
        code, rep = cli.run(argv)
        assert code == 1
        assert rep["error"] == "usage" and "--mu" in rep["detail"]
        monkeypatch.setattr("sys.argv", ["localring"] + argv)
        with pytest.raises(SystemExit) as exit_:
            cli.main()
        assert exit_.value.code == 1
        assert json.loads(capsys.readouterr().out) == rep

    @pytest.mark.parametrize("mu", ["0", "-2", "1/2"])
    def test_mu_below_one_is_usage_error(self, monomial_file, mu):
        for argv in (["hs", "--file", monomial_file, "--eta", "4"],
                     ["tower", "validate", "--file", monomial_file]):
            code, rep = cli.run(argv + ["--mu", mu])
            assert code == 1
            assert rep["error"] == "usage" and "at least 1" in rep["detail"]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_usage_error(self, monomial_file, trials):
        for argv in (["dim", "--file", monomial_file],
                     ["ci-experiment", "--file", monomial_file, "--mu", "6"]):
            code, rep = cli.run(argv + ["--trials", trials])
            assert code == 1
            assert rep["error"] == "usage" and "--trials" in rep["detail"]

    @pytest.mark.parametrize("eta", ["-1", "-2"])
    def test_eta_below_zero_is_usage_error(self, monomial_file, eta):
        for argv in (["hs", "--file", monomial_file],
                     ["oracle", "hs", "--file", monomial_file]):
            code, rep = cli.run(argv + ["--eta", eta])
            assert code == 1
            assert rep["error"] == "usage" and "--eta" in rep["detail"]
            code, rep = cli.run(argv + ["--eta", "0"])
            assert code == 0 and rep["values"] == [1]

    def test_power_beyond_the_budget_is_a_fast_parse_error(self, tmp_path):
        path = tmp_path / "power.ideal"
        path.write_text("vars: x y\nprec: 6\ngen: (x+y)^5000 + y^2\n",
                        encoding="utf-8")
        start = time.perf_counter()
        code, rep = cli.run(["hs", "--file", str(path), "--eta", "3"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert rep["error"] == "parse" and rep["position"] == 5

    def test_zero_denominator_is_parse_error(self, monomial_file):
        code, rep = cli.run(["divide", "--file", monomial_file,
                             "--dividend", "1/0"])
        assert code == 1
        assert rep["error"] == "parse" and rep["position"] == 2

    def test_unknown_command_is_usage_error(self):
        code, rep = cli.run(["frobnicate"])
        assert code == 1
        assert rep["error"] == "usage"

    def test_diagram_vertices(self, ideal_file):
        code, rep = cli.run(["diagram", "--file", ideal_file])
        assert code == 0
        assert rep["vertices"] == [[0, 5, 0], [2, 3, 0], [8, 0, 0]]

    def test_sbasis_check(self, ideal_file):
        code, rep = cli.run(["sbasis", "check", "--file", ideal_file])
        assert code == 0
        assert rep["verified"] is True

    def test_sbasis_check_failure_exits_2(self, tmp_path):
        # perturbed family at a window that sees the failing s-series term
        path = tmp_path / "perturbed.ideal"
        path.write_text(
            "vars: x y z\nprec: 12\n"
            "gen: x^8\n"
            "gen: y^5 + y^2*z^4*(exp(z) + z^3)\n"
            "gen: x^2*y^3 + x^2*z^4*exp(z)\n", encoding="utf-8")
        code, rep = cli.run(["sbasis", "check", "--file", str(path)])
        assert code == 2
        assert rep["verified"] is False
        code, rep = cli.run(["sbasis", "complete", "--file", str(path)])
        assert code == 0
        assert [[2, 2, 7]] == [t[0] for a in rep["adjoined"]
                               for t in a["terms"]]

    def test_flat_verdicts(self, ideal_file, monomial_file):
        code, rep = cli.run(["flat", "--file", ideal_file, "--k", "2"])
        assert code == 0 and rep["verdict"] == "FLAT" and rep["l0"] == 9
        code, rep = cli.run(["flat", "--file", monomial_file, "--k", "1"])
        assert code == 2 and rep["verdict"] == "NOT-FLAT-AT-MU"

    def test_flat_ignores_an_evaluation_zero_on_the_window(self, tmp_path):
        # both evaluated ideals are (x) on the window 2: z + x^8*y^5
        # evaluates to x^8*y^5, which is zero there
        printed = []
        for name, gen in (("plain", "z"), ("grown", "z + x^8*y^5")):
            path = tmp_path / f"{name}.ideal"
            path.write_text(f"vars: x y z\nprec: 2\ngen: x + z\ngen: {gen}\n",
                            encoding="utf-8")
            code, rep = cli.run(["flat", "--file", str(path), "--k", "2",
                                 "--mu", "2"])
            printed.append((code, json.dumps(rep, indent=2, sort_keys=True)))
        assert printed[0] == printed[1]
        assert printed[0][0] == 2 and '"NOT-FLAT-AT-MU"' in printed[0][1]

    def test_dim(self, ideal_file):
        code, rep = cli.run(["dim", "--file", ideal_file, "--trials", "2"])
        assert code == 0
        assert rep["k_best"] == 2 and rep["dim_upper_bound"] == 1
        assert rep["matrix"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_dim_out_of_unimodular_draws_is_a_budget_error(self, tmp_path,
                                                           monkeypatch):
        # under one 8 x 8 draw in a thousand is unimodular; three draws
        # stand in for the default budget, which runs for seconds
        path = tmp_path / "eight.ideal"
        path.write_text("vars: a b c d e f g h\nprec: 3\n"
                        "gen: a*b + c*d + e*f + g*h\n", encoding="utf-8")
        monkeypatch.setattr(linalg, "_ATTEMPTS", 3)
        code, rep = cli.run(["dim", "--file", str(path), "--trials", "2"])
        assert code == 1
        assert rep["error"] == "BudgetExceeded" and "3 draws" in rep["detail"]

    def test_reduction(self, monomial_file):
        code, rep = cli.run(["reduction", "--file", monomial_file, "--k", "2"])
        assert code == 0
        assert rep["d"] == 3 and rep["all_ok"] is True

    @pytest.mark.parametrize("argv, record, extra", [
        (["flat", "--k", "2"], DG.FlatnessReport, set()),
        (["dim"], DG.DimensionReport, {"note"}),
        (["reduction", "--k", "2"], DG.ReductionReport, set()),
    ], ids=["flat", "dim", "reduction"])
    def test_records_are_the_reports(self, argv, record, extra):
        # each of these reports is its record's fields plus what `run` adds,
        # so a renamed field fails here by name
        code, rep = cli.run([*argv, "--file",
                             str(SAMPLES / "cm_family.ideal")])
        assert code in (0, 2)
        assert set(rep) == {*record._fields, "command", "window", *extra}

    @pytest.mark.xfail(strict=True, reason="`stdbasis._check_ready` refuses "
                       "an exact generator that lies in m^(mu+1), although "
                       "it adds nothing to the ideal on the window")
    def test_hs_does_not_depend_on_a_member_beyond_the_window(self, tmp_path):
        # y^6 = (x + y^6) - x lies in the ideal, and the oracle reads
        # [1, ..., 6] from both files
        printed = []
        for name, extra in (("plain", ""), ("with-member", "gen: y^6\n")):
            path = tmp_path / f"{name}.ideal"
            path.write_text("vars: x y\nprec: 5\ngen: x + y^6\ngen: x\n"
                            + extra, encoding="utf-8")
            code, rep = cli.run(["oracle", "hs", "--file", str(path),
                                 "--eta", "5"])
            assert (code, rep["values"]) == (0, [1, 2, 3, 4, 5, 6])
            code, rep = cli.run(["hs", "--file", str(path), "--eta", "5"])
            printed.append((code, json.dumps(rep, indent=2, sort_keys=True)))
        assert printed[0] == printed[1]

    def test_example82_exit_codes(self):
        code, rep = cli.run(["example82", "--mu", "8", "--h", "z"])
        assert code == 0 and rep["all_pass"] is True
        code, rep = cli.run(["example82", "--mu", "8", "--h", "0"])
        assert code == 0 and rep["degenerate"] is True

    @pytest.mark.parametrize("argv", [["--mu", "12", "--h", "exp(z) - 1"],
                                      ["--mu", "8", "--h", "z*geom(z)"]])
    def test_example82_takes_a_certified_h(self, argv):
        code, rep = cli.run(["example82", *argv])
        assert code == 0 and rep["all_pass"] is True
        assert not rep["degenerate"]

    @pytest.mark.parametrize("verify_mu", ["-5", "0", "7"])
    def test_example82_verify_mu_below_eight_is_refused(self, verify_mu):
        code, rep = cli.run(["example82", "--mu", "8",
                             "--verify-mu", verify_mu])
        assert code == 1
        assert rep == {"error": "PresentationError",
                       "detail": "the scenario needs verify_mu >= 8"}

    def test_perturb_expands_the_file_to_the_mu_it_is_given(self):
        # the file's prec is 8; at --mu 16 the second generator must be
        # known beyond 16 and keep the y^17 delta
        code, rep = cli.run(["perturb", "--file",
                             str(SAMPLES / "cm_family.ideal"), "--mu", "16",
                             "--delta", "x^17", "--delta", "y^17"])
        assert code == 0
        assert rep["window"]["mu"] == "16"
        second = rep["generators"][1]
        assert F(second["prec"]) > 16
        assert [[0, 17, 0], "1"] in second["terms"]

    def test_perturb(self, monomial_file):
        code, rep = cli.run(["perturb", "--file", monomial_file, "--mu", "6",
                             "--delta", "x^7", "--delta", "0"])
        assert code == 0
        code, rep = cli.run(["perturb", "--file", monomial_file, "--mu", "6",
                             "--delta", "x^3"])
        assert code == 1  # delta below the jet order

    def test_ci_experiment(self, monomial_file):
        code, rep = cli.run(["ci-experiment", "--file", monomial_file,
                             "--mu", "6", "--delta", "x^7", "--delta", "y^7"])
        assert code == 0
        assert rep["all_equal"] is True

    def test_ci_experiment_reparses_a_certified_delta_on_any_window(self):
        # the flatness search reads the deltas on l0 * mu = 72 under
        # w:1,1,9, far beyond the window 2 * mu they are first parsed at
        code, rep = cli.run(["ci-experiment", "--file",
                             str(SAMPLES / "cm_family.ideal"), "--mu", "8",
                             "--delta", "x^9*exp(x)"])
        assert code == 0 and rep["all_equal"] is True
        assert rep["items"]["flatness"]["l0"] == 9
        f = load_ideal_file((SAMPLES / "cm_family.ideal").read_text("utf-8"))
        I = f.presentation(std3, 8)
        delta = parse_expression("x^9*exp(x)", f.var_names, std3, 16)
        B = AP.perturb(I, 8, [delta, K.zero(3), K.zero(3)])
        hs = rep["items"]["hilbert_samuel"]
        assert hs["table"] == [DG.oracle_jet_quotient_dim(I, e) for e in range(9)]
        assert hs["table_perturbed"] == [DG.oracle_jet_quotient_dim(B, e)
                                         for e in range(9)]

    def test_tower(self, tmp_path):
        path = tmp_path / "cusp.ideal"
        path.write_text("vars: x y\nprec: 10\ngen: y^2 - x^3\n",
                        encoding="utf-8")
        code, rep = cli.run(["tower", "validate", "--file", str(path)])
        assert code == 0
        assert rep["validation"]["all_pass"] is True
        degrees = [lvl["degree"] for lvl in rep["levels"]]
        assert degrees == [2, 3]

    def test_tower_beyond_the_symbolic_cap(self, tmp_path):
        path = tmp_path / "xyz.ideal"
        path.write_text("vars: x y z\nprec: 8\n"
                        "gen: x^2 + y^3 + z^3\ngen: x*y*z\n", encoding="utf-8")
        code, rep = cli.run(["tower", "validate", "--file", str(path)])
        assert code == 0
        assert rep["validation"]["all_pass"] is True

    def test_tower_change_below_keeps_the_units_valid(self, tmp_path):
        # the change of (a, b) drawn below level 3 must re-express the
        # levels above it, the unit of level 4 included
        path = tmp_path / "four.ideal"
        path.write_text("vars: a b c d\nprec: 6\n"
                        "gen: d - a^2*b^2 + 2*a*b*d + c\n"
                        "gen: d^2 + a^2*c^2*d^2 + 2*b*c*d + 2*a^2*b*d\n",
                        encoding="utf-8")
        code, rep = cli.run(["tower", "validate", "--file", str(path)])
        assert [k for k, _ in rep["coordinate_changes"]] == [2]
        assert code == 0
        assert rep["validation"]["all_pass"] is True

    def test_tower_one_levels_report_no_unit_constant(self, tmp_path):
        # a smooth germ's tower ends at its top level; the constant-one
        # levels below it carry no unit, and the report says null
        path = tmp_path / "smooth.ideal"
        path.write_text("vars: x y z\nprec: 6\ngen: z + x^2 + y^3\n",
                        encoding="utf-8")
        code, rep = cli.run(["tower", "validate", "--file", str(path)])
        assert code == 0 and rep["validation"]["all_pass"] is True
        ones = {lvl["index"]: lvl["unit_constant"] for lvl in rep["levels"]
                if lvl["is_one"]}
        assert ones == {2: None, 1: None}

    @pytest.mark.parametrize("weights", ["a", "1,,2", "10,x"])
    def test_malformed_weights_is_usage_error(self, ideal_file, weights):
        code, rep = cli.run(["flat", "--file", ideal_file, "--k", "2",
                             "--weights", weights])
        assert code == 1
        assert rep["error"] == "usage" and "--weights" in rep["detail"]

    @pytest.mark.parametrize("weights", ["0", "-3", "10,0"])
    def test_weight_below_one_is_usage_error(self, ideal_file, weights):
        # refused before the search, which would reach it only after l0
        code, rep = cli.run(["flat", "--file", ideal_file, "--k", "2",
                             "--weights", weights])
        assert code == 1
        assert rep["error"] == "usage" and "--weights" in rep["detail"]

    def test_weight_above_the_cap_is_usage_error(self, ideal_file):
        for weights, ok in ((str(cli.MAX_SPLIT_WEIGHT), True),
                            (str(cli.MAX_SPLIT_WEIGHT + 1), False),
                            (f"10,{10 ** 9}", False)):
            code, rep = cli.run(["flat", "--file", ideal_file, "--k", "2",
                                 "--weights", weights])
            if ok:
                assert code == 0 and rep["verdict"] == "FLAT"
            else:
                assert code == 1
                assert rep["error"] == "usage" and "--weights" in rep["detail"]

    @pytest.mark.parametrize("spec", ["split:k=a,l=2", "split:k", "w:1,a",
                                      "w:1,1/0"])
    def test_malformed_order_spec_is_form_mismatch(self, monomial_file,
                                                   tmp_path, spec):
        path = tmp_path / "ordered.ideal"
        path.write_text(f"vars: x y\nprec: 6\norder: {spec}\ngen: x^2\n",
                        encoding="utf-8")
        for argv in (["divide", "--file", monomial_file, "--dividend", "x",
                      "--order", spec],
                     ["sbasis", "complete", "--file", str(path)],
                     ["diagram", "--file", str(path)]):
            code, rep = cli.run(argv)
            assert code == 1
            assert rep["error"] == "FormMismatch" and spec in rep["detail"]

    @pytest.mark.parametrize("k", ["0", "-1", "3"])
    def test_reduction_index_out_of_range(self, monomial_file, k):
        code, rep = cli.run(["reduction", "--file", monomial_file, "--k", k])
        assert code == 1
        assert rep["error"] == "DimensionMismatch" and "out of range" in rep["detail"]

    @pytest.mark.parametrize("action", ["build", "validate"])
    def test_tower_beyond_the_window_is_refused(self, action, capsys,
                                                monkeypatch):
        # the product of the prepared generators has degree beyond prec 8
        path = SAMPLES / "cm_family.ideal"
        monkeypatch.setattr("sys.argv", ["localring", "tower", action,
                                         "--file", str(path)])
        with pytest.raises(SystemExit) as exit_:
            cli.main()
        assert exit_.value.code == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["error"] == "PrecisionShortfall"
        assert "window 8" in rep["detail"]

    def test_deep_nesting_is_a_parse_error(self, tmp_path):
        path = tmp_path / "deep.ideal"
        path.write_text("vars: x y\nprec: 4\ngen: " + "(" * 1200 + "x"
                        + ")" * 1200 + "\n", encoding="utf-8")
        code, rep = cli.run(["hs", "--file", str(path), "--eta", "3"])
        assert code == 1
        assert rep["error"] == "parse" and rep["position"] == MAX_NESTING

    @pytest.mark.parametrize("command", [["hs", "--eta", "3"],
                                         ["tower", "validate"]])
    def test_non_utf8_file_is_one_parse_report(self, tmp_path, command,
                                               capsys, monkeypatch):
        # the offending byte's offset is the position; no traceback
        path = tmp_path / "bad.ideal"
        path.write_bytes(b"vars: x y\nprec: 4\ngen: x\xff\n")
        monkeypatch.setattr("sys.argv",
                            ["localring", *command, "--file", str(path)])
        with pytest.raises(SystemExit) as exit_:
            cli.main()
        assert exit_.value.code == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["error"] == "parse" and rep["position"] == 24
        assert "UTF-8" in rep["detail"]

    def test_reports_are_byte_reproducible(self, ideal_file):
        outs = set()
        for _ in range(2):
            code, rep = cli.run(["dim", "--file", ideal_file, "--seed", "5",
                                 "--trials", "3"])
            outs.add(json.dumps(rep, sort_keys=True))
        assert len(outs) == 1
