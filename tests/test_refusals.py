"""Every documented refusal raises its error class with its message.

One case per refusal or skip that no other test reaches: each runs a call
that the refusal must stop, and checks the class and a fragment of the
message.  The CLI cases check that a refusal becomes one report with exit
code 1.
"""

from fractions import Fraction as F

import pytest

from localring import approx as AP
from localring import cli
from localring import diagram as DG
from localring import division as DIV
from localring import equising as E
from localring import kernel as K
from localring import linalg
from localring import order as O
from localring import stdbasis as SB
from localring.errors import (
    DimensionMismatch,
    FormMismatch,
    NotRegular,
    ParseError,
    PrecisionShortfall,
    PresentationError,
    ZeroUpToPrecision,
)
from localring.parser import load_ideal_file

std1, std2, std3 = O.std_form(1), O.std_form(2), O.std_form(3)
wt21 = O.LinearForm((F(2), F(1)))


def x(n: int = 2) -> K.PrecisionSeries:
    return K.variable(n, 0)


def y(n: int = 2) -> K.PrecisionSeries:
    return K.variable(n, 1)


def staircase() -> DG.Diagram:
    return DG.Diagram(2, ((1, 0),), std2, F(3))


def weighted_basis() -> SB.CertifiedBasis:
    return SB.complete(K.IdealPresentation(2, [x(), y()]), wt21, 3)


CASES = {
    # division
    "divide-no-divisor": (
        lambda: DIV.hironaka_divide(x(), [], std2, 4),
        ZeroUpToPrecision, "at least one divisor"),
    "divide-divisor-dimension": (
        lambda: DIV.hironaka_divide(x(), [x(3)], std2, 4),
        DimensionMismatch, "divisor dimension differs"),
    "divide-form-dimension": (
        lambda: DIV.hironaka_divide(x(), [y()], std3, 4),
        DimensionMismatch, "form on 3 variables, dividend in 2"),
    "region-dimension": (
        lambda: DIV.RegionPartition(((1, 0),)).region_of((1, 0, 0)),
        DimensionMismatch, "against head (1, 0)"),
    # kernel
    "series-dimension": (
        lambda: K.series(2, {(1, 0, 0): 1}),
        DimensionMismatch, "in ambient dimension 2"),
    "series-bound-without-form": (
        lambda: K.series(2, {(1, 0): 1}, F(3)),
        FormMismatch, "needs a linear form"),
    "window-dimension": (
        lambda: K.truncate(x(), std3, 2),
        DimensionMismatch, "vs form on 3 variables"),
    "sum-of-two-forms": (
        lambda: K.add(K.truncate(x(), std2, 3), K.truncate(y(), wt21, 3)),
        FormMismatch, "differ"),
    "negative-power": (
        lambda: K.power(x(), -1),
        PresentationError, "negative powers"),
    "reweight-dimension": (
        lambda: K.reweight(K.truncate(x(), std2, 3), std3),
        DimensionMismatch, "form dimension differs"),
    "embed-map-length": (
        lambda: K.embed(x(), 3, (0,)),
        DimensionMismatch, "variable map (0,) for dimension 2"),
    "embed-map-range": (
        lambda: K.embed(x(), 3, (0, 3)),
        DimensionMismatch, "outside dimension 3"),
    "builtin-constant-term": (
        lambda: K.exp_jet(K.one(1), std1, 3),
        ZeroUpToPrecision, "zero constant term"),
    "substitute-matrix-shape": (
        lambda: K.substitute_linear(x(), [[1]]),
        DimensionMismatch, "expected a 2x2 matrix"),
    # linalg
    "det-not-square": (
        lambda: linalg.det([[1, 2]]),
        ValueError, "not square"),
    # order
    "split-weight-below-one": (
        lambda: O.weighted_split_form(3, 1, F(1, 2)),
        FormMismatch, "split weight must be >= 1"),
    "split-index": (
        lambda: O.weighted_split_form(3, 3, 2),
        DimensionMismatch, "split index k=3 out of range for n=3"),
    "compare-lengths": (
        lambda: O.compare(std2, (1, 0), (1, 0, 0)),
        DimensionMismatch, "cannot compare"),
    "initial-exponent-form": (
        lambda: O.initial_exponent(std2, K.truncate(x(), wt21, 3)),
        FormMismatch, "asked under"),
    "split-form-without-k-l": (
        lambda: O.parse_form("split:k=1", 3),
        FormMismatch, "split form needs k= and l="),
    # parser
    "unknown-directive": (
        lambda: load_ideal_file("vars: x\nfoo: 1\n"),
        ParseError, "unknown directive 'foo'"),
    # diagram
    "contains-dimension": (
        lambda: staircase().contains((1, 0, 0)),
        DimensionMismatch, "in dimension 2"),
    "count-under-another-form": (
        lambda: DG.complement_count(staircase(), wt21, 2),
        FormMismatch, "not built for"),
    "hilbert-samuel-weighted": (
        lambda: DG.hilbert_samuel(weighted_basis(), 2),
        FormMismatch, "use the standard form"),
    "hilbert-samuel-beyond-the-window": (
        lambda: DG.hilbert_samuel(
            SB.complete(K.IdealPresentation(2, [x()]), std2, 3), 4),
        PrecisionShortfall, "eta_max 4 beyond certification 3"),
    "evaluate-split-index": (
        lambda: DG.evaluated_ideal(K.IdealPresentation(2, [x()]), 2),
        DimensionMismatch, "split index 2 out of range for n=2"),
    "product-split-index": (
        lambda: DG.product_structure_check(staircase(), 0),
        DimensionMismatch, "split index 0 out of range for n=2"),
    "span-rows-dimension": (
        lambda: list(DG.ideal_span_rows([x()], 2, std3)),
        DimensionMismatch, "series in 2 variables vs form on 3"),
    # equising
    "tower-no-generators": (
        lambda: E.build_tower([], 4),
        PresentationError, "needs generators"),
    "tower-no-variables": (
        lambda: E.build_tower([K.PrecisionSeries(0, {(): F(1)})], 4),
        DimensionMismatch, "must be at least 1"),
    "tower-mixed-dimensions": (
        lambda: E.build_tower([x(), x(3)], 4),
        DimensionMismatch, "mixed ambient dimensions"),
    "tower-zero-generator": (
        lambda: E.build_tower([K.zero(2)], 4),
        PresentationError, "must be nonzero"),
    "root-count-coefficients": (
        lambda: E.distinct_root_count_check([1], 2),
        DimensionMismatch, "expected 2 coefficients"),
    # approx
    "cm-runner-h-in-two-variables": (
        lambda: AP.cm_counterexample_runner(8, y()),
        PresentationError, "last variable alone"),
}


@pytest.mark.parametrize("name", CASES)
def test_refusal(name):
    call, error, fragment = CASES[name]
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error
    assert fragment in str(raised.value)


def test_span_rows_skip_a_generator_that_is_zero_on_the_window():
    # a generator zero up to its bound adds no row, and the others do
    zero = K.PrecisionSeries(2, {}, F(3), std2)
    rows = list(DG.ideal_span_rows([zero, x()], 2))
    assert rows == list(DG.ideal_span_rows([x()], 2))
    assert rows


def test_regularity_refused_when_no_change_is_left(monkeypatch):
    # x*y*z is regular in no variable; with no draw left the search refuses
    monkeypatch.setattr(E, "COORDINATE_CHANGE_RETRIES", 0)
    xyz = K.monomial(3, (1, 1, 1))
    with pytest.raises(NotRegular, match="no sampled change"):
        E.build_tower([xyz], 6)


def test_the_experiment_stops_without_an_axis_vertex():
    # x*y has no vertex on an axis, and one trial draws no change
    I = K.IdealPresentation(2, [K.monomial(2, (1, 1))])
    report = AP.ci_stability_experiment(I, 4, [K.zero(2)], trials=1)
    assert (report["k"], report["status"]) == (0, "NO-AXIS-VERTEX")
    assert "items" not in report


def test_jsonable_writes_any_other_value_as_its_string():
    assert cli.jsonable(1.5) == "1.5"
    assert cli.jsonable({"k": [2.5, None]}) == {"k": ["2.5", None]}


@pytest.mark.parametrize("text, fragment", [
    ("prec: 4\n", "missing vars declaration"),
    ("vars: x\ngen: x\n", "missing prec declaration"),
    ("vars: x\nprec: 4\n", "at least one gen line"),
])
def test_an_incomplete_file_is_refused(tmp_path, text, fragment):
    with pytest.raises(ParseError, match=fragment):
        load_ideal_file(text)
    path = tmp_path / "incomplete.ideal"
    path.write_text(text, encoding="utf-8")
    code, rep = cli.run(["diagram", "--file", str(path)])
    assert code == 1
    assert rep["error"] == "parse" and fragment in rep["detail"]


@pytest.mark.parametrize("argv, detail", [
    (["dim", "--trials", "0"], "argument --trials: must be at least 1: 0"),
    (["hs", "--eta", "-1"], "argument --eta: must be at least 0: -1"),
])
def test_cli_integer_options_keep_their_messages(tmp_path, argv, detail):
    path = tmp_path / "cusp.ideal"
    path.write_text("vars: x y\nprec: 6\ngen: y^2 - x^3\n", encoding="utf-8")
    code, rep = cli.run([argv[0], "--file", str(path), *argv[1:]])
    assert (code, rep) == (1, {"error": "usage", "detail": detail})
