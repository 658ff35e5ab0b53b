"""Presentations that expand themselves agree with themselves.

A presentation's source expands its generators to any window; the
expansion on a wider window must agree with the one on a narrower window
wherever the narrower one is certified.  Checked for a parsed file, the
example-82 family and a perturbation, under the standard form and under
the split form the flatness search uses on that family.  A presentation
without a source falls back to the per-series rule, which refuses a
certified generator the form cannot carry to the window.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localring import approx as AP
from localring import kernel as K
from localring import order as O
from localring.errors import PrecisionShortfall
from localring.parser import load_ideal_file, parse_expression

CM_FAMILY = Path(__file__).resolve().parent.parent / "sample_ideals" / "cm_family.ideal"
FILE = load_ideal_file(CM_FAMILY.read_text(encoding="utf-8"))

std3 = O.std_form(3)
split = O.weighted_split_form(3, 2, 9)

#: (form, the widest window drawn under it)
FORMS = [(std3, 16), (split, 90)]


def file_presentation():
    return FILE.presentation(std3, 8)


def perturbed(deltas=("x^9", "y^2*z^8", "0")):
    base = file_presentation()
    return AP.perturb(AP.PerturbationSpec(
        base, 8, std3,
        tuple([parse_expression(d, FILE.var_names, std3, 16) for d in deltas])))


PRESENTATIONS = {
    "file": file_presentation,
    "example82": lambda: AP.example_family(8),
    "example82 with h = z": lambda: AP.example_family(8, K.variable(1, 0)),
    "perturbed": perturbed,
}


@st.composite
def windows(draw):
    form, top = draw(st.sampled_from(FORMS))
    w1 = draw(st.integers(1, top - 1))
    w2 = draw(st.integers(w1 + 1, top))
    return form, w1, w2


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(PRESENTATIONS)), windows())
def test_a_wider_window_agrees_on_the_narrower_one(name, drawn):
    form, w1, w2 = drawn
    I = PRESENTATIONS[name]()
    for narrow, wide in zip(I.at(form, w1), I.at(form, w2)):
        assert K.agrees_up_to(narrow, wide, form, w1)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_the_window_the_generators_were_built_on_gives_them_back(name):
    # each presentation here holds its generators on (std, 8); a
    # perturbation's come back with its deltas added
    I = PRESENTATIONS[name]()
    assert I.at(std3, 8) == I.gens


@pytest.mark.parametrize("form, window", [(std3, 8), (std3, 13), (split, 72)])
def test_a_file_presentation_expands_as_the_file_parses(form, window):
    assert file_presentation().at(form, window) == FILE.generators(form, window)


def test_without_a_source_a_certified_generator_is_refused():
    I = file_presentation().map_gens(lambda g: g)
    assert I.source is None
    assert I.at(std3, 8) == I.gens  # certified far enough: passes as it is
    with pytest.raises(PrecisionShortfall, match="too short") as refusal:
        I.at(split, 72)
    assert "callback" not in str(refusal.value)


def test_an_exact_generator_passes_without_a_source():
    I = K.IdealPresentation(3, (K.monomial(3, (0, 0, 2)),))
    assert I.at(split, 1000) == I.gens


def test_a_certified_delta_is_asked_only_as_far_as_it_is_known():
    # the perturbation expands as far as its certified delta is known and
    # refuses beyond it, whatever its base could give
    J = perturbed(("x^9", "z^9*exp(z)", "0"))
    known = parse_expression("z^9*exp(z)", FILE.var_names, std3, 16).prec
    assert K.agrees_up_to(J.at(std3, known)[1], J.gens[1], std3, 8)
    with pytest.raises(PrecisionShortfall):
        J.at(std3, known + 1)
