"""Presentations that expand themselves agree with themselves.

A presentation's source expands its generators to any window; the
expansion on a wider window must agree with the one on a narrower window
wherever the narrower one is certified.  Checked for a parsed file, the
example-82 family, a perturbation, and the file and its perturbation in
changed coordinates (`IdealPresentation.substitute`), under the standard
form and under the split form the flatness search uses on that family.  A
presentation without a source falls back to the per-series rule, which
refuses a certified generator the form cannot carry to the window.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localring import approx as AP
from localring import kernel as K
from localring import linalg
from localring import order as O
from localring.errors import PrecisionShortfall
from localring.parser import load_ideal_file, parse_expression
from conftest import rand_poly
from oracles import print_series

CM_FAMILY = Path(__file__).resolve().parent.parent / "sample_ideals" / "cm_family.ideal"
FILE = load_ideal_file(CM_FAMILY.read_text(encoding="utf-8"))

std3 = O.std_form(3)
split = O.weighted_split_form(3, 2, 9)

#: (form, the widest window drawn under it)
FORMS = [(std3, 16), (split, 90)]

#: x -> x + y, z -> y + z: unimodular, and every new variable meets y, so
#: the exponential in z spreads over the tail and the head variables
SHEAR = ((1, 1, 0), (0, 1, 0), (0, 1, 1))


def file_presentation():
    return FILE.presentation(std3, 8)


def perturbed(deltas=("x^9", "y^2*z^8", "0"), M=None):
    """The file's perturbation, or with M the perturbation of the file in
    the coordinates x -> Mx by the deltas changed by M, as
    `ci_stability_experiment` builds it."""
    base = file_presentation()
    deltas = [parse_expression(d, FILE.var_names, std3, 16) for d in deltas]
    if M is not None:
        base = base.substitute(M)
        deltas = [K.substitute_linear(d, M) for d in deltas]
    return AP.perturb(AP.PerturbationSpec(base, 8, std3, tuple(deltas)))


PRESENTATIONS = {
    "file": file_presentation,
    "example82": lambda: AP.example_family(8),
    "example82 with h = z": lambda: AP.example_family(8, K.variable(1, 0)),
    "perturbed": perturbed,
    "file in changed coordinates": lambda: file_presentation().substitute(SHEAR),
    "its perturbation": lambda: perturbed(M=SHEAR),
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
    I = K.IdealPresentation(3, file_presentation().gens, FILE.var_names)
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


@pytest.mark.parametrize("form, window", [
    (std3, 12), (split, 27), (O.LinearForm((Fraction(1, 2), 1, 3)), 10)])
def test_changed_coordinates_agree_with_a_wider_changed_expansion(form, window):
    # the source asks the file for the standard window window / min(w),
    # twice the window under the last form; substituting a twice as wide
    # expansion must agree on the window
    I = file_presentation().substitute(SHEAR)
    wide = [K.certified_under(K.substitute_linear(g, SHEAR), form, window)
            for g in FILE.generators(std3, 2 * window)]
    for got, ref in zip(I.at(form, window), wide):
        assert K.agrees_up_to(got, ref, form, window)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(FORMS),
       st.integers(1, 30), st.booleans())
def test_on_exact_generators_substitute_commutes_with_at(seed, drawn, window,
                                                         from_file):
    form, _ = drawn
    rng = random.Random(seed)
    gens = [rand_poly(rng, 3, max_terms=4, max_exp=3) for _ in range(2)]
    M = linalg.seeded_unimodular(rng, 3)
    if from_file:
        text = "vars: x y z\nprec: 4\n" + "".join(
            f"gen: {print_series(g, FILE.var_names)}\n" for g in gens)
        I = load_ideal_file(text).presentation(std3, 4)
    else:
        I = K.IdealPresentation(3, gens, FILE.var_names)
    assert I.substitute(M).at(form, window) == tuple(
        K.substitute_linear(g, M) for g in I.at(form, window))
