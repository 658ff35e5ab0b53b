"""The paper's first theorem on the samples built for it.

A Cohen-Macaulay germ keeps its Hilbert-Samuel function under a close
perturbation.  `sample_ideals/cm_family.ideal` carries `exp(z)`, so its
generators are certified jets; the flatness search expands them from the
file to its weighted window.  Each run is checked through the library and
through the CLI, and both Hilbert-Samuel tables against the row-reduction
oracle on the presentation and on its perturbation.

`sample_ideals/space_curve_exp.ideal` is not a complete intersection, and
the dimension search picks a matrix that is not the identity; the changed
presentation (`IdealPresentation.substitute`) expands itself from the file
all the same.  Its Hilbert-Samuel table and its staircase under the split
form are checked against the row-reduction oracle on that presentation.
"""

from functools import cache
from pathlib import Path

import pytest

from localring import approx as AP
from localring import cli
from localring import diagram as DG
from localring import kernel as K
from localring import order as O
from localring.parser import load_ideal_file, parse_expression

SAMPLES = Path(__file__).resolve().parent.parent / "sample_ideals"
CM_FAMILY = SAMPLES / "cm_family.ideal"
SPACE_CURVE = SAMPLES / "space_curve_exp.ideal"

#: (mu, delta, regime_guaranteed): mu0 = 9 for this family
RUNS = [(8, "x^9", False), (10, "y^11", True)]


@cache
def presentations(mu: int, delta: str) -> tuple:
    """The file's presentation on (std, mu), its deltas as the CLI pads
    them, and the perturbed presentation."""
    f = load_ideal_file(CM_FAMILY.read_text(encoding="utf-8"))
    L = O.std_form(f.n)
    I = f.presentation(L, mu)
    deltas = (parse_expression(delta, f.var_names, L, 2 * mu),
              K.zero(f.n), K.zero(f.n))
    return I, deltas, AP.perturb(I, mu, deltas)


@cache
def oracle_tables(mu: int, delta: str) -> tuple:
    I, _, J = presentations(mu, delta)
    return tuple(tuple([DG.oracle_jet_quotient_dim(P, eta)
                        for eta in range(mu + 1)]) for P in (I, J))


@pytest.mark.parametrize("mu, delta, guaranteed", RUNS)
def test_library_run_keeps_the_hilbert_samuel_function(mu, delta, guaranteed):
    I, deltas, _ = presentations(mu, delta)
    rep = AP.ci_stability_experiment(I, mu, deltas)
    assert rep["matrix"] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert rep["all_equal"] is True
    assert rep["mu0"] == 9
    assert rep["regime_guaranteed"] is guaranteed
    assert rep["items"]["flatness"]["verdict"] == "FLAT"
    hs = rep["items"]["hilbert_samuel"]
    assert (hs["table"], hs["table_perturbed"]) == oracle_tables(mu, delta)


@pytest.mark.parametrize("mu, delta, guaranteed", RUNS)
def test_cli_run_keeps_the_hilbert_samuel_function(mu, delta, guaranteed):
    code, rep = cli.run(["ci-experiment", "--file", str(CM_FAMILY),
                         "--mu", str(mu), "--delta", delta])
    assert code == 0, rep
    assert rep["all_equal"] is True
    assert rep["mu0"] == 9
    assert rep["regime_guaranteed"] is guaranteed
    hs = rep["items"]["hilbert_samuel"]
    table, perturbed = oracle_tables(mu, delta)
    assert hs["table"] == list(table)
    assert hs["table_perturbed"] == list(perturbed)


@cache
def space_curve_run() -> tuple:
    """The library run of `ci-experiment --mu 8 --delta x^9` on the space
    curve, with the presentation in the coordinates it picked."""
    f = load_ideal_file(SPACE_CURVE.read_text(encoding="utf-8"))
    L = O.std_form(f.n)
    I = f.presentation(L, 8)
    deltas = (parse_expression("x^9", f.var_names, L, 16),
              K.zero(f.n), K.zero(f.n))
    rep = AP.ci_stability_experiment(I, 8, deltas)
    return rep, I.substitute(rep["matrix"])


def test_space_curve_in_general_coordinates_keeps_the_hilbert_samuel_function():
    rep, A = space_curve_run()
    assert rep["matrix"] == ((3, 3, -1), (0, -1, 1), (-2, 1, -2))
    assert rep["all_equal"] is True
    assert rep["mu0"] == 2
    assert (rep["items"]["flatness"]["verdict"], rep["items"]["flatness"]["l0"]
            ) == ("FLAT", 3)
    table = rep["items"]["hilbert_samuel"]["table"]
    assert table == tuple([1 + 3 * eta for eta in range(9)])
    assert table == tuple([DG.oracle_jet_quotient_dim(A, eta)
                           for eta in range(9)])


@pytest.mark.parametrize("eta", [3, 4])
def test_space_curve_split_staircase_counts_as_the_oracle(eta):
    _, A = space_curve_run()
    flat = DG.flatness_weight_search(A, 2, 8)
    Lw = O.weighted_split_form(3, 2, flat.l0)
    D = DG.Diagram(3, flat.vertices, Lw, flat.window)
    gens = K.IdealPresentation(3, A.at(Lw, flat.window))
    assert DG.complement_count(D, Lw, eta) == \
        DG.oracle_sublevel_quotient_dim(gens, Lw, eta)


def test_cli_run_in_general_coordinates():
    code, rep = cli.run(["ci-experiment", "--file", str(SPACE_CURVE),
                         "--mu", "8", "--delta", "x^9"])
    assert code == 0, rep
    assert rep["all_equal"] is True
    table = space_curve_run()[0]["items"]["hilbert_samuel"]["table"]
    assert rep["items"]["hilbert_samuel"]["table"] == list(table)
