"""The paper's first theorem on the sample built for it.

A Cohen-Macaulay germ keeps its Hilbert-Samuel function under a close
perturbation.  `sample_ideals/cm_family.ideal` carries `exp(z)`, so its
generators are certified jets; the flatness search expands them from the
file to its weighted window.  Each run is checked through the library and
through the CLI, and both Hilbert-Samuel tables against the row-reduction
oracle on the presentation and on its perturbation.
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

CM_FAMILY = Path(__file__).resolve().parent.parent / "sample_ideals" / "cm_family.ideal"

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
    return I, deltas, AP.perturb(AP.PerturbationSpec(I, mu, L, deltas))


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
