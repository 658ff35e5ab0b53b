"""The admission rule at every site that takes a certified operand.

A series enters a computation on the window {L <= mu} only if it is EXACT
or certified under L to at least mu (`kernel._admit`).  Every site refuses
a foreign form with `FormMismatch` and a bound below mu with
`PrecisionShortfall`, and admits an EXACT operand.
"""

from fractions import Fraction as F

import pytest

from localring import approx as AP
from localring import diagram as DG
from localring import division as DIV
from localring import equising as EQ
from localring import kernel as K
from localring import order as O
from localring import stdbasis as SB
from localring.errors import FormMismatch, PrecisionShortfall

STD = O.std_form(2)
FOREIGN = O.LinearForm((F(1), F(2)))
MU = F(4)
TERMS = {(1, 0): 1, (0, 2): F(1, 2)}  # x + y^2/2, regular in x
X = K.variable(2, 0)

# each site receives the operand f on the window {STD <= MU}
SITES = {
    "truncate": lambda f: K.truncate(f, STD, MU),
    "jet": lambda f: AP.jet(f, STD, MU),
    "agrees_up_to": lambda f: K.agrees_up_to(X, f, STD, MU),
    "ideal_span_rows": lambda f: list(DG.ideal_span_rows([f], MU, STD)),
    "weierstrass_prepare": lambda f: EQ.weierstrass_prepare(f, 0, MU),
    "hironaka_divide-dividend": lambda f: DIV.hironaka_divide(f, [X], STD, MU),
    "hironaka_divide-divisor": lambda f: DIV.hironaka_divide(X, [f], STD, MU),
    "complete": lambda f: SB.complete(K.IdealPresentation(2, (f,)), STD, MU),
    "becker_check": lambda f: SB.becker_check([f], STD, MU),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_foreign_form_is_refused(site):
    f = K.series(2, TERMS, 10, FOREIGN)  # certified far beyond MU
    with pytest.raises(FormMismatch):
        SITES[site](f)


@pytest.mark.parametrize("site", sorted(SITES))
def test_bound_below_the_window_is_refused(site):
    f = K.series(2, TERMS, MU - 1, STD)
    with pytest.raises(PrecisionShortfall):
        SITES[site](f)


@pytest.mark.parametrize("site", sorted(SITES))
def test_exact_and_certified_operands_are_admitted(site):
    SITES[site](K.series(2, TERMS))
    SITES[site](K.series(2, TERMS, MU, STD))
