"""Contracts of the three validating value classes: what `==`, `hash` and
`repr` read, and what their constructors refuse or coerce."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from localring import kernel as K
from localring import order as O
from localring.errors import (
    DimensionMismatch,
    FormMismatch,
    PresentationError,
)

std2 = O.std_form(2)


class TestPrecisionSeries:
    def test_equality_reads_every_field(self):
        f = K.PrecisionSeries(2, {(1, 0): F(1)}, F(5), std2)
        assert f == K.PrecisionSeries(2, {(1, 0): F(1)}, F(5), std2)
        assert f != K.PrecisionSeries(3, {(1, 0): F(1)}, F(5), O.std_form(3))
        assert f != K.PrecisionSeries(2, {(1, 0): F(2)}, F(5), std2)
        assert f != K.PrecisionSeries(2, {(1, 0): F(1)}, F(6), std2)
        assert f != K.PrecisionSeries(2, {(1, 0): F(1)}, F(5),
                                      O.LinearForm((1, 2)))
        assert f != K.PrecisionSeries(2, {(1, 0): F(1)})

    def test_not_equal_to_its_fields_as_a_tuple(self):
        f = K.PrecisionSeries(2, {(1, 0): F(1)})
        assert f != (2, {(1, 0): F(1)}, None, None)
        assert f != 1

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(K.one(2))

    def test_a_finite_bound_needs_a_form(self):
        with pytest.raises(FormMismatch):
            K.PrecisionSeries(2, {}, F(3))

    def test_an_exact_series_drops_its_form(self):
        f = K.PrecisionSeries(2, {(0, 1): F(1)}, K.EXACT, std2)
        assert f.form_ctx is None
        assert f == K.PrecisionSeries(2, {(0, 1): F(1)})

    def test_defaults(self):
        f = K.PrecisionSeries(1, {})
        assert f.prec is K.EXACT and f.form_ctx is None

    def test_repr(self):
        f = K.series(2, {(1, 0): 1, (0, 2): F(1, 2)}, 5, std2)
        assert repr(f) == "PrecisionSeries(n=2, {(1, 0):1, (0, 2):1/2}, prec=5)"
        g = K.series(2, {(i, 0): 1 for i in range(6)})
        assert repr(g) == ("PrecisionSeries(n=2, {(0, 0):1, (1, 0):1, (2, 0):1,"
                           " (3, 0):1, ... (6 terms)}, prec=EXACT)")


class TestLinearForm:
    def test_equality_and_hash_read_the_weights_alone(self):
        a, b = O.LinearForm((1, F(1, 2))), O.LinearForm([F(2, 2), F(1, 2)])
        assert a == b and hash(a) == hash(b)
        assert a != O.LinearForm((1, 2))
        assert {a: 1}[b] == 1
        assert a != (F(1), F(1, 2))

    def test_coerces_weights_to_a_tuple_of_fractions(self):
        L = O.LinearForm([1, "1/2"])
        assert L.weights == (F(1), F(1, 2))
        assert all(type(w) is F for w in L.weights)

    def test_refusals(self):
        with pytest.raises(DimensionMismatch):
            O.LinearForm(())
        with pytest.raises(FormMismatch):
            O.LinearForm((1, 0))
        with pytest.raises(FormMismatch):
            O.LinearForm((1, -2))

    def test_frozen(self):
        L = O.LinearForm((1, 2))
        with pytest.raises(AttributeError):
            L.weights = (F(1),)
        assert L.weights == (F(1), F(2))

    def test_copies_and_pickles(self):
        L = O.LinearForm((1, F(1, 2)))
        for twin in (copy.copy(L), copy.deepcopy(L),
                     pickle.loads(pickle.dumps(L))):
            assert twin == L and twin.den == 2 and twin.int_weights == (2, 1)


class TestIdealPresentation:
    def test_equality_and_repr_ignore_the_source(self):
        f = K.variable(2, 0)
        plain = K.IdealPresentation(2, (f,), ("x", "y"))
        sourced = K.IdealPresentation(2, (f,), ("x", "y"),
                                      lambda form, window: (f,))
        assert plain == sourced
        assert repr(plain) == repr(sourced) == (
            "IdealPresentation(n=2, gens=(PrecisionSeries(n=2, {(1, 0):1}, "
            "prec=EXACT),), var_names=('x', 'y'))")

    def test_equality_reads_n_gens_and_names(self):
        x, y = K.variable(2, 0), K.variable(2, 1)
        I = K.IdealPresentation(2, (x,), ("x", "y"))
        assert I != K.IdealPresentation(2, (y,), ("x", "y"))
        assert I != K.IdealPresentation(2, (x,), ("u", "v"))
        assert I != K.IdealPresentation(2, (x, y), ("x", "y"))
        assert I != (2, (x,), ("x", "y"))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(K.IdealPresentation(1, (K.variable(1, 0),)))

    def test_coerces_gens_and_names(self):
        x = K.variable(2, 0)
        I = K.IdealPresentation(2, [x])
        assert I.gens == (x,) and type(I.gens) is tuple
        assert I.var_names == ("x1", "x2")
        assert I.source is None
        assert K.IdealPresentation(2, [x], ["u", "v"]).var_names == ("u", "v")

    def test_refusals(self):
        # the empty list, the exact zero and a wrong dimension are in
        # test_kernel.py::test_presentation_invariants
        with pytest.raises(PresentationError):
            K.IdealPresentation(2, (K.PrecisionSeries(2, {}, F(4), std2),))
        with pytest.raises(PresentationError):
            K.IdealPresentation(2, (K.variable(2, 0),), ("x",))
