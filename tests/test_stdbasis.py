from fractions import Fraction as F

import pytest

from conftest import recheck_step
from localring import kernel as K
from localring import order as O
from localring import stdbasis as SB
from localring.approx import example_family
from localring.diagram import diagram_of
from localring.division import hironaka_divide
from localring.errors import PrecisionShortfall, ZeroUpToPrecision

std1 = O.std_form(1)
std2 = O.std_form(2)
std3 = O.std_form(3)


def example_gens(mu, h=None, window=None):
    return example_family(mu, h).at(std3, window if window is not None else mu)


class TestSSeries:
    def test_monomials_cancel(self):
        s = SB.s_series(K.monomial(2, (2, 0)), K.monomial(2, (0, 3)), std2)
        assert s.is_exact_zero

    def test_pair_2_3_cancels_exactly(self):
        _, F2, F3 = example_gens(8)
        s = SB.s_series(F2, F3, std3)
        assert s.is_zero_up_to_prec

    def test_perturbed_pair_2_3(self):
        # with h(z) = z at mu = 8 the s-series is exactly x^2 y^2 z^7
        h = K.variable(1, 0)
        _, G2, G3 = example_gens(8, h=h, window=14)
        s = SB.s_series(G2, G3, std3)
        assert s.terms == {(2, 2, 7): F(1)}

    def test_zero_input_rejected(self):
        with pytest.raises(ZeroUpToPrecision):
            SB.s_series(K.zero(2), K.variable(2, 0), std2)


class TestStandardRepresentation:
    def test_exact_zero_passes(self):
        division = hironaka_divide(K.zero(2), [K.variable(2, 0)], std2, 5)
        assert division.remainder_is_zero

    def test_s13_has_representation(self):
        F1, F2, F3 = example_gens(12)
        s13 = SB.s_series(F1, F3, std3)
        division = hironaka_divide(s13, [F1, F2, F3], std3, 12)
        assert division.remainder_is_zero
        assert division.quotients[0].coefficient((0, 0, 4)) == -1

    def test_perturbed_witness_fails(self):
        # x^2 y^2 z^7 against heads x^8, y^5, x^2 y^3: no region, remainder stays
        h = K.variable(1, 0)
        G = example_gens(8, h=h, window=14)
        witness = K.monomial(3, (2, 2, 7))
        division = hironaka_divide(witness, list(G), std3, 12)
        assert not division.remainder_is_zero
        assert division.remainder.terms == {(2, 2, 7): F(1)}


class TestBeckerCheck:
    def test_example_verifies(self):
        basis = SB.becker_check(example_gens(12), std3, 12)
        assert basis.verified
        full = SB.becker_check(example_gens(12), std3, 12,
                               use_coprime_skip=False)
        assert full.verified

    def test_single_monomial(self):
        basis = SB.becker_check([K.monomial(2, (2, 0))], std2, 5)
        assert basis.verified and basis.pair_checks == ()

    def test_perturbed_fails_when_window_sees_witness(self):
        # the jet order is 8; the failing s-series term x^2 y^2 z^7 sits at
        # level 11, so the verification window must reach it
        h = K.variable(1, 0)
        G = example_gens(8, h=h, window=14)
        basis = SB.becker_check(list(G), std3, 12)
        assert not basis.verified
        failing = [(c.i, c.j) for c in basis.pair_checks if c.status == "fail"]
        assert failing == [(1, 2)]

    def test_head_beyond_window_rejected(self):
        with pytest.raises(PrecisionShortfall):
            SB.becker_check([K.monomial(2, (6, 0))], std2, 4)


class TestComplete:
    def test_monomial_ideal_unchanged(self):
        I = K.IdealPresentation(2, (K.monomial(2, (2, 0)), K.monomial(2, (0, 3))))
        basis = SB.complete(I, std2, 8)
        assert basis.gens == I.gens
        assert basis.verified

    def test_adjoins_perturbed_witness(self):
        h = K.variable(1, 0)
        G = example_gens(8, h=h, window=14)
        basis = SB.complete(K.IdealPresentation(3, G), std3, 12)
        heads = basis.heads
        assert (2, 2, 7) in heads
        assert len(basis.gens) == 4

    def test_parabola_pair(self):
        I = K.IdealPresentation(
            2, (K.series(2, {(0, 1): 1, (2, 0): -1}), K.variable(2, 1)))
        basis = SB.complete(I, std2, 6)
        D = diagram_of(basis)
        assert D.vertices == ((0, 1), (2, 0))

    def test_idempotence_and_self_division(self):
        h = K.variable(1, 0)
        G = example_gens(8, h=h, window=14)
        basis = SB.complete(K.IdealPresentation(3, G), std3, 12)
        recheck = SB.becker_check(basis.gens, std3, 12)
        assert recheck.verified
        again = SB.complete(K.IdealPresentation(3, basis.gens), std3, 12)
        assert len(again.gens) == len(basis.gens)
        # every member divides to zero against the basis
        for g in basis.gens:
            assert hironaka_divide(g, basis.gens, std3, 12).remainder_is_zero

    def test_completion_steps_reconstruct(self):
        h = K.variable(1, 0)
        G = example_gens(8, h=h, window=14)
        basis = SB.complete(K.IdealPresentation(3, G), std3, 12)
        assert [step.adjoined_index for step in basis.completion_steps
                if step.adjoined_index is not None] == [3]
        for step in basis.completion_steps:
            recheck_step(basis, step)

    def test_idempotence_on_seeded_ideals(self):
        import random
        from conftest import rand_poly
        rng = random.Random(321)
        for _ in range(40):
            n = rng.randint(1, 3)
            gens = tuple(rand_poly(rng, n, max_exp=2, min_order=1)
                         for _ in range(rng.randint(1, 3)))
            basis = SB.complete(K.IdealPresentation(n, gens),
                                O.std_form(n), 7)
            recheck = SB.becker_check(basis.gens, O.std_form(n), 7,
                                      use_coprime_skip=False)
            assert recheck.verified

    def test_budget_guard_reports_partial(self):
        from localring.errors import BudgetExceeded
        h = K.variable(1, 0)
        G = example_gens(8, h=h, window=14)
        with pytest.raises(BudgetExceeded) as err:
            SB.complete(K.IdealPresentation(3, G), std3, 12, max_adjoined=0)
        partial = err.value.partial
        assert not partial.verified
        assert len(partial.gens) == 3  # the blocked adjoin is not included

    @pytest.mark.parametrize("certified", [False, True])
    def test_budget_partial_keeps_the_adjoined_member(self, certified):
        # three quadrics whose completion adjoins three members; the budget
        # of one stops it at the second, so the partial basis carries the
        # member built from the first remainder
        from localring.errors import BudgetExceeded
        gens = [K.series(3, {(2, 0, 0): 1, (0, 1, 1): 1}),
                K.series(3, {(0, 2, 0): 1, (1, 0, 1): 1}),
                K.series(3, {(0, 0, 2): 1, (1, 1, 0): 1})]
        if certified:
            gens = [K.truncate(g, std3, 9) for g in gens]
        I = K.IdealPresentation(3, tuple(gens))
        full = SB.complete(I, std3, 8)
        assert len(full.gens) >= len(gens) + 2
        with pytest.raises(BudgetExceeded) as err:
            SB.complete(I, std3, 8, max_adjoined=1)
        partial = err.value.partial
        assert not partial.verified
        assert partial.gens == full.gens[:len(gens) + 1]
        assert partial.heads == full.heads[:len(gens) + 1]

    def test_reduced_head_set(self):
        h = K.variable(1, 0)
        G = example_gens(8, h=h, window=14)
        basis = SB.complete(K.IdealPresentation(3, G), std3, 12)
        heads = basis.heads
        for i, a in enumerate(heads):
            for j, b in enumerate(heads):
                if i != j and i > j:
                    assert not all(x >= y for x, y in zip(a, b)) or a == b
