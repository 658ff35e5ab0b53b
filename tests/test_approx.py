import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localring import approx as AP
from localring import kernel as K
from localring import order as O
from localring.errors import PrecisionShortfall, PresentationError
from conftest import rand_poly
import oracles as OR

std1 = O.std_form(1)
std2 = O.std_form(2)
std3 = O.std_form(3)


class TestJet:
    def test_truncates(self):
        f = K.series(1, {(1,): 1, (3,): 1})
        assert AP.jet(f, std1, 2).terms == {(1,): F(1)}

    def test_example_f2_jet(self):
        _, F2, _ = AP.example_family(8).at(std3, 10)
        j8 = AP.jet(F2, std3, 8)
        assert j8.prec is K.EXACT
        assert j8.terms == {(0, 5, 0): F(1), (0, 2, 4): F(1), (0, 2, 5): F(1),
                            (0, 2, 6): F(1, 2)}

    def test_weighted_jet(self):
        w = O.weighted_split_form(2, 1, 3)
        f = K.series(2, {(1, 0): 1, (0, 1): 1})
        assert AP.jet(f, w, 3).terms == {(1, 0): F(1), (0, 1): F(1)}
        assert AP.jet(f, w, 2).terms == {(1, 0): F(1)}

    def test_shortfall(self):
        f = K.series(1, {(1,): 1}, prec=3, form=std1)
        with pytest.raises(PrecisionShortfall):
            AP.jet(f, std1, 5)


def exponents(n):
    return st.tuples(*([st.integers(0, 4)] * n))


def polys(n):
    return st.dictionaries(exponents(n), st.integers(-4, 4), max_size=5).map(
        lambda d: K.series(n, d))


@settings(max_examples=60)
@given(polys(2), polys(2), st.integers(0, 6))
def test_jet_idempotent_and_additive(a, b, mu):
    ja = AP.jet(a, std2, mu)
    assert AP.jet(ja, std2, mu) == ja
    assert AP.jet(K.add(a, b), std2, mu) == K.add(AP.jet(a, std2, mu),
                                                  AP.jet(b, std2, mu))


@settings(max_examples=60)
@given(polys(2).filter(lambda f: bool(f.terms)), st.integers(0, 8))
def test_jet_head_stability(f, mu):
    head = O.initial_exponent(std2, f)
    if O.lvalue(std2, head) <= mu:
        assert O.initial_exponent(std2, AP.jet(f, std2, mu)) == head


class TestBuiltinJets:
    def test_exp(self):
        e = K.exp_jet(K.variable(1, 0), std1, 4)
        assert e.terms == {(0,): F(1), (1,): F(1), (2,): F(1, 2),
                           (3,): F(1, 6), (4,): F(1, 24)}
        assert e.prec == 4

    def test_geom(self):
        g = K.geom_jet(K.variable(1, 0), std1, 3)
        assert g.terms == {(i,): F(1) for i in range(4)}


class TestPerturb:
    def test_example_delta(self):
        mu = 8
        F1, F2, F3 = AP.example_family(mu).at(std3, 14)
        h3 = K.monomial(3, (0, 0, 1))
        delta = K.mul(K.monomial(3, (0, 2, mu - 2)), h3)
        out = AP.perturb(K.IdealPresentation(3, (F1, F2, F3)), mu,
                         (K.zero(3), delta, K.zero(3)))
        # the exponential jet contributes 1/6 at y^2 z^7; the delta adds 1
        assert out.gens[1].coefficient((0, 2, 7)) == F(7, 6)
        assert AP.jet(out.gens[1], std3, mu) == AP.jet(F2, std3, mu)

    def test_zero_deltas_identical(self):
        I = K.IdealPresentation(2, (K.variable(2, 0),))
        assert AP.perturb(I, 4, (K.zero(2),)) == I

    def test_low_order_delta_rejected(self):
        # a term of standard degree at most mu changes the jet: below mu,
        # exactly mu, and at the rational mu = 17/2 the CLI accepts, degree 8
        I = K.IdealPresentation(2, (K.variable(2, 0),))
        for mu, e in [(4, (2, 0)), (4, (4, 0)), (4, (1, 3)),
                      (F(17, 2), (8, 0)), (F(17, 2), (3, 5))]:
            with pytest.raises(PrecisionShortfall, match="the jet would change"):
                AP.perturb(I, mu, (K.monomial(2, e),))

    def test_refuses_a_wrong_count_or_dimension(self):
        I = K.IdealPresentation(2, (K.variable(2, 0),))
        with pytest.raises(PresentationError, match="one delta per generator"):
            AP.perturb(I, 4, ())
        with pytest.raises(PresentationError, match="dimension"):
            AP.perturb(I, 4, (K.zero(3),))

    def test_same_jet_membership(self):
        # degree mu + 1, and degree 9 at mu = 17/2, leave the jet as it is
        I = K.IdealPresentation(1, (K.variable(1, 0),))
        for mu, e in [(5, (6,)), (F(17, 2), (9,))]:
            out = AP.perturb(I, mu, [K.monomial(1, e)])
            assert out.gens[0].terms == {(1,): F(1), e: F(1)}
            assert AP.jet(out.gens[0], std1, mu) == I.gens[0]


class TestReductionIdentities:
    def test_monomial_ideal_both_scales(self):
        # d = 3 for (x^2, y^3); the identity holds for m = 1, 2 at the
        # unperturbed and the perturbed ideal alike
        base = K.IdealPresentation(2, (K.monomial(2, (2, 0)),
                                       K.monomial(2, (0, 3))))
        rng = random.Random(4)
        deltas = tuple(rand_poly(rng, 2, min_order=7, max_exp=5)
                       for _ in range(2))
        pert = AP.perturb(base, 6, deltas)
        for I in (base, pert):
            for m in (1, 2):
                res = OR.reduction_identity_check(I, 2, 3, m)
                assert res["equal"], (I, m, res)


class TestCiExperiment:
    def test_two_generator_complete_intersection(self):
        I = K.IdealPresentation(
            3, (K.series(3, {(2, 0, 0): 1, (0, 1, 1): -1}),
                K.monomial(3, (0, 3, 0))), ("x", "y", "z"))
        rng = random.Random(2)
        deltas = (K.monomial(3, (0, 0, 7)), K.monomial(3, (7, 0, 0), -2))
        rep = AP.ci_stability_experiment(I, 6, deltas, seed=0, trials=3)
        assert rep["ci_witnessed"]
        assert rep["k"] == 2
        assert rep["all_equal"], rep
        assert rep["regime_guaranteed"]
        assert rep["items"]["reduction"]["cor_membership_ok"]
        assert rep["items"]["hilbert_samuel"]["equal"]

    def test_no_guarantee_without_a_witnessed_complete_intersection(self):
        # (x^2, x*y) is not Cohen-Macaulay: its HS function and that of the
        # perturbation by (0, y^10) part at degree 19, beyond the window,
        # so the comparisons on it agree; with k = 1 for two generators
        # no complete intersection is witnessed, and mu >= mu0 = 2 alone
        # guarantees nothing
        I = K.IdealPresentation(2, (K.monomial(2, (2, 0)),
                                    K.monomial(2, (1, 1))), ("x", "y"))
        deltas = (K.zero(2), K.monomial(2, (0, 10)))
        rep = AP.ci_stability_experiment(I, 9, deltas)
        assert (rep["k"], rep["ci_witnessed"], rep["mu0"]) == (1, False, 2)
        assert rep["all_equal"]
        assert rep["regime_guaranteed"] is False

    def test_agreeing_pipelines_imply_equal_hs(self):
        # stability scenario: whenever the flatness verdicts and the
        # tail-quotient dimensions agree, the tables must agree too
        I = K.IdealPresentation(
            3, (K.series(3, {(2, 0, 0): 1, (0, 1, 1): -1}),
                K.monomial(3, (0, 3, 0))), ("x", "y", "z"))
        rng = random.Random(14)
        for _ in range(4):
            deltas = (rand_poly(rng, 3, min_order=7, max_exp=4),
                      rand_poly(rng, 3, min_order=7, max_exp=4))
            rep = AP.ci_stability_experiment(I, 6, deltas, seed=0, trials=2)
            agree = (rep["items"]["flatness"]["equal"]
                     and all(q["equal"]
                             for q in rep["items"]["tail_quotients"].values()))
            if agree:
                assert rep["items"]["hilbert_samuel"]["equal"]

    def test_zero_deltas_trivially_equal(self):
        I = K.IdealPresentation(2, (K.monomial(2, (2, 0)),
                                    K.monomial(2, (0, 3))))
        rep = AP.ci_stability_experiment(
            I, 6, (K.zero(2), K.zero(2)), seed=0, trials=2)
        assert rep["all_equal"]

    def test_finite_complement_regime(self):
        I = K.IdealPresentation(2, (K.monomial(2, (2, 0)),
                                    K.monomial(2, (0, 3))))
        deltas = (K.monomial(2, (7, 0)), K.monomial(2, (0, 7)))
        rep = AP.ci_stability_experiment(I, 6, deltas, seed=0, trials=2)
        assert rep["all_equal"]
        assert rep["mu0"] is not None and rep["mu0"] <= 6


class TestCmRunner:
    @pytest.mark.parametrize("mu,h_exp", [(8, 1), (12, 2)])
    def test_all_claims_pass(self, mu, h_exp):
        h = K.monomial(1, (h_exp,))
        rep = AP.cm_counterexample_runner(mu, h)
        assert rep["all_pass"], rep
        assert not rep["degenerate"]
        assert rep["claims"]["standard_basis"]["vertices"] == \
            ((0, 5, 0), (2, 3, 0), (8, 0, 0))
        assert rep["claims"]["base_flat"]["l0"] == 9

    @pytest.mark.parametrize("mu", [8, 12])
    def test_certified_h_needs_only_its_own_window(self, mu):
        # h = exp(z) - 1 certified to mu, as `example82 --h` parses it; the
        # runner's window is mu + 6, and every claim needs h only below it
        z = K.variable(1, 0)
        h = K.sub(K.exp_jet(z, std1, mu), K.one(1))
        assert h.prec == mu
        rep = AP.cm_counterexample_runner(mu, h)
        assert rep["all_pass"], rep
        assert rep["claims"]["s_series_identity"]["window"] == mu + 6

    def test_certified_h_too_short_for_the_window_is_refused(self):
        z = K.variable(1, 0)
        h = K.sub(K.exp_jet(z, std1, 8), K.one(1))
        with pytest.raises(PrecisionShortfall, match="too short"):
            AP.cm_counterexample_runner(8, h, verify_mu=20)

    def test_degenerate_h_zero(self):
        rep = AP.cm_counterexample_runner(8, None)
        assert rep["degenerate"]
        assert rep["all_pass"]
        assert rep["claims"]["perturbed_flatness"]["verdict"] == "FLAT"

    def test_mu_too_small_rejected(self):
        with pytest.raises(PresentationError):
            AP.cm_counterexample_runner(6, K.variable(1, 0))

    @pytest.mark.parametrize("verify_mu", [-5, 0, 7])
    def test_verify_mu_too_small_rejected(self, verify_mu):
        with pytest.raises(PresentationError, match="verify_mu >= 8"):
            AP.cm_counterexample_runner(8, K.variable(1, 0),
                                        verify_mu=verify_mu)

    def test_unit_h_rejected(self):
        with pytest.raises(PresentationError):
            AP.cm_counterexample_runner(8, K.one(1))


def test_base_staircase_threshold():
    # the complement of ((2,0),(0,3)) is the box {0,1} x {0,1,2}
    assert AP._base_staircase_threshold(((2, 0), (0, 3))) == 3
    assert AP._base_staircase_threshold(((0, 3), (1, 1), (2, 0))) == 2
    assert AP._base_staircase_threshold(((1, 1), (2, 0))) is None
    assert AP._base_staircase_threshold(()) is None
