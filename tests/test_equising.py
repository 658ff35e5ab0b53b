import hashlib
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localring import equising as E
from localring import kernel as K
from localring import order as O
from localring.errors import (
    BudgetExceeded,
    DimensionMismatch,
    NotRegular,
    PrecisionShortfall,
    PresentationError,
)
import oracles as OR

std1 = O.std_form(1)
std2 = O.std_form(2)


class TestGeneralizedDiscriminant:
    def test_p2_j1_reduction(self):
        red = OR.generalized_discriminant(2, 1)
        assert red.expr == {(1, 0): F(4), (0, 2): F(-1)}  # 4 A0 - A1^2

    def test_p1_empty_product(self):
        assert OR.generalized_discriminant(1, 1).expr == {(0,): F(1)}

    def test_top_index_is_constant(self):
        for p in (2, 3, 4):
            red = OR.generalized_discriminant(p, p)
            assert red.expr == {(0,) * p: F(p)}

    def test_roundtrip_small_degrees(self):
        for p in range(1, 5):
            for j in range(1, p + 1):
                red = OR.generalized_discriminant(p, j)
                assert OR.symmetric_roundtrip_ok(red, OR.raw_discriminant(p, j))

    def test_degree_cap(self):
        with pytest.raises(BudgetExceeded):
            OR.generalized_discriminant(7, 1)

    def test_cubic_with_triple_root(self):
        # (X - a)^3 for random rational a: exactly one distinct root
        rng = random.Random(1)
        for _ in range(10):
            a = F(rng.randint(-5, 5), rng.randint(1, 4))
            coeffs = (-a ** 3, 3 * a ** 2, -3 * a)  # a0, a1, a2
            assert E.distinct_root_count_check(coeffs, 3) == 2


@st.composite
def sparse_series_vectors(draw):
    """(coeffs, n, mu): p <= 4 coefficients in 1 or 2 variables, each zero
    or not with even odds, truncated to a small window, so that Newton and
    the Berkowitz steps meet zero entries between nonzero ones."""
    n = draw(st.integers(1, 2))
    p = draw(st.integers(1, 4))
    mu = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    values = st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3)])
    L = O.std_form(n)
    coeffs = []
    for _ in range(p):
        terms = {}
        if draw(st.booleans()):
            terms = draw(st.dictionaries(exponents, values, min_size=1,
                                         max_size=3))
        coeffs.append(K.truncate(K.series(n, terms), L, mu))
    return coeffs, n, mu


def _monic_with_roots(roots):
    """(a_0, ..., a_{p-1}) of prod (X - r)^m over (r, m) pairs."""
    coeffs = [F(1)]
    for r, m in roots:
        for _ in range(m):
            coeffs = [F(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
    return tuple(coeffs[:-1])


class TestHankelDiscriminants:
    def test_equal_symbolic_reduction_on_rationals(self):
        rng = random.Random(7)
        for p in range(1, 6):
            for _ in range(15):
                vec = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(p)]
                hankel = OR.hankel_minors(vec, 0, 0)
                for j in range(1, p + 1):
                    expected = OR.evaluate_at_rationals(
                        OR.generalized_discriminant(p, j), vec)
                    assert hankel[j - 1].get((), 0) == expected, (p, j, vec)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equal_symbolic_reduction_on_series(self, n):
        from conftest import rand_poly
        rng = random.Random(100 + n)
        L = O.std_form(n)
        for _ in range(12):
            p = rng.randint(1, 5)
            mu = rng.randint(3, 7)
            coeffs = [K.truncate(rand_poly(rng, n, max_terms=4, max_exp=3,
                                           min_order=1), L, mu)
                      for _ in range(p)]
            hankel = OR.hankel_minors(coeffs, n, mu)
            for j in range(1, p + 1):
                expected = OR.evaluate_at_series(OR.generalized_discriminant(p, j),
                                               coeffs, L, mu)
                assert hankel[j - 1] == expected.terms, (p, j, mu)

    @settings(max_examples=80, deadline=None)
    @given(sparse_series_vectors())
    def test_sparse_series_equal_symbolic_reduction(self, case):
        # zero coefficients, zero t_k and zero power sums take the paths
        # that make no product; the minors must not notice
        coeffs, n, mu = case
        L = O.std_form(n)
        p = len(coeffs)
        hankel = OR.hankel_minors(coeffs, n, mu)
        for j in range(1, p + 1):
            expected = OR.evaluate_at_series(OR.generalized_discriminant(p, j),
                                           coeffs, L, mu)
            assert hankel[j - 1] == expected.terms, (p, j, mu)

    def test_shortfall_refused(self):
        coarse = K.truncate(K.series(1, {(1,): 1, (4,): 2}), std1, 3)
        with pytest.raises(PrecisionShortfall):
            OR.hankel_minors([coarse, coarse], 1, 5)

    def test_first_nonvanishing_is_gcd_defect_plus_one(self):
        rng = random.Random(11)
        for _ in range(80):
            p = rng.randint(1, 10)
            roots, left = [], p
            while left:
                m = rng.randint(1, left)
                r = F(rng.randint(-6, 6), rng.randint(1, 3))
                if any(r == prev for prev, _ in roots):
                    continue
                roots.append((r, m))
                left -= m
            vec = _monic_with_roots(roots)
            j, value, certs = E._first_nonvanishing(
                E._level(OR.monic_polynomial(vec, 0), 0), p, 0)
            assert j == E.squarefree_defect(vec, p) + 1 == p - len(roots) + 1
            assert value and certs == ("exact-zero",) * (j - 1)


class TestDistinctRootCount:
    def test_double_root(self):
        assert E.distinct_root_count_check((1, -2), 2) == 1  # (X-1)^2

    def test_two_distinct(self):
        assert E.distinct_root_count_check((-1, 0), 2) == 0  # X^2 - 1
        assert OR.evaluate_at_rationals(
            OR.generalized_discriminant(2, 1), (-1, 0)) == F(-4)

    def test_triple_root_at_zero(self):
        assert E.distinct_root_count_check((0, 0, 0), 3) == 2  # X^3

    def test_degree_zero_has_no_roots(self):
        # the monic polynomial 1: no discriminant to find, no root to count
        assert E.distinct_root_count_check((), 0) == 0
        assert E.squarefree_defect((), 0) == 0

    def test_against_gcd_oracle_seeded(self):
        rng = random.Random(42)
        for _ in range(60):
            p = rng.randint(1, 4)
            # pick distinct rational roots and multiplicities summing to p
            roots = []
            remaining = p
            while remaining:
                m = rng.randint(1, remaining)
                r = F(rng.randint(-6, 6), rng.randint(1, 3))
                if any(r == prev for prev, _ in roots):
                    continue
                roots.append((r, m))
                remaining -= m
            vec = _monic_with_roots(roots)
            expected = p - len(roots)
            assert E.distinct_root_count_check(vec, p) == expected
            assert E.squarefree_defect(vec, p) == expected


class TestWeierstrass:
    def test_already_prepared(self):
        P, u = E.weierstrass_prepare(K.monomial(1, (2,)), 0, 10)
        assert P.terms == {(2,): F(1)}
        assert u.terms == {(0,): F(1)}

    def test_unit_factor(self):
        P, u = E.weierstrass_prepare(K.series(1, {(2,): 1, (3,): 1}), 0, 10)
        assert P.terms == {(2,): F(1)}
        assert u.terms == {(0,): F(1), (1,): F(1)}

    def test_distinguished_passthrough(self):
        f = K.series(2, {(2, 0): 1, (1, 1): -1})
        P, u = E.weierstrass_prepare(f, 0, 10)
        assert P.terms == f.terms
        assert u.terms == {(0, 0): F(1)}

    def test_not_regular(self):
        with pytest.raises(NotRegular):
            E.weierstrass_prepare(K.monomial(2, (1, 1)), 0, 8)

    @pytest.mark.parametrize("i", [2, -1])
    def test_variable_index_out_of_range(self, i):
        # no variable x_2, and -1 must not wrap round to the last one
        f = K.series(2, {(0, 2): 1, (3, 0): 1})
        with pytest.raises(DimensionMismatch):
            E.weierstrass_prepare(f, i, 8)

    def test_identity_on_seeded_units(self):
        # f = unit * distinguished: recover the distinguished factor
        rng = random.Random(5)
        for _ in range(15):
            unit = K.series(2, {(0, 0): 1,
                                (1, 0): rng.randint(-2, 2),
                                (0, 1): rng.randint(-2, 2),
                                (1, 1): rng.randint(-2, 2)})
            dist = K.series(2, {(0, 2): 1, (2, 0): rng.choice([-1, 1, 2]),
                                (1, 1): rng.randint(-2, 2)})
            f = K.mul(unit, dist)
            P, u = E.weierstrass_prepare(f, 1, 10)
            assert K.agrees_up_to(K.mul(u, P), f, std2, 10)
            assert u.coefficient((0, 0)) == 1
            # distinguished shape: monic in y of degree 2, lower coefficients
            # vanish at the origin
            assert P.coefficient((0, 2)) == 1
            assert P.coefficient((0, 0)) == 0
            assert P.coefficient((0, 1)) == 0

    def test_mu_caps_regularity_order(self):
        with pytest.raises(NotRegular):
            E.weierstrass_prepare(K.monomial(1, (9,)), 0, 5)

    def test_output_is_a_function_of_the_jet(self):
        # the factors are the window data of the mu-jet: terms of f above
        # the window must not influence them
        f = K.mul(K.series(2, {(0, 0): 1, (1, 0): 2, (0, 1): -1}),
                  K.series(2, {(0, 2): 1, (1, 1): 1, (3, 0): -2}))
        bumped = K.add(f, K.monomial(2, (5, 6), 7))
        for g in (f, bumped):
            assert K.truncate(g, std2, 10) == K.truncate(f, std2, 10)
        P0, u0 = E.weierstrass_prepare(f, 1, 10)
        P1, u1 = E.weierstrass_prepare(bumped, 1, 10)
        assert P0 == P1 and u0 == u1


class TestCoefficientVector:
    def test_cusp(self):
        f = K.series(2, {(0, 2): 1, (3, 0): -1})
        a = OR.coefficient_vector(f, 1, 2)
        assert a[0].terms == {(3,): F(-1)}
        assert a[1].is_zero_up_to_prec or a[1].is_exact_zero

    def test_univariate(self):
        f = K.series(1, {(3,): 1, (1,): 2})
        assert OR.coefficient_vector(f, 0, 3) == (F(0), F(2), F(0))

    def test_non_monic_rejected(self):
        with pytest.raises(PresentationError):
            OR.coefficient_vector(K.series(2, {(0, 2): 2}), 1, 2)


class TestTower:
    def test_cusp(self):
        T = E.build_tower([K.series(2, {(0, 2): 1, (3, 0): -1})], 10, seed=0)
        top, bottom = T.levels
        assert (top.index, top.degree, top.disc_index) == (2, 2, 1)
        assert (bottom.index, bottom.degree, bottom.disc_index) == (1, 3, 3)
        assert bottom.poly.terms == {(3,): F(1)}
        report = E.validate_tower(T)
        assert report["all_pass"], report

    def test_crossing_pair(self):
        # y^2 - x^2 = (y-x)(y+x): the bottom level is x^2 with a double root
        T = E.build_tower([K.series(2, {(0, 2): 1, (2, 0): -1})], 10, seed=0)
        top, bottom = T.levels
        assert (top.degree, top.disc_index) == (2, 1)
        assert bottom.poly.terms == {(2,): F(1)}
        assert bottom.disc_index == 2
        assert E.validate_tower(T)["all_pass"]

    def test_single_smooth_sheet(self):
        T = E.build_tower([K.variable(3, 2)], 8, seed=0)
        top = T.levels[0]
        assert top.degree == 1 and top.disc_index == 1
        assert all(lvl.is_one for lvl in T.levels[1:])
        assert E.validate_tower(T)["all_pass"]

    def test_two_sheets_product(self):
        # the product of two smooth transverse sheets through the origin
        g1 = K.series(2, {(0, 1): 1, (1, 0): -1})   # y - x
        g2 = K.series(2, {(0, 1): 1, (1, 0): 1})    # y + x
        T = E.build_tower([g1, g2], 10, seed=0)
        top = T.levels[0]
        assert top.degree == 2
        assert E.validate_tower(T)["all_pass"]

    def test_three_lines_bottom_degree_six(self):
        # three distinct lines: the bottom collision polynomial is x^6, past
        # the symbolic reduction cap; the Hankel minors certify j = 6 and
        # give the surviving value D_6 = 6
        g1 = K.series(2, {(0, 1): 1, (1, 0): -1})   # y - x
        g2 = K.monomial(2, (1, 1))                   # xy
        T = E.build_tower([g1, g2], 8, seed=1)
        top, bottom = T.levels
        assert (top.degree, top.disc_index) == (3, 1)
        assert (bottom.degree, bottom.disc_index) == (6, 6)
        assert bottom.vanish_certificates == ("exact-zero",) * 5
        assert bottom.unit_constant == 6
        assert E.validate_tower(T)["all_pass"]

    def test_surface_pair_beyond_the_symbolic_cap(self):
        # x^2 + y^3 + z^3 and xyz: the top level has degree 5 in z and the
        # discriminant levels below it degree 6
        g1 = K.series(3, {(2, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        g2 = K.monomial(3, (1, 1, 1))
        T = E.build_tower([g1, g2], 8, seed=0)
        assert [lvl.degree for lvl in T.levels] == [5, 6, 6]
        assert E.validate_tower(T)["all_pass"]

    def test_vanish_certificates_recorded(self):
        T = E.build_tower([K.series(2, {(0, 2): 1, (3, 0): -1})], 10, seed=0)
        bottom = T.levels[-1]
        assert len(bottom.vanish_certificates) == bottom.disc_index - 1

    def test_unit_generator_rejected(self):
        with pytest.raises(PresentationError):
            E.build_tower([K.one(2)], 6)

    def test_negative_control_validation(self):
        # hand-tamper a valid tower so a coefficient stops vanishing at 0
        good = E.build_tower([K.series(2, {(0, 2): 1, (3, 0): -1})], 10)
        tampered_levels = list(good.levels)
        tampered_levels[-1] = E.TowerLevel(
            index=1, is_one=False,
            poly=K.series(1, {(3,): 1, (0,): 1}),  # constant term breaks (2)
            degree=3, disc_index=3, vanish_certificates=("exact-zero",) * 2,
            unit_below=None, unit_constant=F(3))
        tampered = E.Tower(good.n, good.mu, good.seed, tuple(tampered_levels),
                           good.coordinate_changes)
        report = E.validate_tower(tampered)
        assert not report["all_pass"]
        assert not report["levels"][1]["coefficients_vanish"]

    @pytest.mark.parametrize("extra", [
        {(1, 4): 1},  # x*y^4: a term above the degree 3
        {(0, 3): 1},  # 2*y^3: not monic
        {(0, 3): -1},  # no y^3: not monic
    ])
    def test_a_level_that_cannot_be_read_passes_no_check(self, extra):
        # y^3 + x^5 at mu 8; a level whose coefficients cannot be read
        # must not report that they vanish at the origin
        good = E.build_tower([K.series(2, {(0, 3): 1, (5, 0): 1})], 8)
        top, *rest = good.levels
        bad = top._replace(poly=K.add(top.poly, K.series(2, extra)))
        report = E.validate_tower(good._replace(levels=(bad, *rest)))
        assert E.validate_tower(good)["all_pass"]
        assert not report["all_pass"]
        assert report["levels"][2] == dict.fromkeys(
            ("distinguished_form", "coefficients_vanish",
             "discriminant_certificates", "unit_factorization"), False)

    @pytest.mark.parametrize("recertify", [
        # certified to 6, short of the tower's window 8
        lambda f: K.truncate(f, std2, 6),
        # certified under w:2,1, not under the standard form
        lambda f: K.reweight(f, O.LinearForm((F(2), F(1)))),
    ], ids=["short", "other-form"])
    def test_a_level_not_admitted_on_the_window_passes_no_check(self,
                                                                 recertify):
        # the read refuses the level (PrecisionShortfall, FormMismatch), and
        # validation reports it instead of raising
        good = E.build_tower([K.series(2, {(0, 3): 1, (5, 0): 1})], 8)
        top, *rest = good.levels
        bad = top._replace(poly=recertify(top.poly))
        report = E.validate_tower(good._replace(levels=(bad, *rest)))
        assert not report["all_pass"]
        assert report["levels"][2] == dict.fromkeys(
            ("distinguished_form", "coefficients_vanish",
             "discriminant_certificates", "unit_factorization"), False)

    def test_the_hankel_read_refuses_a_level_without_its_x_p_term(self):
        # the cusp y^3 - x^5 at mu 8 with y^3 removed from its top level
        top = E.build_tower([K.series(2, {(0, 3): 1, (5, 0): -1})], 8).levels[0]
        bad = K.add(top.poly, K.series(2, {(0, 3): -1}))
        with pytest.raises(PresentationError, match="polynomial is not monic"):
            E._hankel_discriminants(E._level(bad, 8), 3, 8)

    def test_needs_coordinate_change(self):
        # xy is not regular in y: a recorded change must fix it
        T = E.build_tower([K.monomial(2, (1, 1))], 8, seed=3)
        assert T.coordinate_changes
        assert E.validate_tower(T)["all_pass"]

    @pytest.mark.parametrize("gens", [
        [K.series(2, {(0, 2): 1, (3, 0): -1})],           # cusp.ideal
        [K.monomial(2, (2, 0)), K.monomial(2, (0, 3))],   # plane_monomial.ideal
    ])
    def test_a_generator_that_vanishes_on_the_window_is_refused(self, gens):
        # at mu = 1 the first generator's jet is zero: no coordinate change
        # makes it regular, so none is drawn
        with mock.patch.object(E, "_ensure_regular",
                               wraps=E._ensure_regular) as ensure:
            with pytest.raises(PrecisionShortfall,
                               match="generator 1 has no term on the window 1"):
                E.build_tower(gens, 1)
        assert not ensure.called
        assert E.validate_tower(E.build_tower(gens, 6))["all_pass"]

    def test_seeded_plane_curves_all_validate(self):
        from conftest import rand_poly
        from localring.errors import BudgetExceeded, NotRegular
        rng = random.Random(123)
        built = 0
        while built < 25:
            g = rand_poly(rng, 2, max_terms=4, max_exp=2, min_order=1)
            try:
                T = E.build_tower([g], 5, seed=rng.randrange(1000))
            except (NotRegular, BudgetExceeded):
                continue
            assert E.validate_tower(T)["all_pass"], dict(g.terms)
            built += 1

    def test_seeded_four_variable_towers_all_validate(self):
        # one or two generators x4^a + (1-3 terms, exponents 0..2): about
        # half the towers need a change below the top level, which must
        # re-express the levels above it together with their units
        rng = random.Random(5)
        built = changed_below = 0
        for _ in range(100):
            gens = []
            for _ in range(rng.randint(1, 2)):
                terms = {(0, 0, 0, rng.randint(1, 2)): 1}
                for _ in range(rng.randint(1, 3)):
                    e = tuple(rng.randint(0, 2) for _ in range(4))
                    if any(e):
                        terms[e] = terms.get(e, 0) + rng.choice([-2, -1, 1, 2])
                gens.append(K.series(4, terms))
            try:
                T = E.build_tower(gens, 6, seed=rng.randrange(1000))
            except (NotRegular, PrecisionShortfall, PresentationError):
                continue
            assert E.validate_tower(T)["all_pass"], [g.terms for g in gens]
            built += 1
            changed_below += any(k < 4 for k, _ in T.coordinate_changes)
        assert built >= 90 and changed_below >= 30

    def test_validation_rechecks_the_certificates(self):
        good = E.build_tower([K.series(2, {(0, 2): 1, (3, 0): -1})], 10)
        top, bottom = good.levels
        assert bottom.vanish_certificates == ("exact-zero",) * 2
        wrong = bottom._replace(vanish_certificates=("zero-up-to-mu",) * 2)
        report = E.validate_tower(good._replace(levels=(top, wrong)))
        assert not report["all_pass"]
        assert not report["levels"][1]["discriminant_certificates"]

    @pytest.mark.parametrize("gens, index", [
        # a level with a unit below it, and the univariate bottom level
        ([K.series(3, {(0, 0, 2): 1, (1, 1, 0): -1})], 3),
        ([K.series(3, {(0, 0, 2): 1, (1, 1, 0): -1})], 1),
        # a unit discriminant above the constant-one levels
        ([K.variable(3, 2)], 3),
    ])
    def test_validation_rechecks_the_unit_constant(self, gens, index):
        good = E.build_tower(gens, 10)
        levels = tuple(
            lvl._replace(unit_constant=lvl.unit_constant + 1)
            if lvl.index == index else lvl for lvl in good.levels)
        report = E.validate_tower(good._replace(levels=levels))
        assert E.validate_tower(good)["all_pass"]
        assert not report["all_pass"]
        assert not report["levels"][index]["unit_factorization"]

    def test_quadric_cone_three_levels(self):
        # z^2 - xy: the first discriminant -4xy needs a change in (x, y),
        # which must rewrite the already-built top level consistently
        g = K.series(3, {(0, 0, 2): 1, (1, 1, 0): -1})
        T = E.build_tower([g], 10, seed=0)
        assert [lvl.degree for lvl in T.levels] == [2, 2, 2]
        assert [lvl.disc_index for lvl in T.levels] == [1, 1, 2]
        assert T.coordinate_changes and T.coordinate_changes[0][0] == 2
        assert E.validate_tower(T)["all_pass"]


# sha256 of repr(sorted(expr.items())) for every reduction within the degree
# cap (p <= 5); a change in any coefficient or A-exponent changes its digest
ORACLE_DIGESTS = {
    (1, 1): "4557181fcc952289451be5afb831672898aa51c576b7b14d43a2edb4ea10cb95",
    (2, 1): "2ea8f4deaa5e9a0f3a4ff4e40ea123cb96b469059e2873a8cccd372529a63b32",
    (2, 2): "9b1ee6363fcf79e2b7ba7a813224c0856eb3cd569a29d8041f0edb12aed241d7",
    (3, 1): "18e1a90f33b84049fb6c3d2e07f056b4de20343ebcb502842dfd74fc94bba785",
    (3, 2): "a858df8569321f47d87612a02e3414e2f563193a7e310c3fc00c956e03741373",
    (3, 3): "ede43a03f9917022600eb414a51c8f3c52df3f791f02b46aa1d052f1782cb17b",
    (4, 1): "4c04608e03c4b9b5e53c9e27b8c7797f1a4059790eb9306b972a6495f756ec76",
    (4, 2): "40ebca5284da7d2f040c90b77b9e744eaa275b467d7a194153fb569af039b9c0",
    (4, 3): "05b6e70f594c5028317f01019a276b70759dab462f687bcd1d529aa89b7c289f",
    (4, 4): "725a0a86a02d97b6a8d4b8a7f0286069d3b9303e2e0278900bd9ff8305814246",
    (5, 1): "821eb461c457f7097d1fe891a6fd6302a5b8ff2c336339e393234ac9effdd781",
    (5, 2): "ab0fce8a7436f2f7fde85dd6777699a4188473f9af2eb28de71cdf865fb99d9c",
    (5, 3): "596a5f68379d44b87d83f0410b0cb2ae02dee6b00985a0fdd5d4f0da34e740aa",
    (5, 4): "a40fc23296f687bc482c50e7bc8381a7fd33d09ee96c437584ec4053189d6f22",
    (5, 5): "49acb46532d2def20029a635977305fa64825716f74b962517c8d99fef8d37e1",
}


def test_generalized_discriminants_are_pinned():
    for (p, j), digest in ORACLE_DIGESTS.items():
        expr = OR.generalized_discriminant(p, j).expr
        text = repr(sorted(expr.items())).encode()
        assert hashlib.sha256(text).hexdigest() == digest, (p, j)
