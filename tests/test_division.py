import random
from fractions import Fraction as F

import pytest

from localring import division as DIV
from localring import kernel as K
from localring import order as O
from localring.errors import (InvariantViolation, PrecisionShortfall,
                              ZeroUpToPrecision)
from conftest import rand_poly, rand_form

std1 = O.std_form(1)
std2 = O.std_form(2)
std3 = O.std_form(3)


class TestRegions:
    def test_translate_of_single_vertex(self):
        part = DIV.RegionPartition(((2, 0),))
        assert part.region_of((3, 1)) == 0

    def test_complement(self):
        part = DIV.RegionPartition(((2, 0), (0, 3)))
        assert part.region_of((1, 1)) is DIV.COMPLEMENT

    def test_first_region_wins(self):
        part = DIV.RegionPartition(((2, 0), (0, 3)))
        assert part.region_of((2, 3)) == 0

    def test_explicit_partition_of_small_box(self):
        # brute-force oracle: region by definition D_i = cone_i minus earlier
        alphas = ((2, 0), (0, 3), (1, 1))
        part = DIV.RegionPartition(alphas)
        for beta in O.iter_sublevel(std2, 7):
            expected = DIV.COMPLEMENT
            for i, a in enumerate(alphas):
                in_cone = all(b >= x for b, x in zip(beta, a))
                earlier = any(all(b >= x for b, x in zip(beta, alphas[j]))
                              for j in range(i))
                if in_cone and not earlier:
                    expected = i
                    break
            assert part.region_of(beta) == expected


class TestDivide:
    def test_exact_monomial_division(self):
        res = DIV.hironaka_divide(K.monomial(2, (2, 1)), [K.monomial(2, (2, 0))],
                                  std2, 10)
        assert res.quotients[0].terms == {(0, 1): F(1)}
        assert res.remainder.is_exact_zero

    def test_geometric_series(self):
        res = DIV.hironaka_divide(K.variable(1, 0),
                                  [K.series(1, {(1,): 1, (2,): -1})], std1, 5)
        assert res.quotients[0].terms == {(i,): F(1) for i in range(5)}
        assert res.remainder.is_zero_up_to_prec
        assert res.certified_prec == 5

    def test_example_s13_reduction(self):
        # S_13 = -x^8 z^4 E reduces to zero with quotient the jet of -z^4 E;
        # the quotient for the head x^8 is certified to mu - 8
        E = K.series(3, {(0, 0, 0): 1, (0, 0, 1): 1, (0, 0, 2): F(1, 2)},
                     prec=14, form=std3)
        F1 = K.monomial(3, (8, 0, 0))
        F2 = K.add(K.monomial(3, (0, 5, 0)), K.mul(K.monomial(3, (0, 2, 4)), E))
        F3 = K.add(K.monomial(3, (2, 3, 0)), K.mul(K.monomial(3, (2, 0, 4)), E))
        s13 = K.sub(K.mul_monomial(F1, (0, 3, 0)), K.mul_monomial(F3, (6, 0, 0)))
        res = DIV.hironaka_divide(s13, [F1, F2, F3], std3, 14)
        assert res.remainder.is_zero_up_to_prec
        assert res.quotients[1].is_zero_up_to_prec
        assert res.quotients[2].is_zero_up_to_prec
        q1 = res.quotients[0]
        assert q1.prec == 6
        assert q1.coefficient((0, 0, 4)) == -1
        assert q1.coefficient((0, 0, 5)) == -1
        assert q1.coefficient((0, 0, 6)) == F(-1, 2)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroUpToPrecision):
            DIV.hironaka_divide(K.variable(1, 0), [K.zero(1)], std1, 4)

    def test_precision_shortfall(self):
        f = K.series(1, {(1,): 1}, prec=3, form=std1)
        with pytest.raises(PrecisionShortfall):
            DIV.hironaka_divide(f, [K.variable(1, 0)], std1, 5)

    def test_divisor_order_is_significant(self):
        # same cones listed in both orders: quotients move between regions
        F_ = K.monomial(2, (2, 3))
        g1, g2 = K.monomial(2, (2, 0)), K.monomial(2, (0, 3))
        r12 = DIV.hironaka_divide(F_, [g1, g2], std2, 10)
        r21 = DIV.hironaka_divide(F_, [g2, g1], std2, 10)
        assert r12.quotients[0].terms and r12.quotients[1].is_zero_up_to_prec
        assert r21.quotients[0].terms and r21.quotients[1].is_zero_up_to_prec


def reconstruct(res, divisors):
    total = res.remainder
    for q, g in zip(res.quotients, divisors):
        total = K.add(total, K.mul(q, g))
    return total


def check_supports(res):
    part = res.partition
    for i, q in enumerate(res.quotients):
        alpha = part.alphas[i]
        for e in q.terms:
            assert part.region_of(tuple(a + b for a, b in zip(e, alpha))) == i
    for e in res.remainder.terms:
        assert part.region_of(e) is DIV.COMPLEMENT


def run_property_suite(count, seed, max_n=3, max_divisors=4, max_mu=10):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        L = O.std_form(n) if rng.random() < 0.6 else rand_form(rng, n)
        mu = rng.randint(3, max_mu)
        f = rand_poly(rng, n)
        divisors = [rand_poly(rng, n, min_order=0) for _ in
                    range(rng.randint(1, max_divisors))]
        res = DIV.hironaka_divide(f, divisors, L, mu)
        check_supports(res)
        assert K.agrees_up_to(reconstruct(res, divisors), f, L, mu)
        # permutation of term enumeration order yields identical output
        items = list(f.terms.items())
        rng.shuffle(items)
        f_shuffled = K.PrecisionSeries(n, dict(items))
        res2 = DIV.hironaka_divide(f_shuffled, divisors, L, mu)
        assert res2.quotients == res.quotients
        assert res2.remainder == res.remainder


def test_property_suite_small():
    run_property_suite(60, seed=20240601)


def test_uniqueness_against_term_order():
    # routing is forced: splitting f and dividing the parts separately
    # then summing agrees with dividing f directly (linearity of division)
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 2)
        L = O.std_form(n)
        f = rand_poly(rng, n)
        g = rand_poly(rng, n)
        divisors = [rand_poly(rng, n) for _ in range(2)]
        r_all = DIV.hironaka_divide(K.add(f, g), divisors, L, 8)
        r_f = DIV.hironaka_divide(f, divisors, L, 8)
        r_g = DIV.hironaka_divide(g, divisors, L, 8)
        for i in range(2):
            combined = K.add(r_f.quotients[i], r_g.quotients[i])
            window = F(6)
            for p in (r_all.quotients[i].prec, combined.prec):
                if p is not K.EXACT:
                    window = min(window, p)
            assert K.agrees_up_to(r_all.quotients[i], combined, L, window)
        assert K.agrees_up_to(r_all.remainder,
                              K.add(r_f.remainder, r_g.remainder), L, 8)


def planted_record(pk, alpha, head, tail=()):
    """An exact record claiming the head `alpha`, packed with `head`."""
    return DIV._Member(alpha, 1, DIV._pack(pk, head),
                       [(DIV._pack(pk, e), c) for e, c in tail], K.EXACT)


class TestPlantedRecords:
    """Hand-built member records that break an invariant the loop checks:
    a packed head that disagrees with its `alpha`, or a tail term below its
    head."""

    pk = DIV._packing(std2, 4, [K.monomial(2, (2, 2))])

    def test_adjoining_a_remainder_in_a_head_cone_raises(self):
        # the packed head y^2 does not divide xy, but the claimed head x does
        liar = planted_record(self.pk, (1, 0), (0, 2))
        rem, _, exact = DIV._divide({DIV._pack(self.pk, (1, 1)): 1}, 1,
                                    True, [liar], self.pk)
        assert rem
        with pytest.raises(InvariantViolation, match="outside the complement"):
            DIV._adjoined(rem, exact, [liar], self.pk, std2, F(4))

    def test_a_tail_term_below_the_head_breaks_progress(self):
        # x^2 - y: reducing x^2 yields y, which lies below x^2
        bad = planted_record(self.pk, (2, 0), (2, 0), [((0, 1), -1)])
        with pytest.raises(InvariantViolation, match="strict progress"):
            DIV._divide({DIV._pack(self.pk, (2, 0)): 1}, 1, True, [bad],
                        self.pk)

    def test_a_quotient_outside_its_region_raises(self, monkeypatch):
        # the first record claims the head x but divides by x^2, so x goes to
        # the second, whose region the first head's cone covers
        def planted(gens, L, mu, pk):
            return [planted_record(pk, (1, 0), (2, 0)),
                    planted_record(pk, (1, 0), (1, 0))]

        monkeypatch.setattr(DIV, "_members", planted)
        x = K.variable(2, 0)
        with pytest.raises(InvariantViolation, match="left its region"):
            DIV.hironaka_divide(x, [x, x], std2, 4)
