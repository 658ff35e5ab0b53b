import random
from fractions import Fraction

import pytest

from localring import division as DIV
from localring import kernel as K
from localring import order as O
from localring import stdbasis as SB


def rand_poly(rng: random.Random, n: int, max_terms: int = 5, max_exp: int = 4,
              max_coef: int = 4, min_order: int = 0) -> K.PrecisionSeries:
    """Random nonzero exact polynomial with small integer coefficients."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = tuple(rng.randint(0, max_exp) for _ in range(n))
            if sum(e) < min_order:
                continue
            c = rng.choice([c for c in range(-max_coef, max_coef + 1) if c])
            terms[e] = terms.get(e, 0) + c
        f = K.series(n, terms)
        if f.terms:
            return f


def rand_form(rng: random.Random, n: int) -> O.LinearForm:
    choices = [Fraction(1), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)]
    return O.LinearForm(tuple(rng.choice(choices) for _ in range(n)))


def recheck_step(basis, step):
    """Re-check a completion step of `basis` as `CompletionStep` says, with
    public calls only, and return (s, division).

    The division of s_series(B[i], B[j]) by the first basis_size members
    must satisfy s = sum(quotients * members) + remainder up to mu, and its
    remainder made head-monic must be the adjoined member, or be zero.
    """
    L, mu = basis.form, basis.mu
    assert max(step.i, step.j) < step.basis_size
    assert step.adjoined_index in (None, step.basis_size)
    members = basis.gens[:step.basis_size]
    s = SB.s_series(basis.gens[step.i], basis.gens[step.j], L)
    division = DIV.hironaka_divide(s, members, L, mu)
    total = division.remainder
    for q, g in zip(division.quotients, members):
        total = K.add(total, K.mul(q, g))
    assert K.agrees_up_to(total, s, L, mu)
    rem = division.remainder
    if step.adjoined_index is None:
        assert division.remainder_is_zero
    else:
        assert basis.gens[step.adjoined_index] == K.scale(
            rem, 1 / O.initial_term(L, rem)[1])
    return s, division


@pytest.fixture
def rng():
    return random.Random(0)
