"""Shared fixtures, and an audit of every series the package builds.

The audit wraps `PrecisionSeries.__init__` for the whole session.  A series
whose constructor is called from a frame in the package must store no term
above a finite bound (`kernel._window` keeps every term), only nonzero
`Fraction` coefficients, and exponents that are tuples of n nonnegative
ints.  Series built by test code are not checked, so a test may build a
bad series on purpose.  A violation is recorded, and `audited_series`
fails the test in which it happened, naming the package function that
built the series.
"""

import os
import random
import sys
from fractions import Fraction

import pytest

from localring import division as DIV
from localring import kernel as K
from localring import order as O
from localring import stdbasis as SB

PACKAGE = os.path.dirname(os.path.abspath(K.__file__)) + os.sep


def series_fault(f: K.PrecisionSeries):
    """What is wrong with a constructed series, or None."""
    for e, c in f.terms.items():
        if (type(e) is not tuple or len(e) != f.n
                or not all(type(k) is int and k >= 0 for k in e)):
            return f"exponent {e!r} in {f.n} variables"
        if type(c) is not Fraction or not c:
            return f"coefficient {c!r} at {e}"
    if f.prec is not K.EXACT and K._window(f.terms, f.form_ctx,
                                           f.prec) != f.terms:
        return f"a term above the bound {f.prec}"
    return None


@pytest.fixture(scope="session", autouse=True)
def audit_package_series():
    """The session's audit: yields the list of (package function, fault)
    of the bad series built so far."""
    violations = []
    init = K.PrecisionSeries.__init__

    def audited(self, *args, **kwargs):
        init(self, *args, **kwargs)
        code = sys._getframe(1).f_code
        if code.co_filename.startswith(PACKAGE):
            fault = series_fault(self)
            if fault is not None:
                module = os.path.basename(code.co_filename)[:-3]
                violations.append((f"{module}.{code.co_qualname}", fault))

    K.PrecisionSeries.__init__ = audited
    yield violations
    K.PrecisionSeries.__init__ = init


@pytest.fixture(autouse=True)
def audited_series(audit_package_series):
    violations = audit_package_series
    violations.clear()
    yield
    if violations:
        where, fault = violations[0]
        pytest.fail(f"{len(violations)} bad series built by the package; "
                    f"the first by {where}: {fault}", pytrace=False)


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
