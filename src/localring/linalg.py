"""Small exact matrix utilities: determinants and seeded unimodular sampling."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce

from .errors import BudgetExceeded

Matrix = tuple[tuple[int, ...], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def det(M) -> Fraction:
    """Determinant over Q by fraction-free (Bareiss) elimination.

    Each row is written as integers over the lcm of its denominators, and
    det M is the integer determinant over the product of those lcms.  In
    Bareiss's step every entry update (a_rj a_cc - a_rc a_cj) / p, p the
    previous pivot, divides exactly, so the entries stay integers of the
    size of minors of M; the last pivot is the determinant up to the sign
    of the row swaps.
    """
    n = len(M)
    rows = [[Fraction(x) for x in row] for row in M]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    den, ints = 1, []
    for row in rows:
        d = reduce(math.lcm, [x.denominator for x in row], 1)
        ints.append([x.numerator * (d // x.denominator) for x in row])
        den *= d
    sign, prev = 1, 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if ints[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            ints[c], ints[pivot] = ints[pivot], ints[c]
            sign = -sign
        top = ints[c]
        a = top[c]
        for r in range(c + 1, n):
            row = ints[r]
            b = row[c]
            for j in range(c + 1, n):
                row[j] = (row[j] * a - b * top[j]) // prev
        prev = a
    return Fraction(sign * prev, den)


_SPREAD = 3
_ATTEMPTS = 5000  # samples drawn before giving up


def seeded_unimodular(rng: random.Random, n: int) -> Matrix:
    """Random integer matrix with entries in {-3..3} and det +-1, drawn at
    most `_ATTEMPTS` times before `BudgetExceeded`."""
    for _ in range(_ATTEMPTS):
        M = tuple(tuple(rng.randint(-_SPREAD, _SPREAD) for _ in range(n)) for _ in range(n))
        if abs(det(M)) == 1:
            return M
    raise BudgetExceeded(f"no unimodular {n} x {n} matrix in {_ATTEMPTS} draws")
