"""Small exact matrix utilities: determinants and seeded unimodular sampling."""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import BudgetExceeded

Matrix = tuple[tuple[int, ...], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def det(M) -> Fraction:
    """Determinant over Q by fraction-free-ish Gaussian elimination."""
    n = len(M)
    rows = [[Fraction(x) for x in row] for row in M]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    sign = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        for r in range(c + 1, n):
            if rows[r][c]:
                factor = rows[r][c] / rows[c][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    result = Fraction(sign)
    for i in range(n):
        result *= rows[i][i]
    return result


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
