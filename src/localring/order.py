"""Total orders on N^n induced by positive linear forms.

An exponent b is weighed by L(b) = sum(w_j * b_j) with all w_j > 0, and two
exponents are compared through the lexicographic order of the tuples
(L(b), b_n, ..., b_1).  The tie-break reads coordinates from the last one
down to the first; this is a frozen compatibility contract (axis-vertex
diagnostics depend on it).

Internally L-values are integer levels.  A form keeps the lcm `den` of its
weight denominators and the integer weights w_j * den, so the level
den * L(b) is a sum of machine-size integer products.  Levels order
exponents exactly as L-values do (den > 0), and a window {L <= mu} is the
set {level <= floor(mu * den)}.  `lvalue` still returns the rational
L(b) = level / den; the hot loops compare levels and never build it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, partial, reduce
from operator import mul
from typing import TYPE_CHECKING, Iterator

from .errors import DimensionMismatch, FormMismatch, ZeroUpToPrecision

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import PrecisionSeries

Exponent = tuple[int, ...]


class LinearForm:
    """Positive rational weight vector defining the order on exponents.

    `den` (the lcm of the weight denominators), `int_weights` (the
    weights times `den`) and `unit` (whether every integer weight is 1, as
    for (1, 1) and (1/2, 1/2), so that a level is the plain sum of the
    exponent) are derived: equality, hash, repr and pickling depend on
    `weights` alone.  Forms are frozen.
    """

    __slots__ = ("weights", "den", "int_weights", "unit")

    def __init__(self, weights):
        # tuples from lists, and a fold rather than lcm(*...): a tuple built
        # from an iterator, or packed for a star argument, is allocated at
        # ten slots and shrunk, and lands in CPython's tuple free lists
        ws = tuple([Fraction(w) for w in weights])
        if not ws:
            raise DimensionMismatch("a linear form needs at least one weight")
        if any(w <= 0 for w in ws):
            raise FormMismatch(f"weights must be strictly positive: {ws}")
        den = reduce(math.lcm, [w.denominator for w in ws], 1)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "den", den)
        int_weights = tuple([w.numerator * (den // w.denominator) for w in ws])
        object.__setattr__(self, "int_weights", int_weights)
        object.__setattr__(self, "unit", all(w == 1 for w in int_weights))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen form")

    def __reduce__(self):
        return LinearForm, (self.weights,)

    def __eq__(self, other):
        if other.__class__ is not LinearForm:
            return NotImplemented
        return self.weights == other.weights

    def __hash__(self):
        return hash(self.weights)

    def __repr__(self):
        return f"LinearForm(weights={self.weights!r})"

    def level(self, beta: Exponent) -> int:
        """The integer den * L(beta); the caller checks the dimension."""
        if self.unit:
            return sum(beta)
        return sum(map(mul, self.int_weights, beta))

    def level_cap(self, bound) -> int:
        """The largest level inside the window {L <= bound}: the floor of
        bound * den, for an int or a `Fraction` bound."""
        n, d = bound.as_integer_ratio()
        return n * self.den // d

    @property
    def n(self) -> int:
        return len(self.weights)

    def restrict(self, k: int) -> "LinearForm":
        """The induced form on the first k coordinates, 1 <= k <= n; the
        shared `std_form(k)` when this form is standard."""
        if not 1 <= k <= len(self.weights):
            raise DimensionMismatch(
                f"cannot restrict a form on {self.n} variables to {k}")
        if is_standard(self):
            return std_form(k)
        return LinearForm(self.weights[:k])


@cache
def std_form(n: int) -> LinearForm:
    """All weights 1: L(b) = |b|, the total degree.  Forms are frozen, so
    one is shared per n."""
    return LinearForm((Fraction(1),) * n)


def weighted_split_form(n: int, k: int, l) -> LinearForm:
    """L(b) = b_1 + ... + b_k + l*(b_{k+1} + ... + b_n), with l >= 1."""
    if not 1 <= k < n:
        raise DimensionMismatch(f"split index k={k} out of range for n={n}")
    l = Fraction(l)
    if l < 1:
        raise FormMismatch(f"split weight must be >= 1: {l}")
    return LinearForm((Fraction(1),) * k + (l,) * (n - k))


def is_standard(L: LinearForm) -> bool:
    return L.unit and L.den == 1


def is_isotropic(L: LinearForm) -> bool:
    """All weights equal: L is a multiple of the total degree."""
    return len(set(L.weights)) == 1


def lvalue(L: LinearForm, beta: Exponent) -> Fraction:
    if len(beta) != L.n:
        raise DimensionMismatch(f"exponent {beta} vs form on {L.n} variables")
    return Fraction(L.level(beta), L.den)


def sort_key(L: LinearForm, beta: Exponent):
    """Key realizing the total order: (den * L(b), b_n, ..., b_1)."""
    return (L.level(beta),) + tuple(reversed(beta))


def std_key(beta: Exponent):
    """The key of the standard order, (|b|, b_n, ..., b_1).

    It equals `sort_key(std_form(n), b)` and also serves exponents in zero
    variables, for which there is no form.
    """
    return (sum(beta),) + tuple(reversed(beta))


def compare(L: LinearForm, a: Exponent, b: Exponent) -> int:
    """-1, 0 or +1 as a is below, equal to or above b in the order."""
    if len(a) != len(b):
        raise DimensionMismatch(f"cannot compare {a} and {b}")
    ka, kb = sort_key(L, a), sort_key(L, b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def initial_exponent(L: LinearForm, f: "PrecisionSeries") -> Exponent:
    """The L-minimal exponent of supp(f).

    Stable under refinement: any series with the same jet up to f's bound has
    the same initial exponent.  Raises ZeroUpToPrecision when f stores no
    terms (whether f is exactly zero or merely zero up to its bound).
    """
    if f.form_ctx is not None and f.form_ctx != L:
        raise FormMismatch(f"series certified under {f.form_ctx}, asked under {L}")
    if not f.terms:
        raise ZeroUpToPrecision("no certified initial exponent for a zero series")
    return min(f.terms, key=partial(sort_key, L))


def initial_term(L: LinearForm, f: "PrecisionSeries") -> tuple[Exponent, Fraction]:
    e = initial_exponent(L, f)
    return e, f.terms[e]


def iter_sublevel(L: LinearForm, eta, offset: int = 0) -> Iterator[Exponent]:
    """All exponents with L(b) <= eta, in lexicographic generation order;
    with an integer `offset`, those whose level plus `offset` is at most
    the level cap of eta, so that no rational bound is formed.

    Finite because every weight is positive.
    """
    cap = L.level_cap(eta) - offset
    n = L.n

    def rec(i: int, budget: int, prefix: tuple[int, ...]):
        if i == n:
            yield prefix
            return
        w = L.int_weights[i]
        for b in range(budget // w + 1):
            yield from rec(i + 1, budget - w * b, prefix + (b,))

    if cap < 0:
        return
    yield from rec(0, cap, ())


def parse_form(text: str, n: int) -> LinearForm:
    """Textual forms: `std`, `w:1,1,7`, or `split:k=2,l=7`.  Any other text,
    a malformed number or field included, raises FormMismatch."""
    text = text.strip()
    if text == "std":
        return std_form(n)
    try:
        if text.startswith("w:"):
            parts = [p for p in text[2:].split(",") if p]
            if len(parts) != n:
                raise FormMismatch(
                    f"form lists {len(parts)} weights for {n} variables")
            return LinearForm(tuple([Fraction(p) for p in parts]))
        if text.startswith("split:"):
            fields = dict(p.split("=", 1) for p in text[6:].split(",") if p)
            if not {"k", "l"} <= fields.keys():
                raise FormMismatch(f"split form needs k= and l=: {text!r}")
            return weighted_split_form(n, int(fields["k"]), Fraction(fields["l"]))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormMismatch(
            f"malformed number or field in order spec {text!r}") from exc
    raise FormMismatch(f"unrecognized order spec {text!r}")


def form_label(L: LinearForm) -> str:
    if is_standard(L):
        return "std"
    return "w:" + ",".join(str(w) for w in L.weights)
