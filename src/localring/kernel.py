"""Exact sparse arithmetic for multivariate truncated power series over Q.

Every series carries a certification bound.  Either it is EXACT (an honest
polynomial, all terms stored), or it stores `prec`: a rational ceiling,
measured in the L-value of the attached linear form `form_ctx`, below which
all terms are guaranteed present and correct.  Nothing is ever claimed above
the bound.

Precision bookkeeping rule for products
---------------------------------------
If a is certified to mu_a and b to mu_b, and o_a, o_b are lower bounds for
the L-orders of the true series (L(inexp) when terms are stored, the bound
itself when the stored part is empty), then the unknown tail of a meets the
known part of b only above mu_a + o_b, and symmetrically.  The product is
therefore certified to

    min(mu_a + o_b, mu_b + o_a),

with EXACT treated as +infinity.  Sums are certified to min(mu_a, mu_b).
Both rules are exercised directly by the test suite.

Coefficients are exact rationals throughout; there is no floating point
anywhere.  A series with no stored terms and a finite bound is "zero up to
prec", which is distinct from the exact zero (EXACT with no terms); every
consumer of zero-tests states which notion it relies on.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from typing import Callable, Mapping, Optional

from . import linalg
from .errors import (
    DimensionMismatch,
    FormMismatch,
    PrecisionShortfall,
    PresentationError,
    SingularMatrix,
    ZeroUpToPrecision,
)
from .order import (
    Exponent,
    LinearForm,
    form_label,
    is_isotropic,
    std_form,
    std_key,
)

#: Sentinel precision of an honest polynomial.  Internally it is `None`;
#: use `f.prec is EXACT` to test for it.
EXACT = None

Prec = Optional[Fraction]

#: The one coefficient zero, the default of every lookup of a coefficient.
_ZERO = Fraction(0)


def _as_fraction(x) -> Fraction:
    """x as a `Fraction`: x itself when it is one, since the constructor
    takes a `Fraction` through the slow `numbers.Rational` path."""
    return x if x.__class__ is Fraction else Fraction(x)


def prec_min(a: Prec, b: Prec) -> Prec:
    if a is EXACT:
        return b
    if b is EXACT:
        return a
    return min(a, b)


def prec_at_least(p: Prec, mu) -> bool:
    return p is EXACT or p >= mu


def _window(terms: Mapping, L: LinearForm, bound) -> dict:
    """The terms with L <= bound, in their stored order."""
    e = next(iter(terms), None)  # all exponents of a series have one length
    if e is not None and len(e) != L.n:
        raise DimensionMismatch(f"exponent {e} vs form on {L.n} variables")
    cap = L.level_cap(bound)
    level = L.level
    return {e: c for e, c in terms.items() if level(e) <= cap}


class PrecisionSeries:
    """Sparse truncated power series with a certified precision bound.

    Treat instances as immutable values; all operations return new objects.
    """

    __slots__ = ("n", "terms", "prec", "form_ctx")

    def __init__(self, n: int, terms: dict, prec: Prec = EXACT,
                 form_ctx: Optional[LinearForm] = None):
        if prec is EXACT:
            form_ctx = None
        elif form_ctx is None:
            raise FormMismatch("a finite precision bound needs a linear form")
        self.n, self.terms = n, terms
        self.prec, self.form_ctx = prec, form_ctx

    def __eq__(self, other):
        if other.__class__ is not PrecisionSeries:
            return NotImplemented
        return ((self.n, self.terms, self.prec, self.form_ctx)
                == (other.n, other.terms, other.prec, other.form_ctx))

    # -- convenience ------------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.prec is EXACT and not self.terms

    @property
    def is_zero_up_to_prec(self) -> bool:
        """No stored terms (exactly zero, or zero below the bound)."""
        return not self.terms

    def coefficient(self, exp: Exponent) -> Fraction:
        return self.terms.get(tuple(exp), _ZERO)

    def sorted_terms(self):
        """The terms in the standard order."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=std_key)]

    def __neg__(self):
        return PrecisionSeries(self.n, {e: -c for e, c in self.terms.items()},
                               self.prec, self.form_ctx)

    def __repr__(self):
        head = ", ".join(
            f"{e}:{c}" for e, c in self.sorted_terms()[:4]
        )
        more = "" if len(self.terms) <= 4 else f", ... ({len(self.terms)} terms)"
        bound = "EXACT" if self.prec is EXACT else str(self.prec)
        return f"PrecisionSeries(n={self.n}, {{{head}{more}}}, prec={bound})"


def series(n: int, terms: Mapping, prec: Prec = EXACT,
           form: Optional[LinearForm] = None) -> PrecisionSeries:
    """Sanitizing constructor: coerces exponents to tuples of ints and
    coefficients to `Fraction`s, adds the coefficients of exponents that
    coerce to one tuple, and drops zeros.  An exponent component that is
    not an integral number (1.5, or -0.5, which `int` would round to 0)
    is refused."""
    clean: dict = {}
    for exp, coeff in terms.items():
        e = (*map(int, exp),)
        if e != tuple(exp):
            raise PresentationError(f"non-integral exponent {tuple(exp)}")
        if len(e) != n:
            raise DimensionMismatch(f"exponent {e} in ambient dimension {n}")
        if any(b < 0 for b in e):
            raise PresentationError(f"negative exponent {e}")
        c = _as_fraction(coeff)
        if not c:
            continue
        if e in clean:  # one addition per repeated exponent
            c += clean[e]
            if not c:
                del clean[e]
                continue
        clean[e] = c
    if prec is not EXACT:
        prec = _as_fraction(prec)
        if form is None:
            raise FormMismatch("a finite precision bound needs a linear form")
        inside = _window(clean, form, prec)
        if len(inside) < len(clean):
            e = next(e for e in clean if e not in inside)
            raise PrecisionShortfall(f"term {e} lies beyond the bound {prec}")
    return PrecisionSeries(n, clean, prec, form)


def zero(n: int) -> PrecisionSeries:
    return PrecisionSeries(n, {})


def one(n: int) -> PrecisionSeries:
    return monomial(n, (0,) * n)


def monomial(n: int, exp: Exponent, coeff=1) -> PrecisionSeries:
    return series(n, {tuple(exp): coeff})


def variable(n: int, i: int) -> PrecisionSeries:
    exp = [0] * n
    exp[i] = 1
    return monomial(n, exp)


def _numerators(f: PrecisionSeries) -> tuple:
    """(numerators, den): the coefficients of f as integers over the lcm
    den of their denominators, so that f.terms[e] = numerators[e] / den.

    Every integer record and fraction-free product starts here.
    """
    # a fold, not lcm(*...): a star argument builds a tuple per call, and
    # those tuples land in CPython's tuple free lists
    den = reduce(math.lcm, [c.denominator for c in f.terms.values()], 1)
    return {e: c.numerator * (den // c.denominator)
            for e, c in f.terms.items()}, den


def _join_forms(a: PrecisionSeries, b: PrecisionSeries) -> Optional[LinearForm]:
    if a.n != b.n:
        raise DimensionMismatch(f"ambient dimensions {a.n} and {b.n}")
    if a.form_ctx is None:
        return b.form_ctx
    if b.form_ctx is None or a.form_ctx == b.form_ctx:
        return a.form_ctx
    raise FormMismatch(f"forms {a.form_ctx} and {b.form_ctx} differ")


def add(a: PrecisionSeries, b: PrecisionSeries) -> PrecisionSeries:
    """Coefficientwise sum, certified to min of the input bounds."""
    form = _join_forms(a, b)
    prec = prec_min(a.prec, b.prec)
    out = dict(a.terms)
    for e, c in b.terms.items():
        s = out.get(e, _ZERO) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    if prec is not EXACT:
        out = _window(out, form, prec)
    return PrecisionSeries(a.n, out, prec, form)


def sub(a: PrecisionSeries, b: PrecisionSeries) -> PrecisionSeries:
    return add(a, -b)


def scale(f: PrecisionSeries, c) -> PrecisionSeries:
    """c * f: `mul` by the constant c."""
    return mul(f, monomial(f.n, (0,) * f.n, c))


def _product_bound(prec: Fraction, form: LinearForm,
                   g: PrecisionSeries) -> Fraction:
    """prec + ord(g), the bound a factor certified to prec gives its
    product with g, where ord(g) is the least L-value of g's terms, or g's
    own bound when it stores none; built as one `Fraction` from g's integer
    minimum level m: prec + m / den = (prec * den + m) / den."""
    if not g.terms:
        return prec + g.prec
    m = min(map(form.level, g.terms))
    return Fraction(prec.numerator * form.den + m * prec.denominator,
                    prec.denominator * form.den)


def _shift(f: PrecisionSeries, alpha: Exponent, c: Fraction, prec: Prec,
           form: Optional[LinearForm]) -> PrecisionSeries:
    """f times the exact term c x^alpha, certified to prec under form: the
    product of `mul` when a factor has one term.  Each term e: v of f moves
    to e + alpha with coefficient c * v, or v itself when c = 1, and a
    certified product keeps the term only when level(e) + level(alpha) is
    within the level cap of prec, the window test of `mul`."""
    terms = f.terms
    if prec is not EXACT:
        room, level = form.level_cap(prec) - form.level(alpha), form.level
        terms = {e: v for e, v in terms.items() if level(e) <= room}
    plus = operator.add
    if c == 1:
        out = {(*map(plus, e, alpha),): v for e, v in terms.items()}
    else:
        out = {(*map(plus, e, alpha),): c * v for e, v in terms.items()}
    return PrecisionSeries(f.n, out, prec, form)


def _int_product(a: dict, b: dict, form: Optional[LinearForm], cap) -> dict:
    """The product of the integer polynomials a and b {exponent: int},
    with its zero terms dropped: the one fraction-free product loop.

    With cap None every pair of terms is multiplied; otherwise a pair is
    when level(e1) + level(e2) <= cap under form, so no term above the
    window {level <= cap} is formed.  b's levels are read once.
    """
    if cap is not None:
        level = form.level
        b_levels = {e2: level(e2) for e2 in b}
    plus = operator.add
    out: dict = {}
    get = out.get
    for e1, n1 in a.items():
        room = None if cap is None else cap - level(e1)
        for e2, n2 in b.items():
            if room is not None and b_levels[e2] > room:
                continue
            e = (*map(plus, e1, e2),)
            out[e] = get(e, 0) + n1 * n2
    return {e: c for e, c in out.items() if c}


def mul(a: PrecisionSeries, b: PrecisionSeries) -> PrecisionSeries:
    """Convolution product under the documented precision rule.

    When a factor has one term c x^alpha, the product is the other factor
    shifted by alpha (`_shift`): the same bound and window test, with no
    integer numerators, and no new `Fraction` when c = 1.  Otherwise it is
    fraction-free: with da and db the lcms of the denominators of a and b,
    `_int_product` multiplies the integer numerators c * da and c * db on
    the window of the bound, and each term it returns is built once as a
    `Fraction` over da * db.
    """
    form = _join_forms(a, b)
    if a.is_exact_zero or b.is_exact_zero:
        return zero(a.n)
    if a.prec is EXACT and b.prec is EXACT:
        prec = EXACT
    else:
        bounds = []
        if a.prec is not EXACT:
            bounds.append(_product_bound(a.prec, form, b))
        if b.prec is not EXACT:
            bounds.append(_product_bound(b.prec, form, a))
        prec = min(bounds)
    if len(b.terms) == 1 or len(a.terms) == 1:
        f, g = (a, b) if len(b.terms) == 1 else (b, a)
        [(alpha, c)] = g.terms.items()
        return _shift(f, alpha, c, prec, form)
    cap = None if prec is EXACT else form.level_cap(prec)
    a_ints, da = _numerators(a)
    b_ints, db = _numerators(b)
    den = da * db
    out = {e: Fraction(c, den)
           for e, c in _int_product(a_ints, b_ints, form, cap).items()}
    return PrecisionSeries(a.n, out, prec, form)


def mul_monomial(f: PrecisionSeries, exp: Exponent, coeff=1) -> PrecisionSeries:
    """f times the exact term coeff x^exp: `mul` by `monomial`(f.n, exp,
    coeff).  The term is checked as `series` checks one, so a negative or
    non-integral exponent is refused, and the product is certified by
    `mul`'s rule, to f's bound plus the term's L-value."""
    return mul(f, monomial(f.n, exp, coeff))


def power(f: PrecisionSeries, k: int) -> PrecisionSeries:
    if k < 0:
        raise PresentationError("negative powers are not supported")
    result = one(f.n)
    base = f
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def _admit(f: PrecisionSeries, L: LinearForm, mu) -> None:
    """The admission rule: f may enter a computation on the window
    {L <= mu} only if it is EXACT or certified under L to at least mu.

    Every operation that takes a certified operand on a window checks it
    here and nowhere else.
    """
    if f.prec is EXACT:
        return
    if f.form_ctx != L:
        raise FormMismatch(f"series certified under {f.form_ctx}, asked under {L}")
    if f.prec < mu:
        raise PrecisionShortfall(f"series certified to {f.prec}, asked {mu}")


def truncate(f: PrecisionSeries, L: LinearForm, mu) -> PrecisionSeries:
    """Re-certify f under (L, mu), dropping terms beyond the window.

    Sound whenever f is admitted on the window (`_admit`).
    """
    mu = _as_fraction(mu)
    _admit(f, L, mu)
    return PrecisionSeries(f.n, _window(f.terms, L, mu), mu, L)


def reweight(f: PrecisionSeries, new_form: LinearForm) -> PrecisionSeries:
    """Re-certify a series under another positive form.

    If f is certified to mu under L, every unknown term has L > mu, hence
    L'(term) > c*mu for c = min_j L'_j/L_j; the result is certified to c*mu
    under L'.  EXACT series pass through unchanged.
    """
    if f.prec is EXACT:
        return f
    if new_form.n != f.n:
        raise DimensionMismatch("form dimension differs from series dimension")
    c = min(nw / ow for nw, ow in zip(new_form.weights, f.form_ctx.weights))
    new_prec = c * f.prec
    return PrecisionSeries(f.n, _window(f.terms, new_form, new_prec), new_prec,
                           new_form)


def certified_under(f: PrecisionSeries, L: LinearForm, window) -> PrecisionSeries:
    """f certified under (L, window), or PrecisionShortfall.

    An EXACT series passes as it is; a certified one is reweighted to L
    (`reweight`) and refused when the reweighted bound falls short of the
    window.  The one rule for moving a given series to another window.
    """
    h = reweight(f, L)
    if not prec_at_least(h.prec, window):
        raise PrecisionShortfall(
            f"series certified to {h.prec} under {form_label(L)} is too short "
            f"for the window {window}")
    return h


def embed(f: PrecisionSeries, n_new: int, var_map: tuple[int, ...],
          new_form: Optional[LinearForm] = None) -> PrecisionSeries:
    """Reinterpret f in a larger ambient space, variable i -> var_map[i].

    For certified series the target form must assign the mapped variables
    the same weights, so the bound carries over verbatim.
    """
    if len(var_map) != f.n or len(set(var_map)) != f.n:
        raise DimensionMismatch(f"variable map {var_map} for dimension {f.n}")
    if any(not 0 <= j < n_new for j in var_map):
        raise DimensionMismatch(f"variable map {var_map} outside dimension {n_new}")
    if f.prec is not EXACT:
        if new_form is None or new_form.n != n_new:
            raise FormMismatch("embedding a certified series needs the target form")
        for i, j in enumerate(var_map):
            if new_form.weights[j] != f.form_ctx.weights[i]:
                raise FormMismatch("target form changes the weight of a mapped variable")
    out = {}
    for e, c in f.terms.items():
        new_e = [0] * n_new
        for i, j in enumerate(var_map):
            new_e[j] = e[i]
        out[tuple(new_e)] = c
    return PrecisionSeries(n_new, out, f.prec, new_form)


def _builtin_jet(u: PrecisionSeries, L: LinearForm, mu, coeff_of_k) -> PrecisionSeries:
    """sum coeff_of_k(k) u^k on the window {L <= mu}: the one windowed
    power-series loop, for u with zero constant term."""
    mu = Fraction(mu)
    if u.coefficient((0,) * u.n):
        raise ZeroUpToPrecision("builtin argument must have zero constant term")
    ut = truncate(u, L, mu)
    acc = term = one(u.n)
    k = 0
    # u has no constant term, so each power raises the order and the last
    # one leaves the window; the first sum already certifies acc to mu
    while term.terms:
        k += 1
        term = truncate(mul(term, ut), L, mu)
        acc = add(acc, scale(term, coeff_of_k(k)))
    return acc


def exp_jet(u: PrecisionSeries, L: LinearForm, mu) -> PrecisionSeries:
    """Jet of exp(u) = sum u^k / k!, for u with zero constant term."""
    return _builtin_jet(u, L, mu, lambda k: Fraction(1, math.factorial(k)))


def geom_jet(u: PrecisionSeries, L: LinearForm, mu) -> PrecisionSeries:
    """Jet of 1/(1-u) = sum u^k, for u with zero constant term."""
    return _builtin_jet(u, L, mu, lambda k: Fraction(1))


def substitute_linear(f: PrecisionSeries, M) -> PrecisionSeries:
    """Compose f with the linear change x -> Mx, i.e. x_i -> sum_j M[i][j] x_j.

    Exact on polynomials.  A certified series keeps its bound, which is only
    sound when the form weighs every variable equally (a linear change
    preserves total degree but nothing finer); anisotropic forms are refused.

    Fraction-free: f's numerators over their one denominator (`_numerators`)
    are composed with the rows of M and their cached powers by
    `_int_product`, and each result term is built once as a `Fraction` over
    that denominator.  An integer M keeps every product on integers; a
    rational M is composed the same way on its entries.
    """
    n = f.n
    if len(M) != n or any(len(row) != n for row in M):
        raise DimensionMismatch(f"expected a {n}x{n} matrix")
    if linalg.det(M) == 0:
        raise SingularMatrix("coordinate change is singular")
    if f.prec is not EXACT and not is_isotropic(f.form_ctx):
        raise FormMismatch(
            "linear substitution keeps precision only for equal-weight forms")
    units = [(0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n)]
    rows = [{units[j]: M[i][j] for j in range(n) if M[i][j]} for i in range(n)]
    powers = [[{(0,) * n: 1}] for _ in range(n)]  # powers[i][k] = rows[i]^k
    ints, den = _numerators(f)
    total: dict = {}
    for e, c in ints.items():
        prod = {(0,) * n: c}
        for i, b in enumerate(e):
            if b:
                known = powers[i]
                while len(known) <= b:  # each power from the one below it
                    known.append(_int_product(known[-1], rows[i], None, None))
                prod = _int_product(prod, known[b], None, None)
        for pe, pc in prod.items():
            s = total.get(pe, 0) + pc
            if s:
                total[pe] = s
            else:
                del total[pe]
    return PrecisionSeries(n, {e: Fraction(c, den) for e, c in total.items()},
                           f.prec, f.form_ctx)


def evaluate_tail_zero(f: PrecisionSeries, k: int) -> PrecisionSeries:
    """Set the last n-k variables to zero and reinterpret in k variables.

    Keeps exactly the terms whose tail coordinates vanish; the precision
    bound carries over (the restricted form weighs survivors identically).
    """
    if not 1 <= k < f.n:
        raise DimensionMismatch(f"split index {k} out of range for n={f.n}")
    out = {e[:k]: c for e, c in f.terms.items() if not any(e[k:])}
    form = f.form_ctx.restrict(k) if f.form_ctx is not None else None
    return PrecisionSeries(k, out, f.prec, form)


def agrees_up_to(a: PrecisionSeries, b: PrecisionSeries, L: LinearForm, mu) -> bool:
    """Do a and b have identical terms on the window {L <= mu}?"""
    mu = _as_fraction(mu)
    _admit(a, L, mu)
    _admit(b, L, mu)
    return _window(a.terms, L, mu) == _window(b.terms, L, mu)


class IdealPresentation:
    """A finite generating list, with display names for the variables.

    `source`, when given, is a function (form, window) -> generators that
    expands the same generators on any window, as a parsed ideal file or
    a series family can; `at` is the one place it is read.  It takes no
    part in `==` or `repr`.
    """

    __slots__ = ("n", "gens", "var_names", "source")

    def __init__(self, n: int, gens, var_names=(),
                 source: Optional[Callable[[LinearForm, Fraction], tuple]] = None):
        gens = tuple(gens)
        if not gens:
            raise PresentationError("an ideal presentation needs a generator")
        for g in gens:
            if g.n != n:
                raise DimensionMismatch("generator dimension differs from ambient")
            if g.is_zero_up_to_prec:
                raise PresentationError(
                    "generators must be nonzero (up to their certified bound)")
        names = tuple(var_names) or tuple([f"x{i+1}" for i in range(n)])
        if len(names) != n:
            raise PresentationError("variable name count differs from ambient")
        self.n, self.gens, self.var_names, self.source = n, gens, names, source

    def __eq__(self, other):
        if other.__class__ is not IdealPresentation:
            return NotImplemented
        return ((self.n, self.gens, self.var_names)
                == (other.n, other.gens, other.var_names))

    def __repr__(self):
        return (f"IdealPresentation(n={self.n!r}, gens={self.gens!r}, "
                f"var_names={self.var_names!r})")

    def at(self, form: LinearForm, window) -> tuple:
        """The generators certified under (form, window) (`expanded`)."""
        return expanded(self.gens, self.source, form, window)

    def substitute(self, M) -> "IdealPresentation":
        """The presentation in the coordinates x -> Mx: each generator by
        `substitute_linear`.  Its source expands this presentation on the
        standard window window / min(w) and substitutes: a linear change
        keeps total degree and L(e) >= min(w) |e|, so every term left
        unknown there lies above {L <= window}."""
        def source(form: LinearForm, window) -> tuple:
            wide = self.at(std_form(self.n), window / min(form.weights))
            return tuple([certified_under(substitute_linear(g, M), form, window)
                          for g in wide])

        return IdealPresentation(
            self.n, tuple([substitute_linear(g, M) for g in self.gens]),
            self.var_names, source)


def expanded(gens, source, form: LinearForm, window) -> tuple:
    """The series `gens` certified under (form, window): the source's
    expansion when there is a source, or else each series by
    `certified_under`, which refuses a certified series the form cannot
    carry to the window."""
    window = Fraction(window)
    if source is not None:
        return tuple(source(form, window))
    return tuple([certified_under(g, form, window) for g in gens])
