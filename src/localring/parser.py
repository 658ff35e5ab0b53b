"""Expression language and ideal files.

Grammar for generator expressions:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ('^' INTEGER)?
    atom   := RATIONAL | NAME | NAME '(' expr ')' | '(' expr ')'

Rational literals are `a` or `a/b` with integer parts.  Builtins `exp(u)`
and `geom(u)` require u to have zero constant term; they expand to the
working precision and mark the result as a jet (non-EXACT).

Ideal files are line-based and diff-friendly:

    # comment
    vars: x y z
    prec: 12
    order: std            (or w:1,1,7 or split:k=2,l=7)
    gen: y^5 + y^2*z^4*exp(z)
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import ParseError
from .kernel import (
    IdealPresentation,
    PrecisionSeries,
    add,
    exp_jet,
    geom_jet,
    monomial,
    mul,
    power,
    sub,
    variable,
)
from .order import LinearForm, parse_form

_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*^/])")

_BUILTINS = {"exp": exp_jet, "geom": geom_jet}

#: deepest accepted nesting of parentheses (each level recurses in Python)
MAX_NESTING = 100

#: budget of a power f^k, checked before it is expanded: a bound on the
#: number of terms of f^k times the bits of its largest coefficient.  If f
#: has t terms whose coefficients take at most b bits (numerator and
#: denominator), f^k has at most C(k + t - 1, t - 1) terms, one per
#: multiset of k terms of f, and coefficients of at most k * (b + bits(t))
#: bits.
MAX_POWER_BITS = 100_000


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(src, pos)
        if not m:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if m.group(1):
            tokens.append(("num", m.group(1), pos))
        elif m.group(2):
            tokens.append(("name", m.group(2), pos))
        else:
            tokens.append(("op", m.group(3), pos))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, var_names: Sequence[str], form: LinearForm, mu):
        self.tokens = _tokenize(src)
        self.k = 0
        self.depth = 0
        self.vars = {name: idx for idx, name in enumerate(var_names)}
        self.n = len(var_names)
        self.form = form
        self.mu = Fraction(mu)

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.k]
        if kind and tok[0] != kind or value and tok[1] != value:
            raise ParseError(f"expected {value or kind}, found {tok[1]!r}", tok[2])
        self.k += 1
        return tok

    def parse(self) -> PrecisionSeries:
        result = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return result

    def expr(self) -> PrecisionSeries:
        acc = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take("op")[1]
            rhs = self.term()
            acc = add(acc, rhs) if op == "+" else sub(acc, rhs)
        return acc

    def term(self) -> PrecisionSeries:
        acc = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.take("op", "*")
            acc = mul(acc, self.factor())
        return acc

    def factor(self) -> PrecisionSeries:
        negate = False
        while self.peek()[:2] == ("op", "-"):
            self.take("op", "-")
            negate = not negate
        base = self.power()
        return -base if negate else base

    def number(self) -> int:
        tok = self.take("num")
        try:
            return int(tok[1])
        except ValueError:  # more digits than the interpreter converts
            raise ParseError("integer literal too long", tok[2])

    def power(self) -> PrecisionSeries:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            pos = self.take("op", "^")[2]
            k = self.number()
            t = max(len(base.terms), 1)
            b = max((c.numerator.bit_length() + c.denominator.bit_length()
                     for c in base.terms.values()), default=0)
            size = math.comb(k + t - 1, t - 1) * k * (b + t.bit_length())
            if size > MAX_POWER_BITS:
                raise ParseError(
                    f"a power of a {t}-term base beyond the expansion "
                    f"budget of {MAX_POWER_BITS} bits", pos)
            return power(base, k)
        return base

    def atom(self) -> PrecisionSeries:
        tok = self.peek()
        if tok[0] == "num":
            value = Fraction(self.number())
            if self.peek()[:2] == ("op", "/"):
                self.take("op", "/")
                pos = self.peek()[2]
                den = self.number()
                if not den:
                    raise ParseError("zero denominator in a rational literal",
                                     pos)
                value /= den
            return monomial(self.n, (0,) * self.n, value)
        if tok[0] == "name":
            self.take("name")
            if tok[1] in self.vars:
                return variable(self.n, self.vars[tok[1]])
            if tok[1] in _BUILTINS:
                arg = self.parenthesized()
                if arg.coefficient((0,) * self.n):
                    raise ParseError(
                        f"{tok[1]} needs an argument with zero constant term",
                        tok[2])
                return _BUILTINS[tok[1]](arg, self.form, self.mu)
            raise ParseError(f"unknown name {tok[1]!r}", tok[2])
        if tok[:2] == ("op", "("):
            return self.parenthesized()
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])

    def parenthesized(self) -> PrecisionSeries:
        pos = self.take("op", "(")[2]
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"parentheses nested deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        inner = self.expr()
        self.take("op", ")")
        self.depth -= 1
        return inner


def parse_expression(src: str, var_names: Sequence[str], form: LinearForm,
                     mu) -> PrecisionSeries:
    """Parse one generator expression in the given context."""
    return _Parser(src, var_names, form, mu).parse()


class IdealFile(NamedTuple):
    """Parsed form of the line-based ideal file format."""

    var_names: tuple
    mu: Fraction
    order_text: str
    gen_sources: tuple

    @property
    def n(self) -> int:
        return len(self.var_names)

    def form(self) -> LinearForm:
        return parse_form(self.order_text, self.n)

    def generators(self, form: LinearForm, mu) -> tuple:
        return tuple(parse_expression(src, self.var_names, form, mu)
                     for src in self.gen_sources)

    def presentation(self, form: LinearForm, mu) -> IdealPresentation:
        """The generators on (form, mu), with `generators` as the source
        that expands them to any other window."""
        return IdealPresentation(self.n, self.generators(form, mu),
                                 self.var_names, self.generators)


def load_ideal_file(text: str) -> IdealFile:
    var_names = None
    mu = None
    order_text = "std"
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"malformed line {raw!r}", lineno)
        key, value = (part.strip() for part in line.split(":", 1))
        if key == "vars":
            var_names = tuple(value.split())
            if len(set(var_names)) != len(var_names) or not var_names:
                raise ParseError("variables must be distinct and nonempty", lineno)
        elif key == "prec":
            try:
                mu = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"prec is not a rational number: {value!r}",
                                 lineno)
            if mu < 1:
                raise ParseError("prec must be at least 1", lineno)
        elif key == "order":
            order_text = value
        elif key == "gen":
            if var_names is None:
                raise ParseError("vars must be declared before generators", lineno)
            gens.append(value)
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if var_names is None:
        raise ParseError("missing vars declaration", 0)
    if mu is None:
        raise ParseError("missing prec declaration", 0)
    if not gens:
        raise ParseError("an ideal file needs at least one gen line", 0)
    return IdealFile(var_names, mu, order_text, tuple(gens))
