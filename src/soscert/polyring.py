"""Sparse multivariate polynomials over the exact rationals.

Every coefficient is a `fractions.Fraction`.  Float and complex points meet
a polynomial only in `evaluate`, which then computes in floats.  Monomials
are compared in graded reverse lexicographic order throughout, so leading
terms are degree-compatible.
"""

from __future__ import annotations

import math
import operator
import re
import string
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from .errors import DimensionMismatch, ParseError


@total_ordering
class Monomial:
    """A power product x^alpha, stored as a tuple of nonnegative exponents."""

    __slots__ = ("exponents",)

    def __init__(self, exponents):
        self.exponents = tuple(exponents)

    @classmethod
    def unit(cls, nvars):
        return cls((0,) * nvars)

    @classmethod
    def variable(cls, i, nvars):
        return cls(tuple(1 if j == i else 0 for j in range(nvars)))

    @property
    def degree(self):
        return sum(self.exponents)

    def __mul__(self, other):
        return Monomial(tuple(map(operator.add, self.exponents, other.exponents)))

    def divides(self, other):
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __truediv__(self, other):
        return Monomial(tuple(map(operator.sub, self.exponents, other.exponents)))

    def lcm(self, other):
        return Monomial(tuple(map(max, self.exponents, other.exponents)))

    def grevlex_key(self):
        # graded reverse lexicographic with x1 < x2 < ... < xn
        return (self.degree, tuple(-e for e in self.exponents))

    def __lt__(self, other):
        return self.grevlex_key() < other.grevlex_key()

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return f"Monomial{self.exponents}"


class Polynomial:
    """Finite map Monomial -> Fraction; zero coefficients are never stored.

    Integer coefficients are converted to Fraction.  Values are immutable
    after construction.
    """

    __slots__ = ("terms", "nvars")

    def __init__(self, terms, nvars):
        self.nvars = nvars
        self.terms = {m: c if type(c) is Fraction else Fraction(c)
                      for m, c in terms.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls({}, nvars)

    @classmethod
    def constant(cls, c, nvars):
        return cls({Monomial.unit(nvars): c}, nvars)

    @classmethod
    def variable(cls, i, nvars):
        return cls({Monomial.variable(i, nvars): Fraction(1)}, nvars)

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.degree for m in self.terms)

    def leading_monomial(self):
        return max(self.terms, key=Monomial.grevlex_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def sorted_terms(self, reverse=True):
        return sorted(self.terms.items(), key=lambda t: t[0].grevlex_key(), reverse=reverse)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.nvars)
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        return Polynomial(acc, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()}, self.nvars)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return Polynomial.constant(other, self.nvars) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if other == 0:
                return Polynomial.zero(self.nvars)
            return Polynomial({m: c * other for m, c in self.terms.items()}, self.nvars)
        self._check(other)
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                acc[m] = acc.get(m, 0) + c1 * c2
        return Polynomial(acc, self.nvars)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / scalar)

    def __pow__(self, k):
        result = Polynomial.constant(Fraction(1), self.nvars)
        base = self
        k = int(k)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return (self - Polynomial.constant(other, self.nvars)).is_zero()
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)})"


def evaluate(p, point):
    """Evaluate p at a point: exactly at a rational point, in floats at a
    float or complex one, where each coefficient is taken as float(c) once,
    as Fraction * x would, bit for bit; a constant gives a float there."""
    if len(point) != p.nvars:
        raise DimensionMismatch(f"point has {len(point)} coordinates, polynomial has {p.nvars} variables")
    inexact = any(isinstance(x, (float, complex)) for x in point)
    total = 0.0 if inexact else 0
    for m, c in p.terms.items():
        v = float(c) if inexact else c
        for x, e in zip(point, m.exponents):
            if e:
                v = v * x ** e
        total = total + v
    return total


@dataclass(frozen=True)
class HeightInfo:
    """Bit lengths of a primitive representation p = phat / nu."""

    numerator_height: int
    denominator_height: int


def common_denominator(values):
    """Least common multiple of the denominators of rational values."""
    return math.lcm(*(v.denominator for v in values))


def integral(p):
    """p as integer coefficients keyed by exponent tuples, over the lcm of
    its denominators."""
    den = common_denominator(p.terms.values())
    return {m.exponents: c.numerator * (den // c.denominator)
            for m, c in p.terms.items()}, den


def height(p):
    """Height of a polynomial: bit length of the largest numerator and of
    the common (lcm) denominator of a primitive representation."""
    if p.is_zero():
        return HeightInfo(0, 0)
    nu = common_denominator(p.terms.values())
    top = max(abs(c.numerator * (nu // c.denominator)) for c in p.terms.values())
    return HeightInfo(top.bit_length(), nu.bit_length() if nu > 1 else 0)


def round_binary(x, frac_bits):
    """The nearest dyadic xi / 2^frac_bits to a real number (ties to even),
    within 2^-(frac_bits+1) of it."""
    return Fraction(round_scaled(x, frac_bits), 1 << frac_bits)


def round_scaled(x, frac_bits):
    """The xi of `round_binary`: x * 2^frac_bits rounded exactly, ties to even."""
    if frac_bits < 0:
        raise ValueError("frac_bits must be nonnegative")
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError("cannot round a non-finite value")
    n, d = x.as_integer_ratio()
    q, r = divmod(n << frac_bits, d)
    return q + (2 * r > d or (2 * r == d and q & 1))


# -- ASCII grammar --------------------------------------------------------
#
# Terms like `3/2*x1^2*x2 - x3 + 7`; variables `x1..xn` or declared names;
# whitespace-insensitive.  `**` is accepted as a synonym of `^`.

# One findall splits the text into tokens: a number, a name, an operator,
# or (the catch-all last alternative) any other non-space character, which
# the parser then reports.  Names stay ASCII: `\w` would admit Unicode
# letters.
_TOKEN = re.compile(r"\d+(?:/\d+)?|[A-Za-z_][A-Za-z_0-9]*|\*\*|[*^+-]|\S")
_NAME_START = frozenset(string.ascii_letters + "_")
_SIGNS = {"+": 1, "-": -1}
_POWER = ("^", "**")
_OPERATORS = frozenset(("*", *_SIGNS, *_POWER))


def _number(token):
    """The value of a number token: an int, or a Fraction for num/den."""
    top, _, bottom = token.partition("/")
    return Fraction(int(top), int(bottom)) if bottom else int(top)


def _grammar_error(tokens, message):
    """The error to raise for a grammar error: a stray character or a zero
    denominator anywhere in the text is reported first, in text order."""
    for t in tokens:
        if t[0].isdecimal():
            _number(t)  # raises ZeroDivisionError on a zero denominator
        elif t[0] not in _NAME_START and t not in _OPERATORS:
            return ParseError(f"unexpected character {t!r} in polynomial")
    return ParseError(message)


def parse_polynomial(text, var_names):
    """Parse the CLI polynomial grammar into an exact Polynomial."""
    nvars = len(var_names)
    index = {name: i for i, name in enumerate(var_names)}
    tokens = _TOKEN.findall(text)
    terms = {}
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i] in _SIGNS:
            sign *= _SIGNS[tokens[i]]
            i += 1
        if i >= n:
            raise ParseError("dangling sign in polynomial")
        coeff = sign
        exps = [0] * nvars
        expect_factor = True
        while i < n:
            t = tokens[i]
            if t in _SIGNS:
                break
            if t == "*":
                if expect_factor:
                    raise _grammar_error(tokens, "missing factor before '*'")
                i += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise _grammar_error(tokens, "missing operator between factors")
            i += 1
            if t[0] in _NAME_START:
                if t not in index:
                    raise _grammar_error(tokens, f"unknown variable {t!r}")
                power = 1
                if i < n and tokens[i] in _POWER:
                    if i + 1 >= n or not tokens[i + 1].isdecimal():
                        raise _grammar_error(tokens, "exponent must be a nonnegative integer")
                    power = int(tokens[i + 1])
                    i += 2
                exps[index[t]] += power
            elif t[0].isdecimal():
                coeff *= _number(t)
            elif t in _POWER:
                raise _grammar_error(tokens, "unexpected operator '^'")
            else:
                raise ParseError(f"unexpected character {t!r} in polynomial")
            expect_factor = False
        if expect_factor:
            raise _grammar_error(tokens, "empty term in polynomial")
        m = Monomial(exps)
        terms[m] = terms.get(m, 0) + coeff
    return Polynomial(terms, nvars)


def format_polynomial(p, var_names=None):
    """Canonical printing, grevlex-descending, rationals in lowest terms."""
    if var_names is None:
        var_names = [f"x{i + 1}" for i in range(p.nvars)]
    if p.is_zero():
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        factors = []
        for name, e in zip(var_names, m.exponents):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        negative = c < 0
        mag = -c if negative else c
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not parts:
            parts.append(f"-{text}" if negative else text)
        else:
            parts.append(f"- {text}" if negative else f"+ {text}")
    return " ".join(parts)
