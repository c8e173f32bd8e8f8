"""Sparse multivariate polynomials over the exact rationals.

A polynomial is integers keyed by exponent tuples over one denominator, the
form of the quotient ring's vectors, and parsing, printing, arithmetic,
heights and every exact layer work on it; only the `terms` view makes
Fractions.  Float and complex points meet a polynomial only in `evaluate`.
A monomial is its exponent tuple everywhere, the quotient basis included,
and `grevlex` is the one order on them, so leading terms are
degree-compatible; `Monomial` is only the key of the `terms` view.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
import string
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, ParseError


def grevlex(e):
    """The graded reverse lexicographic key of the exponents e, with
    x1 < x2 < ... < xn."""
    return sum(e), tuple(map(operator.neg, e))


class Monomial:
    """The key of the read-only `Polynomial.terms` view, which keeps its
    exponent tuple as `exponents`.  Everything else in the package keys a
    monomial by its exponent tuple itself."""

    __slots__ = ("exponents",)

    def __init__(self, exponents):
        self.exponents = exponents

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return f"Monomial{self.exponents}"


class Polynomial:
    """sum_e ints[e] x^e / den, from any integers over a nonzero den, kept
    in lowest terms over a positive den with no zero stored: equal
    polynomials have equal data, and den is the lcm of the coefficients'
    denominators.  Values are immutable after construction."""

    __slots__ = ("ints", "den", "nvars")

    def __init__(self, ints, den, nvars):
        g = math.gcd(den, *ints.values()) if den > 0 else -math.gcd(den, *ints.values())
        self.ints = {e: c // g for e, c in ints.items() if c}
        self.den = den // g
        self.nvars = nvars

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls({}, 1, nvars)

    @classmethod
    def constant(cls, c, nvars):
        """The constant polynomial of a real number c, taken exactly."""
        c = _scalar(c)
        return cls({(0,) * nvars: c.numerator}, c.denominator, nvars)

    @classmethod
    def variable(cls, i, nvars):
        return cls({tuple(int(j == i) for j in range(nvars)): 1}, 1, nvars)

    # -- basic queries ------------------------------------------------

    @property
    def terms(self):
        """The coefficients as a new dict {Monomial: Fraction} on each read."""
        return {Monomial(e): Fraction(c, self.den) for e, c in self.ints.items()}

    def is_zero(self):
        return not self.ints

    @property
    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.ints), default=-1)

    def leading_monomial(self):
        return max(self.ints, key=grevlex)

    def leading_coefficient(self):
        return Fraction(self.ints[self.leading_monomial()], self.den)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.nvars)
        self._check(other)
        den = math.lcm(self.den, other.den)
        acc = {e: c * (den // self.den) for e, c in self.ints.items()}
        scale = den // other.den
        for e, c in other.ints.items():
            acc[e] = acc.get(e, 0) + c * scale
        return Polynomial(acc, den, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({e: -c for e, c in self.ints.items()}, self.den, self.nvars)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return Polynomial.constant(other, self.nvars) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = _scalar(other)
            return Polynomial({e: c * other.numerator for e, c in self.ints.items()},
                              self.den * other.denominator, self.nvars)
        self._check(other)
        acc = {}
        for e1, c1 in self.ints.items():
            for e2, c2 in other.ints.items():
                e = tuple(map(operator.add, e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return Polynomial(acc, self.den * other.den, self.nvars)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / scalar)

    def __pow__(self, k):
        result = Polynomial.constant(1, self.nvars)
        base = self
        k = operator.index(k)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, numbers.Real):
                return NotImplemented
            other = Polynomial.constant(other, self.nvars)
        return (self.nvars, self.den, self.ints) == (other.nvars, other.den, other.ints)

    def __hash__(self):
        if self.degree <= 0:  # a constant equals its number, so hashes like it
            return hash(Fraction(sum(self.ints.values()), self.den))
        return hash((self.nvars, self.den, frozenset(self.ints.items())))

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)})"


def _scalar(c):
    """A real number c as a Fraction, exactly.  Anything else, a string
    included, which Fraction would parse, raises TypeError."""
    if not isinstance(c, numbers.Real):
        raise TypeError(f"a polynomial meets a number or a polynomial, not {type(c).__name__}")
    return Fraction(c)


def evaluate(p, point=None, *, points=None):
    """Evaluate p at a point, or the list of its values at `points`: exactly
    at a rational point, in floats at a float or complex one, where each
    coefficient is taken once per call as the correctly rounded ints[e] / den,
    as float(Fraction) and so Fraction * x are, bit for bit, and each power
    x_i^k once per point; a constant gives a float there."""
    if points is None:
        return evaluate(p, points=(point,))[0]
    slots = {}  # (i, k) -> index of x_i^k among a point's powers
    factors = [[slots.setdefault((i, k), len(slots)) for i, k in enumerate(e) if k] for e in p.ints]
    ints, floats, values = list(p.ints.values()), None, []
    for point in points:
        if len(point) != p.nvars:
            raise DimensionMismatch(f"point has {len(point)} coordinates, "
                                    f"polynomial has {p.nvars} variables")
        inexact = any(isinstance(x, (float, complex)) for x in point)
        if inexact and floats is None:
            floats = [c / p.den for c in ints]
        powers = [point[i] ** k for i, k in slots]
        total = 0.0 if inexact else 0
        for v, term in zip(floats if inexact else ints, factors):
            for s in term:
                v = v * powers[s]
            total = total + v
        values.append(total if inexact else Fraction(total, p.den))
    return values


@dataclass(frozen=True)
class HeightInfo:
    """Bit lengths of a primitive representation p = phat / nu."""

    numerator_height: int
    denominator_height: int


def height(p):
    """Height of a polynomial: bit length of the largest numerator and of
    the common (lcm) denominator of a primitive representation."""
    if p.is_zero():
        return HeightInfo(0, 0)
    top = max(map(abs, p.ints.values()))
    return HeightInfo(top.bit_length(), p.den.bit_length() if p.den > 1 else 0)


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
    """The value of a number token as (numerator, denominator); a zero
    denominator raises ZeroDivisionError, as Fraction does."""
    top, _, bottom = token.partition("/")
    den = int(bottom) if bottom else 1
    if not den:
        raise ZeroDivisionError(f"Fraction({int(top)}, 0)")
    return int(top), den


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
    """Parse the CLI polynomial grammar into an exact Polynomial, each term's
    coefficient an integer fraction, all then over the lcm of their dens."""
    nvars = len(var_names)
    index = {name: i for i, name in enumerate(var_names)}
    tokens = _TOKEN.findall(text)
    terms = []
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i] in _SIGNS:
            sign *= _SIGNS[tokens[i]]
            i += 1
        if i >= n:
            raise ParseError("dangling sign in polynomial")
        num, den = sign, 1
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
                top, bottom = _number(t)
                num *= top
                den *= bottom
            elif t in _POWER:
                raise _grammar_error(tokens, "unexpected operator '^'")
            else:
                raise ParseError(f"unexpected character {t!r} in polynomial")
            expect_factor = False
        if expect_factor:
            raise _grammar_error(tokens, "empty term in polynomial")
        terms.append((tuple(exps), num, den))
    lcd = math.lcm(*(den for _, _, den in terms))
    ints = {}
    for e, num, den in terms:
        ints[e] = ints.get(e, 0) + num * (lcd // den)
    return Polynomial(ints, lcd, nvars)


def format_polynomial(p, var_names=None, monomials=None):
    """Canonical printing, grevlex-descending, rationals in lowest terms;
    `monomials`, shared by calls with the same names, keeps each monomial's key and text."""
    if var_names is None:
        var_names = [f"x{i + 1}" for i in range(p.nvars)]
    monomials = {} if monomials is None else monomials
    if p.is_zero():
        return "0"
    for e in p.ints:
        if e not in monomials:
            monomials[e] = grevlex(e), "*".join(name if k == 1 else f"{name}^{k}"
                                                for name, k in zip(var_names, e) if k)
    parts = []
    den = p.den
    for e, c in sorted(p.ints.items(), key=lambda t: monomials[t[0]][0], reverse=True):
        body = monomials[e][1]
        negative = c < 0
        mag = -c if negative else c
        g = math.gcd(mag, den)
        value = str(mag // g) if g == den else f"{mag // g}/{den // g}"
        if not body:
            text = value
        elif mag == den:
            text = body
        else:
            text = f"{value}*{body}"
        if not parts:
            parts.append(f"-{text}" if negative else text)
        else:
            parts.append(f"- {text}" if negative else f"+ {text}")
    return " ".join(parts)
