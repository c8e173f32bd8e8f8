"""Text formats for problem instances and certificates.

Problem file::

    variables x y
    f: x + y + 3
    g: y
    h: x^2 - 1
    h: y^2 - x - 2
    option mode strict

Certificate file::

    mode strict
    variables x y
    gamma 2
    block 0
    weight 1/125 square 5*x - 3*y
    block 1
    weight 1 square 1
    cofactor 1 -1/2*x^2 - 2/5*y^2 - 1/10*y - 7/10
    witness 1 1

Blocks are numbered 0..r (block 0 is the free sum of squares, block i
multiplies g_i); `cofactor j` multiplies the j-th equality generator; the
optional `gamma` and `witness` lines carry the nonnegative-mode data.
Rationals are printed in lowest terms.  The data of both formats,
`ProblemInstance` and `Certificate`, and the option values live here, so
that reading them loads no engine.
"""

from __future__ import annotations

import contextlib
import re
from fractions import Fraction

from .errors import ParseError
from .polyring import format_polynomial, parse_polynomial


class ProblemInstance:
    def __init__(self, var_names, f, g=None, h=None, options=None):
        self.var_names = list(var_names)
        self.f = f
        self.g = list(g or [])
        self.h = list(h or [])
        self.options = dict(options or {})
        if not self.h:
            raise ValueError("at least one equality constraint required")

    @property
    def nvars(self):
        return len(self.var_names)


class Certificate:
    """Exact data of the identity
    f = sum_k w_{0,k} q_{0,k}^2 + sum_i (sum_k w_{i,k} q_{i,k}^2) g_i + sum_j p_j h_j.

    `blocks[i]` is the list of (weight, square) pairs of block i (block 0 is
    the free SoS part); `cofactors[j]` multiplies h_j.  In nonnegative mode
    `witnesses[k]` is r_k with q_{0,k} = f * r_k modulo I.
    """

    def __init__(self, mode, blocks, cofactors, witnesses=None, gamma=None):
        self.mode = mode
        self.blocks = blocks
        self.cofactors = cofactors
        self.witnesses = witnesses
        self.gamma = gamma


# the values of the mode and engine options, in files and on the command line
OPTION_CHOICES = {"mode": ("strict", "nonneg"), "engine": ("constructive", "sdp")}
_OPTION_TYPES = {"mode": str, "engine": str, "seed": int}
_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?")


def _rational(keyword, text):
    """A `weight` or `gamma` value: an optional sign, then num or num/den."""
    if not _RATIONAL.fullmatch(text):
        raise ParseError(f"{keyword} must be a rational num or num/den, not {text!r}")
    return Fraction(text)


def check_option(key, value):
    """An option value, or ParseError for a mode or engine out of its choices or a negative seed."""
    if key in OPTION_CHOICES and value not in OPTION_CHOICES[key]:
        raise ParseError(f"{key} must be one of {', '.join(OPTION_CHOICES[key])}, "
                         f"not {value!r}")
    if key == "seed" and value < 0:
        raise ParseError(f"seed must be nonnegative, not {value}")
    return value


@contextlib.contextmanager
def _at_line(lineno):
    """Report any error of reading one line as a ParseError naming it."""
    try:
        yield
    except ZeroDivisionError:
        raise ParseError("zero denominator", lineno) from None
    except (ParseError, ValueError, IndexError) as exc:
        raise ParseError(str(exc), lineno) from None


def _value(line):
    """The one word after the keyword of a `mode`, `gamma` or `block` line."""
    words = line.split()
    if len(words) != 2:
        raise ParseError(f"expected `{words[0]} <value>`, not {line!r}")
    return words[1]


def _fields(line, form):
    """The fields after the keyword of a line of the given form, such as
    `cofactor <j> <poly>`: one per word of the form, the last one the rest
    of the line."""
    words = line.split(None, form.count(" "))
    if len(words) <= form.count(" "):
        raise ParseError(f"expected `{form}`, not {line!r}")
    return words[1:]


def _integer(word, form):
    """An integer field of a line of the given form."""
    try:
        return int(word)
    except ValueError:
        raise ParseError(f"expected `{form}`, where {word!r} is not an integer") from None


def _once(previous, keyword):
    """ParseError for a second line of a keyword that may appear once."""
    if previous is not None:
        raise ParseError(f"second `{keyword}` line")


def _variables(line):
    var_names = line.split()[1:]
    if not var_names:
        raise ParseError("empty variable list")
    for i, name in enumerate(var_names):
        if name in var_names[:i]:
            raise ParseError(f"variable {name!r} declared twice")
    return var_names


def parse_problem(text):
    var_names = None
    f = None
    g = []
    h = []
    options = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword = line.split()[0]
        with _at_line(lineno):
            if line.startswith("f:"):
                _once(f, "f:")
                f = _polynomial_line(line, var_names)
            elif line.startswith("g:"):
                g.append(_polynomial_line(line, var_names))
            elif line.startswith("h:"):
                h.append(_polynomial_line(line, var_names))
            elif keyword == "variables":
                _once(var_names, "variables")
                var_names = _variables(line)
            elif keyword == "option":
                key, value = _fields(line, "option <key> <value>")
                if key not in _OPTION_TYPES:
                    raise ParseError(f"unknown option {key!r}")
                _once(options.get(key), f"option {key}")
                if _OPTION_TYPES[key] is int:
                    value = _integer(value, f"option {key} <n>")
                options[key] = check_option(key, value)
            else:
                raise ParseError(f"unrecognized line {line!r}")
    if var_names is None:
        raise ParseError("missing `variables` line")
    if f is None:
        raise ParseError("missing `f:` line")
    try:
        return ProblemInstance(var_names, f, g, h, options=options)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _polynomial_line(line, var_names):
    """The polynomial of an `f:`, `g:` or `h:` line, which may not be empty."""
    names = _need_vars(var_names)
    if not line[2:].strip():
        raise ParseError("empty polynomial; write 0 for zero")
    return parse_polynomial(line[2:], names)


def _need_vars(var_names):
    if var_names is None:
        raise ParseError("`variables` line must precede polynomial lines")
    return var_names


def parse_certificate(text, expected_vars=None):
    mode = None
    var_names = None
    gamma = None
    blocks = []
    cofactors = {}
    witnesses = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword = line.split()[0]
        with _at_line(lineno):
            if keyword == "mode":
                _once(mode, "mode")
                mode = check_option("mode", _value(line))
            elif keyword == "variables":
                _once(var_names, "variables")
                var_names = _variables(line)
                if expected_vars is not None and var_names != list(expected_vars):
                    raise ParseError(
                        f"variable mismatch: certificate has {var_names}, "
                        f"instance has {list(expected_vars)}")
            elif keyword == "gamma":
                _once(gamma, "gamma")
                gamma = _rational("gamma", _value(line))
            elif keyword == "block":
                idx = _integer(_value(line), "block <i>")
                if idx != len(blocks):
                    raise ParseError(f"blocks must appear in order; got {idx}")
                blocks.append([])
                current = blocks[-1]
            elif keyword == "weight":
                if current is None:
                    raise ParseError("`weight` line before any `block` line")
                w, kw, poly_text = _fields(line, "weight <rational> square <poly>")
                if kw != "square":
                    raise ParseError(f"expected `weight <rational> square <poly>`, not {line!r}")
                current.append((_rational("weight", w),
                                parse_polynomial(poly_text, _need_vars(var_names))))
            elif keyword == "cofactor":
                j, poly_text = _fields(line, "cofactor <j> <poly>")
                j = _integer(j, "cofactor <j> <poly>")
                if j in cofactors:
                    raise ParseError(f"second `cofactor {j}` line")
                cofactors[j] = parse_polynomial(poly_text, _need_vars(var_names))
            elif keyword == "witness":
                k, poly_text = _fields(line, "witness <k> <poly>")
                if _integer(k, "witness <k> <poly>") != len(witnesses) + 1:
                    raise ParseError("witness lines must appear in order")
                witnesses.append(parse_polynomial(poly_text, _need_vars(var_names)))
            else:
                raise ParseError(f"unrecognized line {line!r}")
    if mode is None:
        raise ParseError("missing `mode` line")
    if var_names is None:
        raise ParseError("missing `variables` line")
    if not blocks:
        raise ParseError("certificate contains no blocks")
    cof_list = [cofactors[j] for j in sorted(cofactors)]
    if sorted(cofactors) != list(range(1, len(cof_list) + 1)):
        raise ParseError("cofactor indices must be 1..s")
    return Certificate(mode, blocks, cof_list,
                       witnesses=witnesses, gamma=gamma), var_names


def format_certificate(cert, var_names):
    """The certificate file, each monomial's text and key made once for it."""
    monomials = {}
    lines = [f"mode {cert.mode}", "variables " + " ".join(var_names)]
    if cert.gamma is not None:
        lines.append(f"gamma {cert.gamma}")
    for i, block in enumerate(cert.blocks):
        lines.append(f"block {i}")
        for w, q in block:
            lines.append(f"weight {w} square {format_polynomial(q, var_names, monomials)}")
    for j, p in enumerate(cert.cofactors, start=1):
        lines.append(f"cofactor {j} {format_polynomial(p, var_names, monomials)}")
    for k, r in enumerate(cert.witnesses or [], start=1):
        lines.append(f"witness {k} {format_polynomial(r, var_names, monomials)}")
    return "\n".join(lines) + "\n"
