import math
import os
from fractions import Fraction

import pytest

from soscert import gram, problem_io
from soscert.polyring import Polynomial, format_polynomial

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(DATA, name)


def load_problem(name):
    with open(data_path(name), encoding="utf-8") as fh:
        return problem_io.parse_problem(fh.read())


def load_certificate(name, expected_vars=None):
    with open(data_path(name), encoding="utf-8") as fh:
        cert, _ = problem_io.parse_certificate(fh.read(), expected_vars)
    return cert


def format_problem(inst):
    """The problem file text of an instance, one line per polynomial."""
    lines = ["variables " + " ".join(inst.var_names)]
    lines.append("f: " + format_polynomial(inst.f, inst.var_names))
    lines += ["g: " + format_polynomial(p, inst.var_names) for p in inst.g]
    lines += ["h: " + format_polynomial(p, inst.var_names) for p in inst.h]
    lines += [f"option {key} {inst.options[key]}" for key in sorted(inst.options)]
    return "\n".join(lines) + "\n"


def from_rational(rows):
    """The SymmetricMatrix of a matrix of rationals."""
    nu = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    return gram.SymmetricMatrix([[int(x * nu) for x in row] for row in rows], nu)


def rational(q):
    """The entries of a SymmetricMatrix as Fractions."""
    return [[Fraction(x, q.nu) for x in row] for row in q.mat]


def fractions(vector):
    """A ring vector (ints, den) as a list of Fractions."""
    ints, den = vector
    return [Fraction(x, den) for x in ints]


def mat_vec(a, v):
    """The product of a Fraction matrix and a vector."""
    return [sum((c * x for c, x in zip(row, v) if c), Fraction(0)) for row in a]


def reconstruct(fact):
    """The rational matrix sum_k w_k v_k v_k^t of an LDL^t factorization."""
    squares = fact.square_vectors()
    return [[sum((w * v[i] * v[j] for w, v in squares), Fraction(0))
             for j in range(len(fact.L))] for i in range(len(fact.L))]


def determinant(a):
    """Determinant of a square Fraction matrix, by Gaussian elimination."""
    m = [row[:] for row in a]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def reference_divide(p, divisors):
    """Multivariate division: p = sum(q_i * divisors[i]) + remainder, with no
    remainder monomial divisible by any divisor's leading monomial."""
    quotients = [Polynomial.zero(p.nvars) for _ in divisors]
    remainder = Polynomial.zero(p.nvars)
    lead = [(d.leading_monomial(), d.leading_coefficient()) for d in divisors]
    work = p
    while not work.is_zero():
        t = work.leading_monomial()
        c = work.terms[t]
        for i, (lm, lc) in enumerate(lead):
            if lm.divides(t):
                factor = Polynomial({t / lm: c / lc}, p.nvars)
                quotients[i] = quotients[i] + factor
                work = work - factor * divisors[i]
                break
        else:
            mono = Polynomial({t: c}, p.nvars)
            remainder = remainder + mono
            work = work - mono
    return quotients, remainder


@pytest.fixture
def four_points():
    return load_problem("four_points.prob")


@pytest.fixture
def cusp_circle():
    return load_problem("cusp_circle.prob")


@pytest.fixture
def cusp_circle_shifted():
    return load_problem("cusp_circle_shifted.prob")


@pytest.fixture
def double_origin():
    return load_problem("double_origin.prob")
