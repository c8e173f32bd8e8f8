import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from soscert import exactla

from conftest import (determinant, mat_vec, primitive, reference_nullspace, reference_rref,
                      reference_solve)


entries = st.integers(-50, 50)


def square(draw, n):
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@st.composite
def matrices(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_n))
    return [[draw(entries) for _ in range(m)] for _ in range(n)]


@st.composite
def square_matrices(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    return square(draw, n)


def as_fractions(a):
    return [[Fraction(x) for x in row] for row in a]


@settings(max_examples=40, deadline=None)
@given(square_matrices())
def test_invert_or_singular(a):
    assert (determinant(as_fractions(a)) != 0) == (len(exactla.rref(a)[1]) == len(a))


@settings(max_examples=40, deadline=None)
@given(matrices(), st.data())
def test_solve_satisfies_system(a, data):
    x_true = [data.draw(entries) for _ in a[0]]
    b = [int(y) for y in mat_vec(a, x_true)]
    sol = exactla.solve(a, b)
    assert sol is not None
    xs, den = sol
    assert mat_vec(a, xs) == [den * y for y in b]


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_nullspace_annihilates(a):
    basis = exactla.nullspace(a)
    for v in basis:
        assert mat_vec(a, v) == [0] * len(a)
    assert len(basis) == len(a[0]) - len(exactla.rref(a)[1])


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rref_shape(a):
    red, pivots, p = exactla.rref(a, ncols=len(a[0]))
    assert p != 0
    for k, col in enumerate(pivots):
        assert red[k][col] == p
        for other in range(len(red)):
            if other != k:
                assert red[other][col] == 0
    assert len(pivots) == len(exactla.rref(a)[1])


def test_determinant_known():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
    assert determinant(a) == 3


@settings(max_examples=30, deadline=None)
@given(square_matrices(max_n=4), square_matrices(max_n=4))
def test_determinant_multiplicative(a, b):
    if len(a) != len(b):
        return
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    a, b, product = as_fractions(a), as_fractions(b), as_fractions(product)
    assert determinant(product) == determinant(a) * determinant(b)


def test_inconsistent_system():
    assert exactla.solve([[1, 1], [2, 2]], [1, 3]) is None


# -- the fraction-free kernel against Fraction elimination ---------------------


@st.composite
def structured_matrices(draw):
    """Integer entries, wide or tall, of a drawn rank (rows are
    combinations of rank random rows), some columns possibly zero."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(n, m)))
    basis = [[draw(st.integers(-9, 9)) for _ in range(m)] for _ in range(rank)]
    rows = [[sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(m)]
            for coeffs in ([draw(st.integers(-3, 3)) for _ in basis] for _ in range(n))]
    for j in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        for row in rows:
            row[j] = 0
    return rows


@settings(max_examples=150, deadline=None)
@given(structured_matrices(), st.data())
def test_rref_matches_fraction_elimination(a, data):
    ncols = data.draw(st.sampled_from([None] + list(range(len(a[0])))))
    red, pivots, p = exactla.rref(a, ncols)
    assert all(isinstance(x, int) for row in red for x in row)
    assert ([[Fraction(x, p) for x in row] for row in red], pivots) == reference_rref(a, ncols)


@settings(max_examples=150, deadline=None)
@given(structured_matrices(), st.data())
def test_solve_and_nullspace_match_fraction_elimination(a, data):
    # a random right-hand side is inconsistent unless A has full row rank
    x = [data.draw(entries) for _ in a[0]]
    for b in ([int(y) for y in mat_vec(a, x)], [data.draw(entries) for _ in a]):
        sol = exactla.solve(a, b)
        got = None if sol is None else [Fraction(v, sol[1]) for v in sol[0]]
        assert got == reference_solve(a, b)
    assert exactla.nullspace(a) == [primitive(v) for v in reference_nullspace(a)]


@settings(max_examples=150, deadline=None)
@given(structured_matrices(), st.data())
def test_solve_is_in_lowest_terms(a, data):
    x = [data.draw(st.fractions(-9, 9, max_denominator=6)) for _ in a[0]]
    den_b = math.lcm(*(v.denominator for v in mat_vec(a, x)))
    b = [int(v * den_b) for v in mat_vec(a, x)]
    xs, den = exactla.solve(a, b)
    assert all(isinstance(v, int) for v in xs)
    assert den > 0 and math.gcd(den, *xs) == 1
    assert mat_vec(a, xs) == [den * v for v in b]
    assert [Fraction(v, den) for v in xs] == reference_solve(a, b)


@settings(max_examples=150, deadline=None)
@given(structured_matrices())
def test_nullspace_vectors_are_primitive(a):
    red, pivots, _ = exactla.rref(a)
    free = [c for c in range(len(a[0])) if c not in pivots]
    basis = exactla.nullspace(a)
    assert len(basis) == len(free)
    for v, fc, ref in zip(basis, free, reference_nullspace(a)):
        assert all(isinstance(x, int) for x in v)
        assert math.gcd(*v) == 1
        assert v[fc] > 0 and all(v[c] == 0 for c in free if c != fc)
        assert mat_vec(a, v) == [0] * len(a)
        # the reference vector has free entry 1, so v is v[fc] times it
        assert [v[fc] * r for r in ref] == v
