from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from soscert import exactla

from conftest import determinant, mat_vec


entries = st.integers(-50, 50).map(Fraction)


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


@settings(max_examples=40, deadline=None)
@given(square_matrices())
def test_invert_or_singular(a):
    assert (determinant(a) != 0) == (len(exactla.rref(a)[1]) == len(a))


@settings(max_examples=40, deadline=None)
@given(matrices(), st.data())
def test_solve_satisfies_system(a, data):
    n, m = len(a), len(a[0])
    x_true = [data.draw(entries) for _ in range(m)]
    b = mat_vec(a, x_true)
    x = exactla.solve(a, b)
    assert x is not None
    assert mat_vec(a, x) == b


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_nullspace_annihilates(a):
    basis = exactla.nullspace(a)
    zero = [Fraction(0)] * len(a)
    for v in basis:
        assert mat_vec(a, v) == zero
    assert len(basis) == len(a[0]) - len(exactla.rref(a)[1])


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rref_shape(a):
    red, pivots = exactla.rref([row[:] for row in a], ncols=len(a[0]))
    for k, col in enumerate(pivots):
        assert red[k][col] == 1
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
    product = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
               for row in a]
    assert determinant(product) == determinant(a) * determinant(b)


def test_inconsistent_system():
    a = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    b = [Fraction(1), Fraction(3)]
    assert exactla.solve(a, b) is None
