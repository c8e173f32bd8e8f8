from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from soscert import exactla

from conftest import determinant, mat_vec, reference_nullspace, reference_rref, reference_solve


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


# -- the fraction-free kernel against Fraction elimination ---------------------


@st.composite
def structured_matrices(draw):
    """Integer or Fraction entries, wide or tall, of a drawn rank (rows
    are combinations of rank random rows), some columns possibly zero."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(n, m)))
    values = st.integers(-9, 9) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    basis = [[draw(values) for _ in range(m)] for _ in range(rank)]
    rows = [[sum((c * b[j] for c, b in zip(coeffs, basis)), 0) for j in range(m)]
            for coeffs in ([draw(st.integers(-3, 3)) for _ in basis] for _ in range(n))]
    for j in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        for row in rows:
            row[j] = 0
    return rows


@settings(max_examples=150, deadline=None)
@given(structured_matrices(), st.data())
def test_rref_matches_fraction_elimination(a, data):
    ncols = data.draw(st.sampled_from([None] + list(range(len(a[0])))))
    assert exactla.rref(a, ncols) == reference_rref(a, ncols)


@settings(max_examples=150, deadline=None)
@given(structured_matrices(), st.data())
def test_solve_and_nullspace_match_fraction_elimination(a, data):
    # a random right-hand side is inconsistent unless A has full row rank
    x = [data.draw(entries) for _ in a[0]]
    for b in (mat_vec(a, x), [data.draw(entries) for _ in a]):
        assert exactla.solve(a, b) == reference_solve(a, b)
    assert exactla.nullspace(a) == reference_nullspace(a)
