import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soscert import quotient, variety
from soscert.errors import BoundaryAmbiguity, ClusterAmbiguity, SingularVandermonde
from soscert.polyring import Polynomial, evaluate, parse_polynomial

from conftest import DATA, load_problem, reference_solve_variety


def poly(s, names=("x", "y")):
    return parse_polynomial(s, list(names))


def make_ring(*gens):
    return quotient.monomial_basis(quotient.groebner(list(gens)))


@pytest.fixture
def four_points_ring():
    return make_ring(poly("x^2 - 1"), poly("y^2 - x - 2"))


@pytest.fixture
def four_points_var(four_points_ring):
    return variety.solve_variety(four_points_ring)


class TestSolveVariety:
    def test_four_real_points(self, four_points_var):
        var = four_points_var
        assert len(var.real) == 4
        assert var.pairs == []
        expected = {(1.0, math.sqrt(3)), (1.0, -math.sqrt(3)),
                    (-1.0, 1.0), (-1.0, -1.0)}
        got = {(round(x, 6), round(y, 6)) for x, y in var.real}
        assert got == {(round(a, 6), round(b, 6)) for a, b in expected}

    def test_residuals_small(self, four_points_ring, four_points_var):
        var = four_points_var
        for g in four_points_ring.ideal.generators:
            for p in var.real + var.pairs:
                assert abs(evaluate(g, p)) < 1e-8

    def test_multiplicity_and_conjugates(self):
        # origin is a double point; one conjugate pair lies off the reals.
        # The radical ring keeps the five points, each simple.
        ring = make_ring(poly("x^3 - y^2"), poly("x^2 - 2*x + y^2"))
        assert ring.D == 6 and not ring.is_radical
        var = variety.solve_variety(ring.radical_ring)
        assert len(var.real) == 3 and len(var.pairs) == 1
        (zeta,) = var.pairs
        assert all(z.imag != 0 for z in zeta)
        for g in ring.ideal.generators:
            for point in (zeta, [z.conjugate() for z in zeta]):
                assert abs(evaluate(g, point)) < 1e-8
        reals = sorted((round(x, 9), round(y, 9)) for x, y in var.real)
        assert reals == [(0.0, 0.0), (1.0, -1.0), (1.0, 1.0)]

    def test_deterministic_under_seed(self):
        ring = make_ring(poly("x^2 - 1"), poly("y^2 - x - 2"))
        v1 = variety.solve_variety(ring, seed=7)
        v2 = variety.solve_variety(ring, seed=7)
        assert (v1.real, v1.pairs) == (v2.real, v2.pairs)

    def test_singular_eigenvectors_raise_singular_vandermonde(self, monkeypatch):
        # a rank-deficient eigenvector matrix has no inverse: the solver
        # reports it as SingularVandermonde, never as a LinAlgError
        eig = np.linalg.eig

        def deficient(a):
            values, vectors = eig(a)
            vectors[:, -1] = vectors[:, 0]
            return values, vectors

        monkeypatch.setattr(np.linalg, "eig", deficient)
        ring = make_ring(poly("x^2 - 1"), poly("y^2 - x - 2"))
        with pytest.raises(SingularVandermonde):
            variety.solve_variety(ring)


class TestIdempotents:
    def test_duality(self, four_points_ring, four_points_var):
        v, u = _vandermonde_and_idempotents(four_points_ring, four_points_var)
        assert np.max(np.abs(v.T @ u - np.eye(four_points_ring.D))) < 1e-8

    def test_partition_of_unity(self, four_points_ring, four_points_var):
        total = four_points_var.real_idem.sum(axis=1)
        one = np.zeros(four_points_ring.D)
        one[0] = 1.0
        assert np.max(np.abs(total - one)) < 1e-8

    def test_undefined_for_multiple_points(self):
        # with y^2 + 1, the double root 0 of x^3 - x^2 splits into eigenvalues
        # about 2e-8 apart, a Vandermonde condition number near 1e8: only the
        # exact radical test refuses that ring
        for gens in (("x^3 - y^2", "x^2 - 2*x + y^2"), ("x^3 - x^2", "y^2 + 1")):
            ring = make_ring(*map(poly, gens))
            with pytest.raises(SingularVandermonde, match="not radical"):
                variety.solve_variety(ring)


class TestRationalGrid:
    """The rational points of a product ring, found from float candidates
    checked in integers, or by exact bisection where those fall short, with
    their exact idempotents."""

    @pytest.mark.parametrize("coeffs, roots", [
        ({0: 0, 1: -1, 3: 1}, [-1, 0, 1]),  # x^3 - x: integer roots stay ints
        ({0: -2, 1: -1, 2: 6}, [Fraction(-1, 2), Fraction(2, 3)]),
        ({0: -1, 1: 2 ** 61 - 1}, [Fraction(1, 2 ** 61 - 1)]),
        ({0: -2, 2: 1}, None),  # irrational
        ({0: -1, 1: 1, 2: -1, 3: 1}, [1]),  # (x - 1)(x^2 + 1): one real root
        # +-10^-200: 2^-1329 underflows to a zero constant, and the float
        # candidates miss both roots, which the bisection finds
        ({0: -1, 2: 10 ** 400}, [Fraction(-1, 10 ** 200), Fraction(1, 10 ** 200)]),
        # +-2^530: the leading coefficient scales to 2^-1061, and the
        # companion matrix overflows
        ({0: -2 ** 1060, 2: 1}, [-2 ** 530, 2 ** 530]),
        # (x - 1)^2 - 2^-100: float64 sees a double root at 1
        ({0: 2 ** 100 - 1, 1: -2 ** 101, 2: 2 ** 100},
         [Fraction(2 ** 50 - 1, 2 ** 50), Fraction(2 ** 50 + 1, 2 ** 50)]),
        # 10^400 x^2 - 2: the bisection finds the roots +-sqrt(2) 10^-200 irrational
        ({0: -2, 2: 10 ** 400}, None),
    ], ids=["integers", "fractions", "huge_denominator", "irrational", "complex", "underflow",
            "overflow", "close_pair", "underflow_irrational"])
    def test_roots(self, coeffs, roots):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = variety._rational_roots(coeffs, quotient.sturm(coeffs)[0])
        assert found == roots
        assert [type(r) for r in found or []] == [type(r) for r in roots or []]

    def test_the_float_candidates_suffice_on_a_grid(self, monkeypatch):
        # the bisection runs only where the float candidates fall short
        monkeypatch.setattr(variety, "_isolate", None)
        assert variety._rational_roots({0: 6, 1: -5, 2: -2, 3: 1}, 3) == [-2, 1, 3]

    def test_idempotents_are_exact(self):
        ring = make_ring(poly("2*x^2 + x - 3"), poly("3*y^3 - 4*y^2 + y"))
        grid = variety.rational_grid(ring)
        assert grid.points == [(x, y) for x in (Fraction(-3, 2), 1) for y in (0, Fraction(1, 3), 1)]
        total = quotient.combine([(Fraction(1), *e) for e in grid.idempotents], ring.D)
        assert total == ring.unit
        for k, e in enumerate(grid.idempotents):
            assert ring.mul(e, e) == e
            values = [evaluate(ring.from_vector(*e), pt) for pt in grid.points]
            assert values == [int(j == k) for j in range(len(grid.points))]
        assert grid.values(poly("x*y + 1")) == [x * y + 1 for x, y in grid.points]
        assert grid.rest == []

    @pytest.mark.parametrize("gens, d", [
        # conj12: x = +-1, +-i, y in {-1, 0, 1}
        (("x^4 - 1", "y^3 - y"), [4]),
        # conj16: x = +-2, +-i sqrt(3), y in {0, 1}, (-1 +- i sqrt(3)) / 2
        (("x^4 - x^2 - 12", "y^4 - y"), [12, 3]),
        # 3 x^2 + 2 x + 1 in x, with the roots -1/2 and 1/3
        (("18*x^4 + 15*x^3 + 5*x^2 - x - 1", "y^2 - y"), [8]),
    ], ids=["conj12", "conj16", "fractions"])
    def test_complex_points(self, gens, d):
        # e_xi vanishes at the complex points too: sum e_xi + E = 1 with E
        # = sum_k F_k, and F_k u_k^2 / d_k = -F_k mod I, so E is minus a sum
        # of squares
        ring = make_ring(*map(poly, gens))
        grid = variety.rational_grid(ring)
        for e in grid.idempotents:
            assert ring.mul(e, e) == e
        e_sum = quotient.combine([(Fraction(1), *e) for e in grid.idempotents], ring.D)
        rest = quotient.combine([(Fraction(1), *ring.unit), (Fraction(-1), *e_sum)], ring.D)
        assert ring.mul(rest, rest) == rest and any(rest[0])
        assert [dk for _, dk in grid.rest] == d
        squares = quotient.combine([(Fraction(1, dk), *ring.mul(v, v)) for v, dk in grid.rest],
                                   ring.D)
        assert quotient.combine([(Fraction(1), *squares), (Fraction(1), *rest)], ring.D)[0] == [
            0] * ring.D

    def test_a_redundant_generator(self):
        # y (x^2 - 1) lies in (x^2 - 1): D = 2 * 2, so I = (x^2 - 1, y^2 - 1)
        grid = variety.rational_grid(make_ring(*map(poly, ("x^2 - 1", "y^2 - 1", "x^2*y - y"))))
        assert grid.points == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert grid.signs(poly("x + y")) == [(-1, -2), (0, 0), (0, 0), (1, 2)]

    @pytest.mark.parametrize("gens", [("x^2 - 1", "y - x"), ("x^2 - 1", "y^2 + 1"),
                                      ("x^2 - 1", "y^2 - 2"), ("x^2 - 1", "y^2 - 1", "x - y"),
                                      ("x^5 - x^4 + 3*x^3 - 3*x^2 + 2*x - 2", "y^2 - 1")],
                             ids=["not_a_product", "complex", "irrational", "diagonal",
                                  "complex_quartic"])
    def test_other_rings(self, gens):
        # the diagonal has univariates x^2 - 1 and y^2 - 1, but D = 2 < 2 * 2;
        # y^2 + 1 has no real root; (x - 1)(x^2 + 1)(x^2 + 2) has a complex
        # rest of degree 4
        assert variety.rational_grid(make_ring(*map(poly, gens))) is None


class TestSigns:
    def test_thresholds(self, four_points_var):
        # +-decision_tol itself is undecided; the next float beyond it is not
        var = four_points_var
        tol = var.decision_tol
        for v, sign in [(tol, 0), (-tol, 0), (0.0, 0), (math.nextafter(tol, 1), 1),
                        (math.nextafter(-tol, -1), -1)]:
            assert var.signs(Polynomial.constant(Fraction(v), 2)) == [(sign, v)] * 4

    def test_values_at_the_points(self):
        # x^2 - 1, (y^2 + 1)(y - 2): real points (+-1, 2) and pairs (+-1, +-i)
        ring = make_ring(poly("x^2 - 1"), poly("y^3 - 2*y^2 + y - 2"))
        var = variety.solve_variety(ring)
        p = poly("x*y")
        assert var.values(p) == [evaluate(p, xi) for xi in var.real]
        assert var.pair_values(p) == [evaluate(p, zeta) for zeta in var.pairs]
        assert var.signs(p) == [(1 if v > 0 else -1, v) for v in var.values(p)]
        assert sorted(round(v, 9) for v in var.values(p)) == [-2, 2]


    def test_each_polynomial_evaluated_once(self, monkeypatch):
        # a second call reads the first evaluation, at the real points and
        # at the pairs alike, even after its caller changed the first result
        ring = make_ring(poly("x^2 - 1"), poly("y^3 - 2*y^2 + y - 2"))
        var = variety.solve_variety(ring)
        calls = []
        monkeypatch.setattr(variety, "evaluate", lambda p, points: calls.append(p) or evaluate(
            p, points=points))
        p = poly("x*y + 1")
        first, pairs = var.values(p), var.pair_values(p)
        expected, expected_pairs = list(first), list(pairs)
        first[0] = pairs[0] = None
        assert var.values(p) == expected and var.pair_values(p) == expected_pairs
        assert [s for s, _ in var.signs(p)] == [1 if v > 0 else -1 for v in expected]
        assert calls == [p, p]
        # an equal polynomial is another object, evaluated on its own
        var.values(poly("x*y + 1"))
        assert len(calls) == 3


class TestMembership:
    def test_partition(self, four_points_var):
        member = variety.membership(four_points_var, [poly("y")])
        assert len(member.s_indices) == 2
        assert len(member.excluded) == 2
        for idx, gi in member.excluded:
            assert gi == 0
            assert four_points_var.real[idx][1] < 0

    def test_no_constraints_keeps_all(self, four_points_var):
        member = variety.membership(four_points_var, [])
        assert len(member.s_indices) == 4

    def test_boundary_warning(self, four_points_var):
        # x - 1 vanishes at two of the points
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            variety.membership(four_points_var, [poly("x - 1")])
        assert any(issubclass(w.category, BoundaryAmbiguity) and "real point" in str(w.message)
                   for w in caught)

    def test_indices_count_the_real_points_only(self):
        # (y^2 + 1)(y - 2) and x^2 - 1: two real points, y = 2, and two
        # conjugate pairs, y = +-i; S keeps the real point with x > 0
        ring = make_ring(poly("x^2 - 1"), poly("y^3 - 2*y^2 + y - 2"))
        var = variety.solve_variety(ring)
        member = variety.membership(var, [poly("x")])
        assert len(var.real) == 2 and len(var.pairs) == 2
        assert [var.real[i][0] > 0 for i in member.s_indices] == [True]
        assert member.excluded == [(1 - member.s_indices[0], 0)]


def _vandermonde_and_idempotents(ring, var):
    """V, V[i, j] = b_i(zeta_j), and U, column j the idempotent of zeta_j,
    over every point: the real points, the pairs' first points, then their
    conjugates."""
    conj = [[z.conjugate() for z in zeta] for zeta in var.pairs]
    v = np.array([variety._eval_basis(ring, p) for p in var.real + var.pairs + conj]).T
    u = np.column_stack([var.real_idem, var.pair_idem, var.pair_idem.conj()])
    return v, u


# x^2 - 1, y^2 - x - 2: real points only; x^2 + 1, y^2 + 4: pairs only;
# the radical of x^3 - y^2, x^2 - 2x + y^2 and a 3 x 3 grid on
# (y^2 + 2)(y - 1): both kinds
_CONTRACT_RINGS = {
    "real": ("x^2 - 1", "y^2 - x - 2"),
    "pairs": ("x^2 + 1", "y^2 + 4"),
    "mixed": ("x^3 - y^2", "x^2 - 2*x + y^2"),
    "grid": ("x^3 - x", "y^3 - y^2 + 2*y - 2"),
}


class TestVarietyContract:
    """`solve_variety` splits the D points into real points and one point
    per conjugate pair, with real idempotents for the real points."""

    @pytest.fixture(params=sorted(_CONTRACT_RINGS))
    def solved(self, request):
        ring = make_ring(*map(poly, _CONTRACT_RINGS[request.param])).radical_ring
        return ring, variety.solve_variety(ring)

    def test_every_point_counted_once(self, solved):
        ring, var = solved
        assert len(var.real) + 2 * len(var.pairs) == ring.D
        assert var.real_idem.shape == (ring.D, len(var.real))
        assert var.pair_idem.shape == (ring.D, len(var.pairs))

    def test_duality(self, solved):
        ring, var = solved
        v, u = _vandermonde_and_idempotents(ring, var)
        assert np.max(np.abs(v.T @ u - np.eye(ring.D))) < 1e-8

    def test_partition_of_unity(self, solved):
        ring, var = solved
        total = var.real_idem.sum(axis=1) + 2 * var.pair_idem.sum(axis=1).real
        one = np.zeros(ring.D)
        one[0] = 1.0
        assert np.max(np.abs(total - one)) < 1e-8

    def test_real_points_have_real_data(self, solved):
        _, var = solved
        assert np.isrealobj(var.real_idem)
        assert all(isinstance(c, float) for xi in var.real for c in xi)



@pytest.mark.parametrize("seed", range(5))
def test_separation_matches_the_pairwise_loop(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 9)
    r = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    r[n - 1] = r[0] + 1e-13  # one near-repeated point
    expected = min(float(np.max(np.abs(a - b))) for i, a in enumerate(r) for b in r[i + 1:])
    assert variety.separation(r) == expected


# -- the array solver against the loop over the points, bit for bit ----------


def _assert_bit_identical(ring):
    for seed in (0, 7):
        got, ref = variety.solve_variety(ring, seed=seed), reference_solve_variety(ring, seed=seed)
        assert (got.real, got.pairs, got.decision_tol) == (ref.real, ref.pairs, ref.decision_tol)
        assert np.array_equal(got.real_idem, ref.real_idem)
        assert np.array_equal(got.pair_idem, ref.pair_idem)


@pytest.mark.parametrize("name", sorted(_CONTRACT_RINGS))
def test_bit_identical_on_the_contract_rings(name):
    _assert_bit_identical(make_ring(*map(poly, _CONTRACT_RINGS[name])).radical_ring)


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(DATA) if f.endswith(".prob")))
def test_bit_identical_on_the_data_problems(name):
    _assert_bit_identical(quotient.build_ring(load_problem(name).h).radical_ring)


@st.composite
def grid_rings(draw):
    """The ring of one product of distinct linear factors (x - r/2) and at
    most one x^2 + c per variable, in 1-3 variables with D <= 16: real
    points, conjugate pairs or both."""
    names = ["x", "y", "z"][:draw(st.integers(1, 3))]
    gens, D = [], 1
    for name in names:
        cap = min(4, 16 // D)
        c = draw(st.integers(1, 6)) if cap >= 2 and draw(st.booleans()) else None
        roots = draw(st.lists(st.integers(-6, 6), min_size=0 if c else 1,
                              max_size=cap - (2 if c else 0), unique=True))
        x = parse_polynomial(name, names)
        h = Polynomial.constant(1, len(names)) if c is None else x * x + c
        for r in roots:
            h = h * (x - Fraction(r, 2))
        gens.append(h)
        D *= h.degree
    return quotient.build_ring(gens)


@settings(max_examples=40, deadline=None)
@given(grid_rings())
def test_bit_identical_on_grids_and_conjugate_pairs(ring):
    assert ring.D <= 16
    _assert_bit_identical(ring)


def test_the_seeded_coefficients_are_kept_per_seed():
    # the cached coefficients are a tuple, which no caller can change; a
    # solve at another seed in between leaves seed 0's floats as they were
    ring = make_ring(poly("x^2 - 1"), poly("y^2 - x - 2"))
    assert isinstance(variety._combination(0, 2), tuple)
    first = variety.solve_variety(ring, seed=0)
    other = variety.solve_variety(ring, seed=7)
    again = variety.solve_variety(ring, seed=0)
    assert first.real != other.real
    assert first.real == again.real and np.array_equal(first.real_idem, again.real_idem)


class TestPairConjugates:
    def test_an_odd_number_of_complex_points_is_ambiguous(self):
        points = np.array([[1j, 2 + 0j], [2 + 1j, 1j], [-1j, 2 + 0j]])
        with pytest.raises(ClusterAmbiguity, match="unpaired complex point"):
            variety._pair_conjugates(points, np.arange(3))

    def test_each_first_point_takes_its_nearest_conjugate(self):
        # rows 0 and 1 start the two pairs; their conjugates, each off by
        # 1e-12, sit at rows 4 and 2, and row 3 is a real point
        a, b = np.array([1 + 2j, 3j]), np.array([-1 + 1j, 2 - 1j])
        points = np.array([a, b, b.conj() + 1e-12, [0.5, -2], a.conj() - 1e-12j])
        firsts = variety._pair_conjugates(points, np.array([0, 1, 2, 4]))
        assert firsts == [0, 1]
        assert np.array_equal(points[4], a.conj()) and np.array_equal(points[2], b.conj())
        assert np.array_equal(points[:2], [a, b]) and np.array_equal(points[3], [0.5, -2])
