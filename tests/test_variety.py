import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from soscert import quotient, variety
from soscert.errors import BoundaryAmbiguity, SingularVandermonde
from soscert.polyring import Polynomial, evaluate, parse_polynomial


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
