import math
import warnings

import numpy as np
import pytest

from soscert import quotient, variety
from soscert.errors import BoundaryAmbiguity, SingularVandermonde
from soscert.polyring import evaluate, parse_polynomial


def poly(s, names=("x", "y")):
    return parse_polynomial(s, list(names))


def make_ring(*gens):
    return quotient.monomial_basis(quotient.groebner(list(gens)))


@pytest.fixture
def four_points_var():
    ring = make_ring(poly("x^2 - 1"), poly("y^2 - x - 2"))
    return variety.solve_variety(ring)


class TestSolveVariety:
    def test_four_real_points(self, four_points_var):
        var = four_points_var
        assert len(var.points) == 4
        assert all(p.kind == "real" for p in var.points)
        expected = {(1.0, math.sqrt(3)), (1.0, -math.sqrt(3)),
                    (-1.0, 1.0), (-1.0, -1.0)}
        got = {(round(p.coordinates[0].real, 6), round(p.coordinates[1].real, 6))
               for p in var.points}
        assert got == {(round(a, 6), round(b, 6)) for a, b in expected}

    def test_residuals_small(self, four_points_var):
        var = four_points_var
        for g in var.ring.ideal.generators:
            for p in var.points:
                assert abs(evaluate(g, p.coordinates)) < 1e-8

    def test_multiplicity_and_conjugates(self):
        # origin is a double point; one conjugate pair lies off the reals.
        # The radical ring keeps the five points, each simple.
        ring = make_ring(poly("x^3 - y^2"), poly("x^2 - 2*x + y^2"))
        assert ring.D == 6 and not ring.is_radical
        var = variety.solve_variety(ring.radical_ring)
        assert len(var.points) == 5
        complex_pts = [p for p in var.points if p.kind == "complex"]
        assert len(complex_pts) == 2
        a, b = complex_pts
        assert a.coordinates == [z.conjugate() for z in b.coordinates]
        reals = sorted((round(p.coordinates[0].real, 9), round(p.coordinates[1].real, 9))
                       for p in var.points if p.kind == "real")
        assert reals == [(0.0, 0.0), (1.0, -1.0), (1.0, 1.0)]

    def test_deterministic_under_seed(self):
        ring = make_ring(poly("x^2 - 1"), poly("y^2 - x - 2"))
        v1 = variety.solve_variety(ring, seed=7)
        v2 = variety.solve_variety(ring, seed=7)
        c1 = [p.coordinates for p in v1.points]
        c2 = [p.coordinates for p in v2.points]
        assert c1 == c2

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
    def test_duality(self, four_points_var):
        var = four_points_var
        ring = var.ring
        v = np.array([variety._eval_basis(ring, p.coordinates)
                      for p in var.points]).T
        assert np.max(np.abs(v.T @ var.idempotents - np.eye(ring.D))) < 1e-8

    def test_partition_of_unity(self, four_points_var):
        var = four_points_var
        total = var.idempotents.sum(axis=1)
        one = np.zeros(var.ring.D)
        one[var.ring.basis.index(var.ring.basis[0])] = 1.0
        assert np.max(np.abs(total - one)) < 1e-8

    def test_undefined_for_multiple_points(self):
        # with y^2 + 1, the double root 0 of x^3 - x^2 splits into eigenvalues
        # about 2e-8 apart, a Vandermonde condition number near 1e8: only the
        # exact radical test refuses that ring
        for gens in (("x^3 - y^2", "x^2 - 2*x + y^2"), ("x^3 - x^2", "y^2 + 1")):
            ring = make_ring(*map(poly, gens))
            with pytest.raises(SingularVandermonde, match="not radical"):
                variety.solve_variety(ring)


class TestMembership:
    def test_partition(self, four_points_var):
        member = variety.membership(four_points_var, [poly("y")])
        assert len(member.s_indices) == 2
        assert len(member.excluded) == 2
        assert member.complex_indices == []
        for idx, gi in member.excluded:
            assert gi == 0
            assert four_points_var.points[idx].coordinates[1].real < 0

    def test_no_constraints_keeps_all(self, four_points_var):
        member = variety.membership(four_points_var, [])
        assert len(member.s_indices) == 4

    def test_boundary_warning(self, four_points_var):
        # x - 1 vanishes at two of the points
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            variety.membership(four_points_var, [poly("x - 1")])
        assert any(issubclass(w.category, BoundaryAmbiguity) for w in caught)



@pytest.mark.parametrize("seed", range(5))
def test_separation_matches_the_pairwise_loop(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 9)
    r = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    r[n - 1] = r[0] + 1e-13  # one near-repeated point
    expected = min(float(np.max(np.abs(a - b))) for i, a in enumerate(r) for b in r[i + 1:])
    assert variety.separation(r) == expected
