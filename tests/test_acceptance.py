"""End-to-end acceptance suite.

Each test class exercises one advertised guarantee of the toolkit, from
exact verification of externally produced certificates through the
property suites for the exact linear algebra kernels.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from soscert import (certifier, cli, gram, problem_io, quotient, sdp_backend,
                     variety, verify_bounds)
from soscert.errors import ConditionFailed, Infeasible, MaxIterations
from soscert.polyring import Polynomial, evaluate, parse_polynomial

from conftest import (data_path, determinant, fractions, from_rational, load_certificate,
                      load_problem, normal_form, polynomial, radical_roots, rational,
                      reconstruct)


def poly(s, names=("x", "y")):
    return parse_polynomial(s, list(names))


def expand(inst, cert):
    total = Polynomial.zero(inst.nvars)
    for i, block in enumerate(cert.blocks):
        mult = (Polynomial.constant(Fraction(1), inst.nvars) if i == 0
                else inst.g[i - 1])
        for w, q in block:
            total = total + mult * (q * q) * w
    for pj, hj in zip(cert.cofactors, inst.h):
        total = total + pj * hj
    return total


class TestCriterion1TranscribedCertificates:
    """Externally published certificates verify exactly and quickly."""

    @pytest.mark.parametrize("prob,cert", [
        ("four_points.prob", "four_points_strict.cert"),
        ("cusp_circle_shifted.prob", "cusp_circle_shifted.cert"),
        ("cusp_circle.prob", "cusp_circle_x.cert"),
    ])
    def test_exact_and_fast(self, prob, cert):
        start = time.monotonic()
        code = cli.main(["verify", "--input", data_path(prob),
                         "--certificate", data_path(cert)])
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed < 1.0

    def test_zero_tolerance(self, four_points):
        cert = load_certificate("four_points_strict.cert")
        assert (expand(four_points, cert) - four_points.f).is_zero()


class TestCriterion2StrictBothEngines:
    def test_constructive(self, four_points, tmp_path):
        out = tmp_path / "c.cert"
        start = time.monotonic()
        code = cli.main(["certify", "--input", data_path("four_points.prob"),
                         "--mode", "strict", "--out", str(out)])
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed < 5.0
        self._check_degrees(four_points, out)

    def test_sdp(self, four_points, tmp_path):
        out = tmp_path / "s.cert"
        start = time.monotonic()
        code = cli.main(["certify", "--input", data_path("four_points.prob"),
                         "--mode", "strict", "--engine", "sdp",
                         "--out", str(out)])
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed < 30.0
        self._check_degrees(four_points, out)

    @staticmethod
    def _check_degrees(inst, path):
        cert, _ = problem_io.parse_certificate(path.read_text(),
                                               expected_vars=inst.var_names)
        assert (expand(inst, cert) - inst.f).is_zero()
        for pj, hj in zip(cert.cofactors, inst.h):
            if not pj.is_zero():
                assert (pj * hj).degree <= 5


class TestCriterion3NonnegativePipeline:
    def test_witness_and_certificate(self, cusp_circle):
        start = time.monotonic()
        ring = quotient.build_ring(cusp_circle.h)
        f = cusp_circle.f
        a, b, gamma = quotient.coprimality_witness(ring, f, radical_roots(ring))
        # exact defining identity a*f + b = gamma modulo I
        assert normal_form(ring, a * f + b) == Polynomial.constant(gamma, 2)
        # scalar multiple of the known minimal witness
        scale = gamma / 2
        assert a == poly("1 + x") * scale
        assert b == poly("2 - x - x^2") * scale

        cert = certifier.certify_nonneg(cusp_circle)
        assert (expand(cusp_circle, cert) - f).is_zero()
        assert len(cert.witnesses) == len(cert.blocks[0])
        for (w, q), r in zip(cert.blocks[0], cert.witnesses):
            assert normal_form(ring, q - f * r).is_zero()
        assert time.monotonic() - start < 30.0


class TestCriterion4NegativeControl:
    def test_constructive_exit_2(self):
        code = cli.main(["certify", "--input", data_path("double_origin.prob"),
                         "--mode", "nonneg"])
        assert code == 2

    def test_condition_failed_exception(self, double_origin):
        with pytest.raises(ConditionFailed):
            certifier.certify_nonneg(double_origin)

    def test_sdp_infeasible_at_positive_lambda(self, double_origin):
        ring = quotient.build_ring(double_origin.h)
        prob = sdp_backend.SdpProblem(double_origin, ring)
        with pytest.raises((Infeasible, MaxIterations)):
            sdp_backend.solve_feasibility(prob, 0.01)


class TestCriterion5HenselPath:
    def test_double_origin_certificate(self):
        inst = load_problem("double_origin_shifted.prob")
        cert = certifier.certify_strict(inst)
        assert (expand(inst, cert) - inst.f).is_zero()
        # 1 + x = 1/2 * 1^2 + 1/2 * (1 + x)^2 - 1/2 * x^2, where 1 + x is the
        # lifted square root of theta = 1 + 2x modulo x^2
        half = Fraction(1, 2)
        assert cert.blocks[0] == [(half, poly("1", ["x"])), (half, poly("1 + x", ["x"]))]

    def test_chain_property_on_cubed_ideal(self):
        x = parse_polynomial("x", ["x"])
        rad = quotient.groebner([x])
        target = quotient.groebner([parse_polynomial("x^3", ["x"])])
        chain = quotient.ideal_power_chain(rad, target)
        theta = parse_polynomial("1 + x", ["x"])
        t = parse_polynomial("1", ["x"])
        for k, ring_k in enumerate(chain):
            sigma = quotient.inverse_mod(ring_k, t)
            t = normal_form(ring_k, (t + theta * sigma) * Fraction(1, 2))
            assert normal_form(ring_k, t * t - theta).is_zero()

        inst = problem_io.ProblemInstance(
            ["x"], parse_polynomial("2 + x", ["x"]), [],
            [parse_polynomial("x^3", ["x"])])
        cert = certifier.certify_strict(inst)
        assert (expand(inst, cert) - inst.f).is_zero()


class TestCriterion6PropertySuites:
    def test_ldlt_suite(self):
        rng = random.Random(2024)
        for _ in range(200):
            d = rng.randint(1, 10)
            a = [[rng.randint(-8, 8) for _ in range(d)] for _ in range(d)]
            q = [[Fraction(sum(a[k][i] * a[k][j] for k in range(d))
                           + (1 if i == j else 0))
                  for j in range(d)] for i in range(d)]
            squares = gram.ldlt(from_rational(q))
            assert reconstruct(squares) == q
            # the weights are 1 / products of consecutive leading principal minors
            minors = [1] + [determinant([row[:k + 1] for row in q[:k + 1]])
                            for k in range(d)]
            for k, (w, _) in enumerate(squares):
                assert w == 1 / (minors[k + 1] * minors[k])

    def test_projection_suite(self):
        # random Gram-shaped sets: the unknown (0, j) has the column e_j with
        # weight 1 (j = 0) or 2, every other unknown a random sparse column
        rng = random.Random(7)

        class Stub:
            pass

        for _ in range(100):
            d = rng.randint(2, 6)
            stub = Stub()
            stub.D = d
            stub.den = rng.randint(1, 6)
            stub.A = [[((0, j), stub.den * (1 if j == 0 else 2))] for j in range(d)]
            for i in range(1, d):
                for j in range(i, d):
                    for r in rng.sample(range(d), rng.randint(0, 2)):
                        stub.A[r].append(((i, j), rng.randint(-5, 5) or 1))
            stub.b_den = rng.randint(1, 4)
            stub.b = [rng.randint(-9, 9) for _ in range(d)]
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d)]
                    for _ in range(d)]
            start = from_rational(
                [[rows[min(i, j)][max(i, j)] for j in range(d)] for i in range(d)])
            y = gram.project_to_gram(stub, start)
            yr, qr = rational(y), rational(start)
            # exact membership
            for row, bi in zip(stub.A, stub.b):
                assert (sum(Fraction(x, stub.den) * yr[i][j] for (i, j), x in row)
                        == Fraction(bi, stub.b_den))
            # symmetric, and unchanged off row and column 0
            assert all(yr[i][j] == yr[j][i] for i in range(d) for j in range(d))
            assert all(yr[i][j] == qr[i][j] for i in range(1, d) for j in range(1, d))
            # a member of the set comes back unchanged
            assert gram.project_to_gram(stub, y) == y

    def test_idempotent_suite(self):
        rng = random.Random(99)
        names = ["x", "y"]
        done = 0
        while done < 50:
            deg = rng.randint(1, 3)
            roots = rng.sample(range(-6, 7), deg)
            h1 = Polynomial.constant(Fraction(1), 2)
            for r in roots:
                h1 = h1 * (poly("x") - Polynomial.constant(Fraction(r), 2))
            c = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(3)]
            h2 = (poly("y") - (poly("x^2") * c[2] + poly("x") * c[1]
                               + Polynomial.constant(c[0], 2)))
            ring = quotient.monomial_basis(quotient.groebner([h1, h2]))
            assert ring.is_radical
            var = variety.solve_variety(ring)
            # every root is rational, so every point is real
            assert var.pairs == []
            u = var.real_idem
            v = np.array([variety._eval_basis(ring, xi) for xi in var.real]).T
            assert np.max(np.abs(v.T @ u - np.eye(ring.D))) < 1e-8
            one = np.array([float(x) for x in fractions(ring.nf_vector(
                Polynomial.constant(Fraction(1), 2)))])
            assert np.max(np.abs(u.sum(axis=1) - one)) < 1e-8
            done += 1

    def test_binary_cube_suite(self):
        start = time.monotonic()
        rng = random.Random(31337)
        names = ["x1", "x2", "x3"]
        h = [parse_polynomial(f"{v}^2 - {v}", names) for v in names]
        vertices = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        for _ in range(20):
            terms = {}
            for _ in range(rng.randint(1, 8)):
                e = tuple(rng.randint(0, 1) for _ in range(3))
                terms[e] = Fraction(rng.randint(-127, 127))
            f = polynomial(terms, 3)
            low = min(evaluate(f, [Fraction(v) for v in pt]) for pt in vertices)
            f = f - Polynomial.constant(low - 1, 3)  # now f >= 1 on the cube
            inst = problem_io.ProblemInstance(names, f, [], h)
            ring = quotient.build_ring(inst.h)
            # finite convergence order n for the cube without inequalities
            assert verify_bounds.degree_bounds(inst, ring).hierarchy_order == 3
            cert = certifier.certify_strict(inst, ring=ring)
            assert (expand(inst, cert) - f).is_zero()
        assert time.monotonic() - start < 300.0


class TestCriterion7BoundCalculators:
    def test_four_points_degree_bound(self, four_points):
        ring = quotient.build_ring(four_points.h)
        assert verify_bounds.degree_bounds(four_points, ring).cofactor_degree_bound == 5

    def test_binary_cube_linear_g(self):
        names = ["x1", "x2", "x3"]
        inst = problem_io.ProblemInstance(
            names, parse_polynomial("x1 + 1", names),
            [parse_polynomial("x1 - x3", names)],
            [parse_polynomial(f"{v}^2 - {v}", names) for v in names])
        ring = quotient.build_ring(inst.h)
        assert verify_bounds.degree_bounds(inst, ring).hierarchy_order == 4
