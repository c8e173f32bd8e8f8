import time
from fractions import Fraction

import numpy as np
import pytest

from soscert import certifier, problem_io, sdp_backend, verify_bounds
from soscert.errors import Infeasible, MaxIterations
from soscert.polyring import Polynomial, parse_polynomial


def poly(s, names=("x", "y")):
    return parse_polynomial(s, list(names))


def build(inst):
    return certifier.build_ring(inst)


@pytest.fixture
def four_points_prob(four_points):
    ring = build(four_points)
    return sdp_backend.SdpProblem(four_points, ring), ring


class TestFormulate:
    def test_block_sizes(self, four_points_prob):
        prob, ring = four_points_prob
        assert prob.block_sizes == [4, 4]       # one D x D block per multiplier
        assert prob.nrows == 4                  # one equation per element of B
        assert prob.nvars_total == 32
        assert prob.A.shape == (4, 32)

    def test_degree_fixed_by_the_basis(self):
        # deg f = 5 > 2 deg B: the blocks stay over B, and the right-hand
        # side is NF(f) = x + 3
        inst = certifier.ProblemInstance(
            ["x"], parse_polynomial("x^5 + 3", ["x"]), [],
            [parse_polynomial("x^2 - 1", ["x"])])
        prob = sdp_backend.SdpProblem(inst, build(inst))
        assert prob.block_sizes == [2]
        assert list(prob.b) == [3.0, 1.0]

    def test_single_block(self):
        inst = certifier.ProblemInstance(
            ["x"], parse_polynomial("x + 3", ["x"]), [],
            [parse_polynomial("x^2 - 1", ["x"])])
        prob = sdp_backend.SdpProblem(inst, build(inst))
        assert prob.block_sizes == [2]

    def test_columns_are_normal_forms_of_the_blocks(self, four_points_prob):
        # A vec(Q) = NF(sum_i m_i b Q_i b^t) over B, the right side built
        # exactly from the float entries and reduced independently of A
        prob, ring = four_points_prob
        inst = prob.inst
        rng = np.random.default_rng(7)
        mults = [Polynomial.constant(1, 2)] + inst.g
        for _ in range(5):
            blocks = []
            total = Polynomial.zero(2)
            for mult in mults:
                raw = rng.standard_normal((ring.D, ring.D))
                q = (raw + raw.T) / 2
                blocks.append(q)
                square = Polynomial.zero(2)
                for p, bp in enumerate(ring.basis):
                    for t, bt in enumerate(ring.basis):
                        square = square + Polynomial({bp * bt: Fraction(q[p, t])}, 2)
                total = total + mult * square
            ints, den = ring.nf_vector(total)
            expected = np.array([x / den for x in ints])
            assert np.allclose(prob.A @ prob.pack(blocks), expected, atol=1e-12)

    def test_not_graded_certified(self):
        # x^2 is in (x - y^2, y^3) but admits no degree-2 cofactor
        # representation, so this generating set is not graded; the
        # cofactors come from exact reduction, which does not need it
        inst = certifier.ProblemInstance(
            ["x", "y"], poly("x + 1"), [],
            [poly("x - y^2"), poly("y^3")])
        ring = build(inst)
        assert not ring.ideal.is_graded
        cert = sdp_backend.algorithm1_certify(inst, ring)
        assert verify_bounds.verify_certificate(inst, cert, ring).ok


class TestSolver:
    def test_feasible_at_small_lambda(self, four_points_prob):
        prob, _ = four_points_prob
        result = sdp_backend.solve_feasibility(prob, 0.05)
        assert result.residual < 1e-8
        # independent residual recomputation agrees
        assert prob.residual(result.blocks) < 1e-7
        # cone feasibility with the shift
        w = np.linalg.eigvalsh((result.blocks[0] + result.blocks[0].T) / 2)
        assert w.min() > 0.05 - 1e-6

    def test_negative_constant_infeasible(self):
        inst = certifier.ProblemInstance(
            ["x"], parse_polynomial("-1", ["x"]), [],
            [parse_polynomial("x^2 - 1", ["x"])])
        prob = sdp_backend.SdpProblem(inst, build(inst))
        with pytest.raises((Infeasible, MaxIterations)):
            sdp_backend.solve_feasibility(prob, 0.0)

    def test_lambda_monotone(self, four_points_prob):
        prob, _ = four_points_prob
        best = sdp_backend.maximize_lambda(prob)
        assert best.lam > 0
        assert prob.residual(best.blocks) <= 1e-3 * best.lam
        assert np.linalg.eigvalsh(best.blocks[0]).min() >= best.lam - 1e-6
        # weak duality brackets the optimum: lam <= lam* <= b^t y <= 1.5 lam
        assert best.lam <= best.bound <= 1.5 * best.lam
        # the independent Dykstra reference is feasible below the optimum
        lower = sdp_backend.solve_feasibility(prob, best.lam / 2)
        assert lower.residual < 1e-8

    def test_iteration_limit_names_its_residuals(self, four_points_prob):
        prob, _ = four_points_prob
        with pytest.raises(MaxIterations, match=r"2 iterations, primal residual .*dual residual"):
            sdp_backend.maximize_lambda(prob, iterations=2)


class TestAlgorithm1:
    def test_four_points_exact(self, four_points):
        ring = build(four_points)
        cert = sdp_backend.algorithm1_certify(four_points, ring)
        report = verify_bounds.verify_certificate(four_points, cert, ring)
        assert report.identity_ok and report.weights_ok

    def test_constant_one(self):
        inst = certifier.ProblemInstance(
            ["x"], parse_polynomial("1", ["x"]), [],
            [parse_polynomial("x^2 - 1", ["x"])])
        ring = build(inst)
        cert = sdp_backend.algorithm1_certify(inst, ring)
        report = verify_bounds.verify_certificate(inst, cert, ring)
        assert report.identity_ok

    def test_negative_control(self, double_origin):
        ring = build(double_origin)
        with pytest.raises((Infeasible, MaxIterations)):
            sdp_backend.algorithm1_certify(double_origin, ring)

    @pytest.mark.parametrize("lines", [
        # a conjugate pair of roots in x: the dual has no interior
        ["f: x - 2*y + 7", "h: x^4 - x^2 - 12", "h: y^3 - 4*y"],
        # six real points, lam* ~ 3e-4
        ["f: -x^2 + 2*x*y - y^2 + 145/4", "h: x^2 - 9", "h: y^3 - 3*y^2 - 4*y + 12"],
        # g < 0 at points of V, so the dual has no interior either
        ["f: -2*x + 2*y + 5/2", "g: 3*x - y - 1", "h: x^2 - x", "h: y^2 - y"],
        # lam* ~ 9e-7 on a 3 x 3 grid: the primal residual must fall below
        # 1e-3 lam* before M breaks down, which takes the refined Newton step
        ["f: -2*x + y + 28673/4096", "h: x^3 - 5*x^2 + 6*x", "h: y^3 - 4*y^2 + y + 6"],
        # no real point: lam is unbounded (sum of b_p^2 is in I for x^2 + 1)
        ["f: x - 5", "h: x^2 + 1", "h: y^2 - 1"],
        ["f: x - 5", "h: x^4 + 5*x^2 + 4", "h: y - 1"],
    ])
    def test_known_answers(self, lines):
        inst = problem_io.parse_problem("variables x y\n" + "\n".join(lines) + "\n")
        ring = build(inst)
        cert = sdp_backend.algorithm1_certify(inst, ring)
        assert verify_bounds.verify_certificate(inst, cert, ring).ok

    def test_zero_minimum_is_infeasible(self):
        # f = 0 at (1, 1): lam* = 0, proved from the dual as the gap closes
        inst = problem_io.parse_problem(
            "variables x y\nf: -x - y + 2\nh: x^2 - x\nh: y^2 - y\n")
        with pytest.raises(Infeasible, match="at most"):
            sdp_backend.algorithm1_certify(inst)

    def test_binary_cube_3(self):
        # D = 8; f > 0 where g >= 0 (x1 = 0), f = -2 at (1, 1, 0)
        names = ["x1", "x2", "x3"]
        inst = certifier.ProblemInstance(
            names, parse_polynomial("2 - 3*x1 - x2 + x3", names),
            [parse_polynomial("1 - 2*x1", names)],
            [parse_polynomial(f"{v}^2 - {v}", names) for v in names])
        start = time.monotonic()
        cert = sdp_backend.algorithm1_certify(inst)
        assert time.monotonic() - start < 5.0
        report = verify_bounds.verify_certificate(inst, cert)
        assert report.ok and report.identity_ok
