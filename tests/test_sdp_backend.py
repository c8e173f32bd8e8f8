import numpy as np
import pytest

from soscert import certifier, sdp_backend, verify_bounds
from soscert.errors import Infeasible, MaxIterations, NotGraded
from soscert.polyring import parse_polynomial


def poly(s, names=("x", "y")):
    return parse_polynomial(s, list(names))


def build(inst):
    return certifier.build_ring(inst)


@pytest.fixture
def four_points_prob(four_points):
    ring = build(four_points)
    return sdp_backend.SdpProblem(four_points, ring, [2, 2]), ring


class TestFormulate:
    def test_block_sizes_and_caps(self, four_points_prob):
        prob, _ = four_points_prob
        assert prob.block_sizes == [6, 6]       # monomials of degree <= 2
        assert prob.cof_sizes == [10, 10]       # cofactor degree caps of 3
        assert prob.degree == 5

    def test_minimum_degree_enforced(self, four_points):
        ring = build(four_points)
        with pytest.raises(ValueError):
            sdp_backend.SdpProblem(four_points, ring, [1, 2])

    def test_single_block(self):
        inst = certifier.ProblemInstance(
            ["x"], parse_polynomial("x + 3", ["x"]), [],
            [parse_polynomial("x^2 - 1", ["x"])])
        prob = sdp_backend.SdpProblem(inst, build(inst), [1])
        assert prob.block_sizes == [2]

    def test_not_graded_rejected(self):
        # x^2 is in (x - y^2, y^3) but admits no degree-2 cofactor
        # representation, so this generating set is not graded
        inst = certifier.ProblemInstance(
            ["x", "y"], poly("x + 1"), [],
            [poly("x - y^2"), poly("y^3")])
        ring = build(inst)
        assert not ring.ideal.is_graded
        with pytest.raises(NotGraded):
            sdp_backend.SdpProblem(inst, ring, [2])


class TestSolver:
    def test_feasible_at_small_lambda(self, four_points_prob):
        prob, _ = four_points_prob
        result = sdp_backend.solve_feasibility(prob, 0.05)
        assert result.residual < 1e-8
        # independent residual recomputation agrees
        assert prob.residual(result.blocks, result.cofactors) < 1e-7
        # cone feasibility with the shift
        w = np.linalg.eigvalsh((result.blocks[0] + result.blocks[0].T) / 2)
        assert w.min() > 0.05 - 1e-6

    def test_negative_constant_infeasible(self):
        inst = certifier.ProblemInstance(
            ["x"], parse_polynomial("-1", ["x"]), [],
            [parse_polynomial("x^2 - 1", ["x"])])
        prob = sdp_backend.SdpProblem(inst, build(inst), [1])
        with pytest.raises((Infeasible, MaxIterations)):
            sdp_backend.solve_feasibility(prob, 0.0)

    def test_lambda_monotone(self, four_points_prob):
        prob, _ = four_points_prob
        best = sdp_backend.maximize_lambda(prob)
        assert best.lam > 0
        # any probe below the found optimum stays feasible
        lower = sdp_backend.solve_feasibility(prob, best.lam / 2)
        assert lower.residual < 1e-8


class TestAlgorithm1:
    def test_four_points_exact(self, four_points):
        ring = build(four_points)
        cert = sdp_backend.algorithm1_certify(four_points, ring, 2)
        report = verify_bounds.verify_certificate(four_points, cert, ring)
        assert report.identity_ok and report.weights_ok

    def test_constant_one(self):
        inst = certifier.ProblemInstance(
            ["x"], parse_polynomial("1", ["x"]), [],
            [parse_polynomial("x^2 - 1", ["x"])])
        ring = build(inst)
        cert = sdp_backend.algorithm1_certify(inst, ring, 1)
        report = verify_bounds.verify_certificate(inst, cert, ring)
        assert report.identity_ok

    def test_negative_control(self, double_origin):
        ring = build(double_origin)
        with pytest.raises((Infeasible, MaxIterations)):
            sdp_backend.algorithm1_certify(double_origin, ring, 2)


class TestBridge:
    def test_dump_and_read_round_trip(self, four_points_prob, tmp_path):
        prob, _ = four_points_prob
        path = tmp_path / "prob.sdp"
        sdp_backend.write_problem(prob, path)
        text = path.read_text()
        assert text.startswith("blocks 6 6")

        result = sdp_backend.solve_feasibility(prob, 0.05)
        out = tmp_path / "result.txt"
        lines = [f"lambda {result.lam}"]
        for i, q in enumerate(result.blocks):
            lines.append(f"block {i}")
            for row in q:
                lines.append(" ".join(repr(float(v)) for v in row))
        for j, vec in enumerate(result.cofactors):
            lines.append(f"cofactor {j}")
            lines.append(" ".join(repr(float(v)) for v in vec))
        out.write_text("\n".join(lines) + "\n")
        back = sdp_backend.read_result(out, prob)
        assert back.lam == result.lam
        assert back.residual < 1e-7
        for a, b in zip(back.blocks, result.blocks):
            assert np.max(np.abs(a - b)) == 0
