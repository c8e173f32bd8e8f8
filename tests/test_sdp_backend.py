import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import load_problem, polynomial, reference_maximize_lambda
from soscert import certifier, problem_io, quotient, sdp_backend, verify_bounds
from soscert.errors import Infeasible, MaxIterations
from soscert.polyring import Polynomial, parse_polynomial


def poly(s, names=("x", "y")):
    return parse_polynomial(s, list(names))


def build(inst):
    return quotient.build_ring(inst.h)


def sdp_certify(inst, ring=None):
    """The SDP engine's certificate, its identity closed as `certifier.certify`
    closes it."""
    if ring is None:
        ring = build(inst)
    return certifier._assemble(ring, *sdp_backend.algorithm1_certify(inst, ring))


def _parse(lines):
    return problem_io.parse_problem("variables x y\n" + "\n".join(lines) + "\n")


KNOWN_ANSWERS = [
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
]

# lam* ~ 2.7e-7 with one g: the solve breaks down at iteration 17
BREAKDOWN = ["f: -2*x - 2*y + 1/4096", "g: -3*x - y - 2",
             "h: x^2 + 2*x - 3", "h: y^3 - 2*y^2 - 3*y"]


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
        inst = problem_io.ProblemInstance(
            ["x"], parse_polynomial("x^5 + 3", ["x"]), [],
            [parse_polynomial("x^2 - 1", ["x"])])
        prob = sdp_backend.SdpProblem(inst, build(inst))
        assert prob.block_sizes == [2]
        assert list(prob.b) == [3.0, 1.0]

    def test_single_block(self):
        inst = problem_io.ProblemInstance(
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
                        e = tuple(map(sum, zip(bp, bt)))
                        square = square + polynomial({e: Fraction(q[p, t])}, 2)
                total = total + mult * square
            ints, den = ring.nf_vector(total)
            expected = np.array([x / den for x in ints])
            assert np.allclose(prob.A @ prob.pack(blocks), expected, atol=1e-12)

    def test_not_graded_certified(self):
        # x^2 is in (x - y^2, y^3) but admits no degree-2 cofactor
        # representation, so this generating set is not graded; the
        # cofactors come from exact reduction, which does not need it
        inst = problem_io.ProblemInstance(
            ["x", "y"], poly("x + 1"), [],
            [poly("x - y^2"), poly("y^3")])
        ring = build(inst)
        assert not ring.ideal.is_graded
        cert = sdp_certify(inst, ring)
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
        inst = problem_io.ProblemInstance(
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


def _outcome(solve, prob):
    """Everything a solve returns, blocks as bytes, or its exception."""
    try:
        r = solve(prob)
    except (Infeasible, MaxIterations) as exc:
        return type(exc).__name__, str(exc)
    return ("ok", r.lam, r.bound, r.residual, r.iterations,
            [(q.shape, q.tobytes()) for q in r.blocks])


RANDOM_GRIDS = 40


def _random_grid(seed):
    """A grid ideal with 2 or 3 integer roots per variable, one or two
    random linear g on the 3 x 3 grids (so two or three blocks) and a
    random linear f whose minimum over S is a margin from 1 down to 2^-20,
    or -1."""
    rng = random.Random(seed)
    x, y = poly("x"), poly("y")
    one = Polynomial.constant(1, 2)
    kx, ky = rng.choice([(2, 2), (2, 3), (3, 3), (3, 3)])
    rx, ry = sorted(rng.sample(range(-3, 4), kx)), sorted(rng.sample(range(-3, 4), ky))
    h = [math.prod((x - r for r in rx), start=one), math.prod((y - r for r in ry), start=one)]
    points = list(itertools.product(rx, ry))
    g = []
    for _ in range(rng.choice([1, 1, 2]) if (kx, ky) == (3, 3) else 0):
        # nonzero on the grid, and S keeps a point and loses one
        while True:
            c = [rng.randint(-3, 3) for _ in range(3)]
            vals = [c[0] * px + c[1] * py + c[2] for px, py in points]
            if all(vals) and min(vals) < 0 < max(vals):
                break
        g.append(x * c[0] + y * c[1] + c[2])
        points = [pt for pt, v in zip(points, vals) if v > 0]
    u, v = rng.randint(-3, 3), rng.randint(-3, 3)
    margin = rng.choice([Fraction(1), Fraction(1, 2 ** 4), Fraction(1, 2 ** 10),
                         Fraction(1, 2 ** 16), Fraction(1, 2 ** 20), Fraction(-1)])
    low = min(u * px + v * py for px, py in points)
    return problem_io.ProblemInstance(["x", "y"], x * u + y * v + (margin - low), g, h)


def _reference_cases():
    return ([pytest.param(load_problem("four_points.prob"), id="four_points")]
            + [pytest.param(_parse(lines), id=f"known{i}") for i, lines in enumerate(KNOWN_ANSWERS)]
            + [pytest.param(_parse(BREAKDOWN), id="breakdown")]
            + [pytest.param(_random_grid(seed), id=f"grid{seed}") for seed in range(RANDOM_GRIDS)])


class TestStackedIteration:
    """The stacked solve against the per-block loop it replaced."""

    @pytest.mark.parametrize("inst", _reference_cases())
    def test_matches_the_per_block_loop(self, inst):
        prob = sdp_backend.SdpProblem(inst, build(inst))
        assert _outcome(sdp_backend.maximize_lambda, prob) == \
            _outcome(reference_maximize_lambda, prob)

    def test_random_grids_reach_every_outcome(self):
        # the draws above exercise success, a dual proof of lam* <= 0 and
        # a float breakdown on one, two and three blocks; with three, the
        # order of the sums over blocks shows in the bits
        seen = set()
        for seed in range(RANDOM_GRIDS):
            inst = _random_grid(seed)
            prob = sdp_backend.SdpProblem(inst, build(inst))
            seen.add((_outcome(sdp_backend.maximize_lambda, prob)[0], len(prob.block_sizes)))
        assert {(kind, k) for kind in ("ok", "Infeasible", "MaxIterations")
                for k in (1, 2, 3)} <= seen

    def test_iterations_counts_the_steps(self, four_points_prob):
        prob, _ = four_points_prob
        result = sdp_backend.maximize_lambda(prob)
        assert result.iterations > 0
        # one step fewer than it took is too few
        with pytest.raises(MaxIterations):
            sdp_backend.maximize_lambda(prob, iterations=result.iterations)
        again = sdp_backend.maximize_lambda(prob, iterations=result.iterations + 1)
        assert again.iterations == result.iterations


class TestAlgorithm1:
    def test_four_points_exact(self, four_points):
        ring = build(four_points)
        cert = sdp_certify(four_points, ring)
        report = verify_bounds.verify_certificate(four_points, cert, ring)
        assert report.identity_ok and report.weights_ok

    def test_constant_one(self):
        inst = problem_io.ProblemInstance(
            ["x"], parse_polynomial("1", ["x"]), [],
            [parse_polynomial("x^2 - 1", ["x"])])
        ring = build(inst)
        cert = sdp_certify(inst, ring)
        report = verify_bounds.verify_certificate(inst, cert, ring)
        assert report.identity_ok

    def test_negative_control(self, double_origin):
        ring = build(double_origin)
        with pytest.raises((Infeasible, MaxIterations)):
            sdp_backend.algorithm1_certify(double_origin, ring)

    @pytest.mark.parametrize("lines", KNOWN_ANSWERS)
    def test_known_answers(self, lines):
        inst = _parse(lines)
        ring = build(inst)
        cert = sdp_certify(inst, ring)
        assert verify_bounds.verify_certificate(inst, cert, ring).ok

    def test_zero_minimum_is_infeasible(self):
        # f = 0 at (1, 1): lam* = 0, proved from the dual as the gap closes
        inst = problem_io.parse_problem(
            "variables x y\nf: -x - y + 2\nh: x^2 - x\nh: y^2 - y\n")
        with pytest.raises(Infeasible, match="at most"):
            sdp_backend.algorithm1_certify(inst, build(inst))

    def test_binary_cube_3(self):
        # D = 8; f > 0 where g >= 0 (x1 = 0), f = -2 at (1, 1, 0)
        names = ["x1", "x2", "x3"]
        inst = problem_io.ProblemInstance(
            names, parse_polynomial("2 - 3*x1 - x2 + x3", names),
            [parse_polynomial("1 - 2*x1", names)],
            [parse_polynomial(f"{v}^2 - {v}", names) for v in names])
        start = time.monotonic()
        cert = sdp_certify(inst)
        assert time.monotonic() - start < 5.0
        report = verify_bounds.verify_certificate(inst, cert)
        assert report.ok and report.identity_ok
