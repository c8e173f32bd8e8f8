import functools
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soscert import certifier, cli, gram, problem_io, quotient, variety, verify_bounds
from soscert.errors import (ClusterAmbiguity, ConditionFailed, NotPD,
                            NotStrictlyPositiveOnS)
from soscert.polyring import Polynomial, evaluate, parse_polynomial

from conftest import (data_path, format_problem, load_problem, normal_form, polynomial,
                      radical_roots)


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


class TestStrict:
    def test_univariate_two_points(self):
        inst = problem_io.ProblemInstance(
            ["x"], parse_polynomial("x + 3", ["x"]), [],
            [parse_polynomial("x^2 - 1", ["x"])])
        cert = certifier.certify_strict(inst)
        assert expand(inst, cert) == inst.f
        assert all(w > 0 for w, _ in cert.blocks[0])

    def test_four_points_with_inequality(self, four_points):
        cert = certifier.certify_strict(four_points)
        assert expand(four_points, cert) == four_points.f
        # graded degree bound from the quotient basis of degree 2
        for pj, hj in zip(cert.cofactors, four_points.h):
            if not pj.is_zero():
                assert (pj * hj).degree <= 5

    def test_not_positive_raises(self, four_points):
        bad = problem_io.ProblemInstance(
            four_points.var_names, poly("-x - y - 10"), four_points.g,
            four_points.h)
        with pytest.raises(NotStrictlyPositiveOnS):
            certifier.certify_strict(bad)

    def test_deterministic(self, four_points):
        c1 = certifier.certify(four_points)
        c2 = certifier.certify(four_points)
        names = four_points.var_names
        assert (problem_io.format_certificate(c1, names)
                == problem_io.format_certificate(c2, names))


def _ring(gens):
    return quotient.monomial_basis(quotient.groebner(gens))


def _chain_sqrt(ring, j, theta, t):
    """Reference lift up the quotients by J^2, J^4, ... of the radical J of
    ring = R/I, with an exact inverse solve at every level, reduced modulo I
    at the end."""
    chain = quotient.ideal_power_chain(quotient.groebner(j), ring.ideal)
    for ring_k in chain:
        sigma = quotient.inverse_mod(ring_k, t)
        t = normal_form(ring_k, (t + theta * sigma) * Fraction(1, 2))
    return chain, normal_form(ring, t)


@functools.cache
def _cliff_ideals():
    x, y = (parse_polynomial(v, ["x", "y"]) for v in ("x", "y"))
    j = [x * (x - 1), y * (y - 2)]
    i = [x * j[0], y * j[1]]
    return j, i, _ring(i)


class TestHensel:
    def test_double_origin_lift(self):
        inst = problem_io.ProblemInstance(
            ["x"], parse_polynomial("1 + x", ["x"]), [],
            [parse_polynomial("x^2", ["x"])])
        cert = certifier.certify_strict(inst)
        assert expand(inst, cert) == inst.f
        # eps = 1/2 below f(0) = 1: 1/2 = 1/2 * 1^2 modulo x, and the square
        # root of theta = 1 + 2x modulo x^2 is 1 + x
        half, one = Fraction(1, 2), Polynomial.constant(1, 1)
        assert cert.blocks[0] == [(half, one), (half, parse_polynomial("1 + x", ["x"]))]
        assert cert.cofactors == [Polynomial.constant(-half, 1)]

    def test_triple_origin_lift(self):
        inst = problem_io.ProblemInstance(
            ["x"], parse_polynomial("2 + x", ["x"]), [],
            [parse_polynomial("x^3", ["x"])])
        cert = certifier.certify_strict(inst)
        assert expand(inst, cert) == inst.f

    def test_hensel_sqrt_chain_property(self):
        x = parse_polynomial("x", ["x"])
        ring = _ring([parse_polynomial("x^3", ["x"])])
        theta = parse_polynomial("1 + x", ["x"])
        t = certifier.hensel_sqrt(ring, theta)
        # the lift in R/I is the chain's lift reduced modulo I
        chain, t_ref = _chain_sqrt(ring, [x], theta, parse_polynomial("1", ["x"]))
        assert len(chain) == 2
        assert t == t_ref
        assert normal_form(ring, t * t - theta).is_zero()

    def test_series_needs_every_power_below_d(self):
        # theta = 1 + x on (x^4): n = x has n^3 != 0, so the series
        # sum_k C(1/2, k) x^k runs to its D-th term
        x = parse_polynomial("x", ["x"])
        ring = _ring([parse_polynomial("x^4", ["x"])])
        theta = parse_polynomial("1 + x", ["x"])
        t = certifier.hensel_sqrt(ring, theta)
        assert t == parse_polynomial("1 + 1/2*x - 1/8*x^2 + 1/16*x^3", ["x"])
        assert t == _chain_sqrt(ring, [x], theta, parse_polynomial("1", ["x"]))[1]

    def test_cofactors_only_for_the_original_ideal(self):
        # (x - 1)^2 (x - 2), (y - 3)^2: the radical is only reduced
        # against, never expressed in its generators.  Both Gröbner
        # elements of I are its generators, so its rows take no solve.
        xy = ["x", "y"]
        inst = problem_io.ProblemInstance(
            xy, parse_polynomial("x + y + 1", xy), [],
            [parse_polynomial("x^3 - 4*x^2 + 5*x - 2", xy), parse_polynomial("y^2 - 6*y + 9", xy)])
        ring = quotient.build_ring(inst.h)
        cert = certifier.certify_strict(inst, ring=ring)
        assert expand(inst, cert) == inst.f
        assert ring.radical_ring is not ring
        assert "gb_cofactors" in vars(ring.ideal)
        assert "gb_cofactors" not in vars(ring.radical_ring.ideal)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(-2, 2), min_size=6, max_size=6))
    def test_newton_inverse_matches_a_solve_per_level(self, r_coeffs):
        # theta = 1 + r1 x (x - 1) + r2 y (y - 2) is 1 modulo the radical
        # of (x^2 (x - 1), y^2 (y - 2))
        xy = ["x", "y"]
        one, x, y = (parse_polynomial(v, xy) for v in ("1", "x", "y"))
        r1 = sum((c * m for c, m in zip(r_coeffs[:3], (one, x, y))), one * 0)
        r2 = sum((c * m for c, m in zip(r_coeffs[3:], (one, x, y))), one * 0)
        theta = one + r1 * x * (x - 1) + r2 * y * (y - 2)
        j, i, ring = _cliff_ideals()
        chain, t = _chain_sqrt(ring, j, theta, one)
        assert len(chain) == 2  # J^2, J^4
        assert certifier.hensel_sqrt(ring, theta) == t

    def test_only_the_ideal_and_its_radical_get_groebner_bases(self, monkeypatch):
        j, i, _ = _cliff_ideals()
        calls = []
        groebner = quotient.groebner
        monkeypatch.setattr(quotient, "groebner", lambda gens: calls.append(gens) or groebner(gens))
        xy = ["x", "y"]
        inst = problem_io.ProblemInstance(xy, parse_polynomial("x + y + 1", xy), [], i)
        cert = certifier.certify_strict(inst)
        assert expand(inst, cert) == inst.f
        assert len(calls) == 2 and calls[0] == i
        assert groebner(calls[1]).gb == groebner(j).gb

    def test_radical_input_certified_by_the_lift(self):
        inst = problem_io.ProblemInstance(
            ["x"], parse_polynomial("x + 3", ["x"]), [],
            [parse_polynomial("x^2 - 1", ["x"])])
        cert = certifier.certify_strict_nonradical(inst)
        assert expand(inst, cert) == inst.f


def _certify_and_verify(tmp, text):
    """Run `soscert certify` then `verify` on a problem text; returns the
    exit codes and the parsed certificate."""
    prob, out = os.path.join(tmp, "p.prob"), os.path.join(tmp, "p.cert")
    with open(prob, "w") as fh:
        fh.write(text)
    code = cli.main(["certify", "--input", prob, "--out", out])
    with open(out) as fh:
        cert = problem_io.parse_certificate(fh.read())[0]
    return code, cli.main(["verify", "--input", prob, "--certificate", out]), cert


def _lifted_square_is_one_mod_radical(text, cert):
    ring = quotient.build_ring(problem_io.parse_problem(text).h)
    assert not ring.is_radical
    _, t = cert.blocks[0][-1]
    return normal_form(ring.radical_ring, t - 1).is_zero()


class TestConstantSquareLift:
    """The Hensel route certifies f~ - eps over the radical J with the
    radical route's Gram construction and lifts the square root of
    theta = 1 mod J; its last square is 1 modulo J."""

    @pytest.mark.parametrize("text", [
        # V(J) = {i, -i}: no real point, so eps = 1
        "variables x\nf: x + 5\nh: x^4 + 2*x^2 + 1\n",
        # a double point in x times a conjugate pair in y, with a g
        "variables x y\nf: x - 2\ng: x\nh: x^3 - x^2\nh: y^2 + 1\n",
    ])
    def test_complex_points(self, tmp_path, text):
        code, verified, cert = _certify_and_verify(str(tmp_path), text)
        assert (code, verified) == (0, 0)
        assert cert.blocks[0][-1][0] == 1
        assert _lifted_square_is_one_mod_radical(text, cert)

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=4, max_size=4, unique=True),
           st.integers(2, 3), st.integers(1, 3), st.integers(-2, 2), st.integers(-2, 2),
           st.integers(1, 4))
    def test_random_products(self, roots, k, m, u, v, margin):
        # (x - a)^k (x - b), (y - c)^m (y - d) with f = u x + v y + w, whose
        # minimum over the four points is the margin
        a, b, c, d = roots
        xy = ["x", "y"]
        x, y = poly("x"), poly("y")
        w = margin - min(u * px + v * py for px in (a, b) for py in (c, d))
        inst = problem_io.ProblemInstance(
            xy, x * u + y * v + w, [], [(x - a) ** k * (x - b), (y - c) ** m * (y - d)])
        text = format_problem(inst)
        with tempfile.TemporaryDirectory() as tmp:
            code, verified, cert = _certify_and_verify(tmp, text)
        assert (code, verified) == (0, 0)
        assert _lifted_square_is_one_mod_radical(text, cert)

    def test_cliff_height(self):
        # x^2 (x - 1), y^2 (y - 2): lifting a non-constant square from R/J
        # gives thousands of bits here
        xy = ["x", "y"]
        _, i, ring = _cliff_ideals()
        inst = problem_io.ProblemInstance(xy, parse_polynomial("x + y + 1", xy), [], i)
        report = verify_bounds.verify_certificate(inst, certifier.certify(inst, ring), ring)
        assert report.ok
        assert max(report.max_numerator_bits, report.max_denominator_bits) <= 256

    @pytest.mark.parametrize("f, h, bits", [
        # rounding a near-integer Gram entry down would leave 2^-32 off row 0
        ("x - 3*y + 7", ["x^3 - x^2", "y^2 - 4*y + 4"], 16),
        # the cliff: an exact projection onto the Gram set gave 140 bits
        ("x + y + 1", ["x^3 - x^2", "y^3 - 2*y^2"], 32),
    ], ids=["near_integer_gram", "cliff"])
    def test_height_guard(self, f, h, bits):
        xy = ["x", "y"]
        inst = problem_io.ProblemInstance(xy, parse_polynomial(f, xy), [],
                                          [parse_polynomial(p, xy) for p in h])
        ring = quotient.build_ring(inst.h)
        report = verify_bounds.verify_certificate(inst, certifier.certify(inst, ring), ring)
        assert report.ok
        assert max(report.max_numerator_bits, report.max_denominator_bits) <= bits

    def test_zero_at_a_multiple_point_is_exhaustion(self, tmp_path, capsys):
        # f = x vanishes at the double root 0 of x^3 - x^2.  A float value
        # cannot tell 0 from a margin below float64, so this is exhaustion
        # (3), naming the value of f there, not that of f - eps
        prob = tmp_path / "zero.prob"
        prob.write_text("variables x\nf: x\nh: x^3 - x^2\n")
        assert cli.main(["certify", "--input", str(prob)]) == 3
        assert "f = 0.000e+00 at a point of S" in capsys.readouterr().err


class TestSignRule:
    """Both strict routes judge the sign of f at the points of S by one
    rule, in `perturb`: f = 2 - x^2 + 10^-20 is 10^-20 > 0 at +-sqrt(2),
    below what float64 can show, so either route gives up with exit 3."""

    @pytest.mark.parametrize("h", ["x^2 - 2", "x^4 - 4*x^2 + 4"], ids=["radical", "hensel"])
    def test_margin_below_float64_is_exhaustion(self, tmp_path, capsys, h):
        prob = tmp_path / "tiny.prob"
        prob.write_text(f"variables x\nf: 2 - x^2 + 1/{10 ** 20}\nh: {h}\n")
        assert cli.main(["certify", "--input", str(prob)]) == 3
        assert "float64 margin used up" in capsys.readouterr().err


class TestNonneg:
    def test_cusp_circle(self, cusp_circle):
        cert = certifier.certify_nonneg(cusp_circle)
        assert cert.mode == "nonneg"
        assert cert.gamma == 2
        assert expand(cusp_circle, cert) == cusp_circle.f
        ring = quotient.build_ring(cusp_circle.h)
        assert len(cert.witnesses) == len(cert.blocks[0])
        for (w, q), r in zip(cert.blocks[0], cert.witnesses):
            assert normal_form(ring, q - cusp_circle.f * r).is_zero()

    def test_condition_failed(self, double_origin):
        with pytest.raises(ConditionFailed):
            certifier.certify_nonneg(double_origin)

    def test_witness_zeros_from_the_idempotent(self):
        # b^2 = b mod I: b is 1 at the zeros +-sqrt(2) of f and 0 at 1/10,
        # 1/5, although float64 sees |f| of order 1e-7 at +-sqrt(2)
        inst = load_problem("scaled_witness.prob")
        ring, f = quotient.build_ring(inst.h), inst.f
        a, b, gamma = quotient.coprimality_witness(ring, f, radical_roots(ring))
        assert normal_form(ring, b * b - b * gamma).is_zero()
        assert normal_form(ring, b * f).is_zero()
        assert normal_form(ring, a * f + b - gamma).is_zero()
        for x in (Fraction(1, 10), Fraction(1, 5)):
            assert evaluate(b, [x]) == 0
            assert evaluate(a, [x]) * evaluate(f, [x]) == gamma
        for x in (2 ** 0.5, -2 ** 0.5):
            assert abs(evaluate(b, [x]) / gamma - 1) < 1e-9
            assert evaluate(a, [x]) > 0

    def test_negative_f_message_names_f(self, tmp_path, capsys):
        # the inner route fails on a = gamma/f, which is -12 at x = 1 here,
        # while f takes the values -4, -3, -2 on V
        prob = tmp_path / "neg.prob"
        prob.write_text("variables x\nf: x - 4\nh: x^3 - 3*x^2 + 2*x\n")
        assert cli.main(["certify", "--mode", "nonneg", "--input", str(prob)]) == 2
        err = capsys.readouterr().err
        assert "f < 0 at a point of S" in err
        assert "e+01" not in err

    def test_one_radical_ring(self, cusp_circle, monkeypatch):
        # the witness's roots and the Hensel lift share one R/J
        rings = []
        monomial_basis = quotient.monomial_basis
        monkeypatch.setattr(quotient, "monomial_basis",
                            lambda ideal: rings.append(monomial_basis(ideal)) or rings[-1])
        cert = certifier.certify_nonneg(cusp_circle)
        assert expand(cusp_circle, cert) == cusp_circle.f
        ring, ring_j = rings
        assert not ring.is_radical and ring_j is ring.radical_ring

    def test_witness_roots_use_the_seed(self, cusp_circle, monkeypatch):
        # the witness and the Hensel route share one root solve, with --seed
        seeds = []
        solve_variety = variety.solve_variety
        monkeypatch.setattr(variety, "solve_variety",
                            lambda ring, seed=0: seeds.append(seed) or solve_variety(ring, seed))
        cusp_circle.options["seed"] = 7
        cert = certifier.certify_nonneg(cusp_circle)
        assert expand(cusp_circle, cert) == cusp_circle.f
        assert seeds == [7]


class TestPerturb:
    def test_perturbed_f_positive_at_all_real_roots(self, four_points):
        ring = quotient.build_ring(four_points.h)
        var = variety.solve_variety(ring)
        blocks, f_tilde = certifier.perturb(four_points, ring, var)
        assert len(var.real) == 4
        for xi in var.real:
            assert evaluate(f_tilde, xi) > 0

    def test_no_excluded_points_is_identity(self):
        inst = problem_io.ProblemInstance(
            ["x"], parse_polynomial("x + 3", ["x"]), [],
            [parse_polynomial("x^2 - 1", ["x"])])
        ring = quotient.build_ring(inst.h)
        var = variety.solve_variety(ring)
        blocks, f_tilde = certifier.perturb(inst, ring, var)
        assert f_tilde == inst.f
        assert blocks == []


    def test_margin_below_the_tolerance_is_exhaustion(self, tmp_path, monkeypatch, capsys):
        # f > 0 on S = {(+-1, 0)} with minimum 2^-30 at (-1, 0), under the
        # perturbation's tolerance: no rounding can lift f - phi above it
        # there, so it stops before rounding anything, and that is
        # numerical exhaustion (3), not impossibility (2)
        prob = tmp_path / "tiny_g.prob"
        prob.write_text(f"variables x y\nf: x + 1 + 1/{2 ** 30}\ng: 1/2 - y\n"
                        "h: x^2 - 1\nh: y^2 - y\n")
        bits = []
        escalate = gram.escalate
        monkeypatch.setattr(gram, "escalate", lambda start, round_at, attempt: escalate(
            start, lambda n: bits.append(n) or round_at(n), attempt))
        code = cli.main(["certify", "--input", str(prob)])
        assert code == 3
        assert bits == []
        assert "float64 margin used up" in capsys.readouterr().err


def _polys(nvars, max_terms=4):
    """Polynomials with large numerators and denominators, zero included."""
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = st.fractions(min_value=-2 ** 70, max_value=2 ** 70, max_denominator=2 ** 64)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda terms: polynomial(terms, nvars))


@st.composite
def _instances_and_certificates(draw):
    """Arbitrary (inst, cert): zero and empty blocks, g blocks, cofactors."""
    n = draw(st.integers(1, 3))
    polys = _polys(n)
    g = draw(st.lists(polys, max_size=2))
    h = draw(st.lists(polys, min_size=1, max_size=2))
    inst = problem_io.ProblemInstance([f"x{i}" for i in range(n)], draw(polys), g, h)
    weights = st.fractions(min_value=0, max_value=2 ** 40, max_denominator=2 ** 40)
    blocks = draw(st.lists(st.lists(st.tuples(weights, _polys(n, 3)), max_size=3),
                           max_size=1 + len(g)))
    cofactors = draw(st.lists(polys, max_size=len(h)))
    return inst, problem_io.Certificate("strict", blocks, cofactors)


def _identity_denominator(inst, cert):
    """The common denominator over which `residual` expands the identity."""
    mults = [Polynomial.constant(1, inst.nvars)] + inst.g
    return math.lcm(inst.f.den,
                    *(w.denominator * q.den ** 2 * m.den
                      for m, block in zip(mults, cert.blocks) for w, q in block),
                    *(p.den * h.den for p, h in zip(cert.cofactors, inst.h)))


class TestResidual:
    """The one expansion of the certificate identity: the verifier's, and
    the one the nonneg route, `perturb` and the SDP rounding use."""

    @pytest.mark.parametrize("route", ["radical", "with_g", "hensel", "nonneg", "sdp"])
    def test_matches_the_direct_sum(self, route, four_points, cusp_circle, monkeypatch):
        # each route's rest, which `_assemble` closes, is f minus its squares
        closed = []
        assemble = certifier._assemble
        monkeypatch.setattr(certifier, "_assemble", lambda ring, blocks, rest: (
            closed.append((blocks, rest)) or assemble(ring, blocks, rest)))
        x = ["x"]
        inst = {
            "radical": problem_io.ProblemInstance(
                x, parse_polynomial("x + 3", x), [], [parse_polynomial("x^2 - 1", x)]),
            "with_g": four_points,
            "hensel": problem_io.ProblemInstance(
                x, parse_polynomial("1 + x", x), [], [parse_polynomial("x^2", x)]),
            "nonneg": cusp_circle,
            "sdp": problem_io.ProblemInstance(
                x, parse_polynomial("x + 3", x), [], [parse_polynomial("x^2 - 1", x)],
                options={"engine": "sdp"}),
        }[route]
        if route == "sdp":
            cert = certifier.certify(inst)
        elif route == "nonneg":
            cert = certifier.certify_nonneg(inst)
        else:
            cert = certifier.certify_strict(inst)
        assert verify_bounds.residual(inst, cert).is_zero()
        assert expand(inst, cert) == inst.f
        (blocks, rest), = closed
        assert rest == verify_bounds.residual(inst, problem_io.Certificate("strict", blocks, []))

    @settings(max_examples=60, deadline=None)
    @given(_instances_and_certificates())
    def test_equals_the_fraction_expansion(self, case):
        inst, cert = case
        assert verify_bounds.residual(inst, cert) == inst.f - expand(inst, cert)

    def test_one_step_of_the_common_denominator_is_rejected(self, tmp_path, capsys):
        prob = data_path("four_points.prob")
        out = tmp_path / "c.cert"
        assert cli.main(["certify", "--input", prob, "--out", str(out)]) == 0
        inst = load_problem("four_points.prob")
        cert, _ = problem_io.parse_certificate(out.read_text(), inst.var_names)
        step = Fraction(1, _identity_denominator(inst, cert))
        j = next(j for j, pj in enumerate(cert.cofactors) if not pj.is_zero())
        lead = cert.cofactors[j].leading_monomial()
        moved = cert.cofactors[j] + polynomial({lead: step}, inst.nvars)
        cofactors = cert.cofactors[:j] + [moved] + cert.cofactors[j + 1:]
        mutant = problem_io.Certificate(cert.mode, cert.blocks, cofactors)
        step_h = -polynomial({lead: step}, inst.nvars) * inst.h[j]
        assert verify_bounds.residual(inst, mutant) == step_h
        out.write_text(problem_io.format_certificate(mutant, inst.var_names))
        capsys.readouterr()
        assert cli.main(["verify", "--input", prob, "--certificate", str(out)]) == 4
        assert "verification failed: identity" in capsys.readouterr().err


class TestGramClosure:
    """The Gram routes close their identity from the Gram matrix Q0, not
    from their squares; the exact check of the certificate still sees the
    squares."""

    @pytest.mark.parametrize("problem,options", [
        ("four_points.prob", []),
        ("double_origin_shifted.prob", []),
        ("four_points.prob", ["--engine", "sdp"]),
    ], ids=["radical", "hensel", "sdp"])
    def test_a_wrong_square_fails_verification(self, problem, options, monkeypatch,
                                               tmp_path, capsys):
        ldlt = gram.ldlt

        def off_by_a_unit(q):
            out = ldlt(q)
            w, vec = out[0]
            out[0] = w, [vec[0] + 1] + vec[1:]
            return out

        monkeypatch.setattr(gram, "ldlt", off_by_a_unit)
        code = cli.main(["certify", "--input", data_path(problem), *options,
                         "--out", str(tmp_path / "c.cert")])
        assert code == 4
        assert "verification failed: identity" in capsys.readouterr().err

    @pytest.mark.parametrize("h", ["x^2 - 1", "x^2"], ids=["radical", "hensel"])
    def test_no_expansion_without_excluded_points(self, h, monkeypatch):
        x = ["x"]
        inst = problem_io.ProblemInstance(x, parse_polynomial("x + 3", x), [],
                                          [parse_polynomial(h, x)])
        calls = []
        residual = verify_bounds.residual
        monkeypatch.setattr(verify_bounds, "residual",
                            lambda *a: calls.append(a) or residual(*a))
        cert = certifier.certify_strict(inst)
        assert calls == []
        assert residual(inst, cert).is_zero()


class TestOneGramStep:
    """The radical, Hensel and SDP routes all take the one Gram step,
    `gram.gram_squares`, and no route factors a matrix outside it."""

    @pytest.mark.parametrize("problem,options", [
        ("four_points.prob", []),
        ("double_origin_shifted.prob", []),
        ("four_points.prob", ["--engine", "sdp"]),
    ], ids=["radical", "hensel", "sdp"])
    def test_every_gram_route_takes_the_step(self, problem, options, monkeypatch, tmp_path):
        steps, factored = [], []
        step, ldlt = gram.gram_squares, gram.ldlt
        monkeypatch.setattr(gram, "gram_squares", lambda *a: steps.append(a) or step(*a))
        monkeypatch.setattr(gram, "ldlt", lambda q: factored.append(q) or ldlt(q))
        assert cli.main(["certify", "--input", data_path(problem), *options,
                         "--out", str(tmp_path / "c.cert")]) == 0
        assert steps and len(factored) == len(steps)

    def test_sdp_escalates_when_the_step_fails(self, monkeypatch, tmp_path):
        # the free block's first rounding is refused; the next rounding, at
        # twice the bits, certifies
        bits, factored = [], []
        rounding, ldlt = gram.round_matrix, gram.ldlt

        def not_pd_once(q):
            factored.append(q)
            if len(factored) == 1:
                raise NotPD(1)
            return ldlt(q)

        monkeypatch.setattr(gram, "round_matrix",
                            lambda mat, frac_bits: bits.append(frac_bits) or rounding(mat, frac_bits))
        monkeypatch.setattr(gram, "ldlt", not_pd_once)
        out = tmp_path / "c.cert"
        prob = data_path("four_points.prob")
        assert cli.main(["certify", "--input", prob, "--engine", "sdp", "--out", str(out)]) == 0
        assert len(bits) == 2 and bits[1] == 2 * bits[0]
        assert len(factored) == 2
        assert cli.main(["verify", "--input", prob, "--certificate", str(out)]) == 0


class TestDispatcher:
    def test_mode_routing(self, cusp_circle):
        cusp_circle.options["mode"] = "nonneg"
        cert = certifier.certify(cusp_circle)
        assert cert.mode == "nonneg"

    def test_empty_h_rejected(self):
        with pytest.raises(ValueError):
            problem_io.ProblemInstance(["x"], parse_polynomial("x", ["x"]), [], [])


class TestRadicalOnce:
    @pytest.mark.parametrize("mode, h", [
        ("strict", ["x^2 - 1", "y^2 - y"]),
        ("strict", ["x^3 - x^2", "y^2 - y"]),
        ("nonneg", ["x^3 - y^2", "x^2 - 2*x + y^2"]),
    ], ids=["radical", "hensel", "nonneg"])
    def test_radical_generators_once_per_ring(self, monkeypatch, mode, h):
        # R/I computes its radical once; R/J is radical by construction
        calls = []
        radical_generators = quotient.radical_generators
        monkeypatch.setattr(quotient, "radical_generators",
                            lambda ring: calls.append(ring) or radical_generators(ring))
        f = poly("x") if mode == "nonneg" else poly("x + y + 3")
        inst = problem_io.ProblemInstance(["x", "y"], f, [], [poly(p) for p in h],
                                          options={"mode": mode})
        ring = quotient.build_ring(inst.h)
        cert = certifier.certify(inst, ring)
        assert expand(inst, cert) == inst.f
        assert calls == [ring]


class TestInternalFailuresSurface:
    """Each exact identity the construction relies on is checked with an
    exception, not an assert, so it also holds under `python -O`."""

    def test_hensel_step_checked_without_asserts(self):
        script = textwrap.dedent("""
            import sys
            assert False, "asserts must be off"
            from soscert import certifier, quotient
            from soscert.errors import IdentityBroken
            from soscert.polyring import Polynomial, parse_polynomial
            # -1 is not 1 modulo the radical (x), so the series from 1 does
            # not square to it modulo x^2
            ring = quotient.monomial_basis(quotient.groebner([parse_polynomial("x^2", ["x"])]))
            try:
                certifier.hensel_sqrt(ring, Polynomial.constant(-1, 1))
            except IdentityBroken as exc:
                sys.exit(0 if "Hensel step" in str(exc) else 2)
            sys.exit(1)
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_assemble_residual_checked(self, monkeypatch, capsys):
        cofactor_reduce = quotient.cofactor_reduce

        def leaky(ring, p):
            cof = cofactor_reduce(ring, p)
            cof.remainder = cof.remainder + Polynomial.constant(Fraction(1), ring.nvars)
            return cof

        monkeypatch.setattr(quotient, "cofactor_reduce", leaky)
        code = cli.main(["certify", "--input", data_path("four_points.prob")])
        assert code == 4
        assert "internal error: residual is not in the ideal" in capsys.readouterr().err

    def test_witness_needs_the_variety(self, cusp_circle, monkeypatch):
        def fail(ring, *args, **kwargs):
            raise ClusterAmbiguity("forced")

        monkeypatch.setattr(variety, "solve_variety", fail)
        ring = quotient.build_ring(cusp_circle.h)
        with pytest.raises(ClusterAmbiguity):
            quotient.coprimality_witness(ring, cusp_circle.f, radical_roots(ring))
