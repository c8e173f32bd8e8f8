import functools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from soscert import certifier, cli, gram, problem_io, quotient, sdp_backend, variety
from soscert.errors import (ClusterAmbiguity, ConditionFailed,
                            NotStrictlyPositiveOnS)
from soscert.polyring import Polynomial, evaluate, parse_polynomial

from conftest import data_path


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
        inst = certifier.ProblemInstance(
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
        bad = certifier.ProblemInstance(
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


@functools.cache
def _cliff_chain():
    x, y = (parse_polynomial(v, ["x", "y"]) for v in ("x", "y"))
    j = [x * (x - 1), y * (y - 2)]
    return quotient.ideal_power_chain(quotient.groebner(j),
                                      quotient.groebner([x * j[0], y * j[1]]))


class TestHensel:
    def test_double_origin_lift(self):
        inst = certifier.ProblemInstance(
            ["x"], parse_polynomial("1 + x", ["x"]), [],
            [parse_polynomial("x^2", ["x"])])
        cert = certifier.certify_strict(inst)
        assert expand(inst, cert) == inst.f
        # the textbook factorization 1 + x = (1 + x/2)^2 - x^2/4
        [(w, q)] = [wq for wq in cert.blocks[0] if not wq[1].is_zero()]
        assert w * q * q == parse_polynomial(
            "1/4*x^2 + x + 1", ["x"]) * 1

    def test_triple_origin_lift(self):
        inst = certifier.ProblemInstance(
            ["x"], parse_polynomial("2 + x", ["x"]), [],
            [parse_polynomial("x^3", ["x"])])
        cert = certifier.certify_strict(inst)
        assert expand(inst, cert) == inst.f

    def test_hensel_sqrt_chain_property(self):
        x = parse_polynomial("x", ["x"])
        rad = quotient.groebner([x])
        target = quotient.groebner([parse_polynomial("x^3", ["x"])])
        chain = quotient.ideal_power_chain(rad, target)
        theta = parse_polynomial("1 + x", ["x"])
        theta0 = parse_polynomial("1", ["x"])
        t = certifier.hensel_sqrt(chain, theta, theta0)
        # the final lift squares to theta modulo every power in the chain
        for ring_k in chain:
            assert ring_k.normal_form(t * t - theta).is_zero()

    def test_cofactors_only_for_the_original_ideal(self, monkeypatch):
        # (x - 1)^2 (x - 2), (y - 3)^2: the radical and its powers are only
        # reduced against, never expressed in their generators
        seen = []
        express = quotient._express_in_generators
        monkeypatch.setattr(quotient, "_express_in_generators",
                            lambda g, gens, caps: seen.append(gens) or express(g, gens, caps))
        xy = ["x", "y"]
        inst = certifier.ProblemInstance(
            xy, parse_polynomial("x + y + 1", xy), [],
            [parse_polynomial("x^3 - 4*x^2 + 5*x - 2", xy), parse_polynomial("y^2 - 6*y + 9", xy)])
        cert = certifier.certify_strict(inst)
        assert expand(inst, cert) == inst.f
        assert seen and all(gens == inst.h for gens in seen)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
           st.lists(st.integers(-2, 2), min_size=6, max_size=6))
    def test_newton_inverse_matches_a_solve_per_level(self, s_coeffs, r_coeffs):
        # theta = s^2 + r1 x (x - 1) + r2 y (y - 2) is s^2 modulo the radical
        # of (x^2 (x - 1), y^2 (y - 2)); it is nonzero at the roots when s is
        xy = ["x", "y"]
        one, x, y = (parse_polynomial(v, xy) for v in ("1", "x", "y"))
        s = sum((c * m for c, m in zip(s_coeffs, (one, x, y, x * y))), one * 0)
        assume(all(evaluate(s, pt) != 0 for pt in [(0, 0), (0, 2), (1, 0), (1, 2)]))
        r1 = sum((c * m for c, m in zip(r_coeffs[:3], (one, x, y))), one * 0)
        r2 = sum((c * m for c, m in zip(r_coeffs[3:], (one, x, y))), one * 0)
        theta = s * s + r1 * x * (x - 1) + r2 * y * (y - 2)
        chain = _cliff_chain()
        assert len(chain) == 2  # J^2, J^4: one Newton level

        t = s
        for ring_k in chain:
            sigma = quotient.inverse_mod(ring_k, t)
            t = ring_k.normal_form((t + theta * sigma) * Fraction(1, 2))
        assert certifier.hensel_sqrt(chain, theta, s) == t

    def test_radical_input_delegates(self):
        inst = certifier.ProblemInstance(
            ["x"], parse_polynomial("x + 3", ["x"]), [],
            [parse_polynomial("x^2 - 1", ["x"])])
        cert = certifier.certify_strict_nonradical(inst)
        assert expand(inst, cert) == inst.f


class TestNonneg:
    def test_cusp_circle(self, cusp_circle):
        cert = certifier.certify_nonneg(cusp_circle)
        assert cert.mode == "nonneg"
        assert cert.gamma == 2
        assert expand(cusp_circle, cert) == cusp_circle.f
        ring = certifier.build_ring(cusp_circle)
        assert len(cert.witnesses) == len(cert.blocks[0])
        for (w, q), r in zip(cert.blocks[0], cert.witnesses):
            assert ring.normal_form(q - cusp_circle.f * r).is_zero()

    def test_condition_failed(self, double_origin):
        with pytest.raises(ConditionFailed):
            certifier.certify_nonneg(double_origin)


class TestPerturb:
    def test_perturbed_f_positive_at_all_real_roots(self, four_points):
        ring = certifier.build_ring(four_points)
        var = variety.solve_variety(ring)
        blocks, f_tilde = certifier.perturb(four_points, ring, var)
        from soscert.polyring import evaluate
        ft = f_tilde.to_float()
        for pt in var.points:
            if pt.kind == "real":
                assert evaluate(ft, [z.real for z in pt.coordinates]) > 0

    def test_no_excluded_points_is_identity(self):
        inst = certifier.ProblemInstance(
            ["x"], parse_polynomial("x + 3", ["x"]), [],
            [parse_polynomial("x^2 - 1", ["x"])])
        ring = certifier.build_ring(inst)
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


class TestExpansion:
    """The identity expansion shared by the certifier and the verifier."""

    @pytest.mark.parametrize("route", ["radical", "with_g", "hensel", "nonneg", "sdp"])
    def test_matches_the_direct_sum(self, route, four_points, cusp_circle):
        x = ["x"]
        inst = {
            "radical": certifier.ProblemInstance(
                x, parse_polynomial("x + 3", x), [], [parse_polynomial("x^2 - 1", x)]),
            "with_g": four_points,
            "hensel": certifier.ProblemInstance(
                x, parse_polynomial("1 + x", x), [], [parse_polynomial("x^2", x)]),
            "nonneg": cusp_circle,
            "sdp": certifier.ProblemInstance(
                x, parse_polynomial("x + 3", x), [], [parse_polynomial("x^2 - 1", x)]),
        }[route]
        if route == "sdp":
            cert = sdp_backend.algorithm1_certify(inst)
        elif route == "nonneg":
            cert = certifier.certify_nonneg(inst)
        else:
            cert = certifier.certify_strict(inst)
        assert certifier.expansion(inst, cert) == expand(inst, cert) == inst.f


class TestDispatcher:
    def test_mode_routing(self, cusp_circle):
        cusp_circle.options["mode"] = "nonneg"
        cert = certifier.certify(cusp_circle)
        assert cert.mode == "nonneg"

    def test_empty_h_rejected(self):
        with pytest.raises(ValueError):
            certifier.ProblemInstance(["x"], parse_polynomial("x", ["x"]), [], [])


class TestRadicalOnce:
    def test_char_poly_once_per_variable(self, monkeypatch):
        calls = []
        char_poly = quotient._char_poly
        monkeypatch.setattr(quotient, "_char_poly",
                            lambda m: calls.append(len(m)) or char_poly(m))
        inst = certifier.ProblemInstance(
            ["x", "y"], poly("x + y + 3"), [], [poly("x^2 - 1"), poly("y^2 - y")])
        cert = certifier.certify_strict(inst)
        assert expand(inst, cert) == inst.f
        assert calls == [4, 4]


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
            # a wrong inverse breaks the Newton step t^2 = theta
            quotient.inverse_mod = lambda ring, t: Polynomial.constant(3, ring.nvars)
            inst = certifier.ProblemInstance(
                ["x"], parse_polynomial("1 + x", ["x"]), [],
                [parse_polynomial("x^2", ["x"])])
            try:
                certifier.certify_strict(inst)
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
        ring = certifier.build_ring(cusp_circle)
        with pytest.raises(ClusterAmbiguity):
            quotient.coprimality_witness(ring, cusp_circle.f)
