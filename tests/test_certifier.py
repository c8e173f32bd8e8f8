import functools
import itertools
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

from conftest import (data_path, format_problem, load_problem, nonneg, normal_form,
                      polynomial, radical_roots)


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
        cert = certifier.certify(inst)
        assert expand(inst, cert) == inst.f
        assert all(w > 0 for w, _ in cert.blocks[0])

    def test_four_points_with_inequality(self, four_points):
        cert = certifier.certify(four_points)
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
            certifier.certify(bad)

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
        cert = certifier.certify(inst)
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
        cert = certifier.certify(inst)
        assert expand(inst, cert) == inst.f

    def test_hensel_sqrt_chain_property(self):
        x = parse_polynomial("x", ["x"])
        ring = _ring([parse_polynomial("x^3", ["x"])])
        theta = parse_polynomial("1 + x", ["x"])
        t = ring.from_vector(*certifier.hensel_sqrt(ring, theta))
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
        t = ring.from_vector(*certifier.hensel_sqrt(ring, theta))
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
        cert = certifier.certify(inst, ring=ring)
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
        assert ring.from_vector(*certifier.hensel_sqrt(ring, theta)) == t

    def test_only_the_ideal_and_its_radical_get_groebner_bases(self, monkeypatch):
        j, i, _ = _cliff_ideals()
        calls = []
        groebner = quotient.groebner
        monkeypatch.setattr(quotient, "groebner", lambda gens: calls.append(gens) or groebner(gens))
        xy = ["x", "y"]
        inst = problem_io.ProblemInstance(xy, parse_polynomial("x + y + 1", xy), [], i)
        cert = certifier.certify(inst)
        assert expand(inst, cert) == inst.f
        assert len(calls) == 2 and calls[0] == i
        assert groebner(calls[1]).gb == groebner(j).gb

    def test_radical_input_certified_by_the_lift(self):
        # the float Gram step of x + 3 - eps, then the lift with J = I
        inst = problem_io.ProblemInstance(
            ["x"], parse_polynomial("x + 3", ["x"]), [],
            [parse_polynomial("x^2 - 1", ["x"])])
        ring = quotient.build_ring(inst.h)
        g_blocks, squares, rest, eps = certifier._float_gram_step(
            inst, ring, radical_roots(ring)(), True)
        assert eps > 0
        block, rest = certifier.certify_strict_nonradical(ring, squares, rest, eps)
        cert = certifier._assemble(ring, [block] + g_blocks, rest)
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


def _lifted_square_eps(text, cert):
    """w k^2 for the last square q of block 0, with weight w, after checking
    that q is a nonzero constant k modulo the radical J."""
    ring = quotient.build_ring(problem_io.parse_problem(text).h)
    assert not ring.is_radical
    w, q = cert.blocks[0][-1]
    k = normal_form(ring.radical_ring, q)
    assert k.degree == 0
    return w * k.leading_coefficient() ** 2


class TestConstantSquareLift:
    """The Hensel route certifies f~ - eps over the radical J, with the
    float radical route's Gram construction when R/J has a complex point
    or there is a g (`TestTraceHensel` covers the rest), and lifts the
    square root t of theta = 1 mod J; its last square eps t^2 is written
    w q^2 with q a nonzero constant k modulo J and w k^2 = eps."""

    @pytest.mark.parametrize("text", [
        # V(J) = {i, -i}: no real point, so eps = 1
        "variables x\nf: x + 5\nh: x^4 + 2*x^2 + 1\n",
        # a double point in x times a conjugate pair in y, with a g
        "variables x y\nf: x - 2\ng: x\nh: x^3 - x^2\nh: y^2 + 1\n",
    ])
    def test_complex_points(self, tmp_path, text):
        code, verified, cert = _certify_and_verify(str(tmp_path), text)
        assert (code, verified) == (0, 0)
        assert _lifted_square_eps(text, cert) == 1

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=4, max_size=4, unique=True),
           st.integers(2, 3), st.integers(1, 3), st.integers(-2, 2), st.integers(-2, 2),
           st.integers(1, 4))
    def test_random_products(self, roots, k, m, u, v, margin):
        # (x - a)^k (x - b), (y - c)^m (y - d)(y^2 + 1) with f = u x + v y + w,
        # whose minimum over the four real points is the margin; the points
        # with y = +-i keep it on the float route
        a, b, c, d = roots
        xy = ["x", "y"]
        x, y = poly("x"), poly("y")
        w = margin - min(u * px + v * py for px in (a, b) for py in (c, d))
        inst = problem_io.ProblemInstance(
            xy, x * u + y * v + w, [],
            [(x - a) ** k * (x - b), (y - c) ** m * (y - d) * (y * y + 1)])
        text = format_problem(inst)
        with tempfile.TemporaryDirectory() as tmp:
            code, verified, cert = _certify_and_verify(tmp, text)
        assert (code, verified) == (0, 0)
        # eps is the largest power of two <= min(1, low / 2), for the float
        # value low of the margin at the roots
        eps, top = _lifted_square_eps(text, cert), min(1, Fraction(margin, 2))
        assert top / 4 < eps <= top
        assert eps.numerator == 1 and eps.denominator & (eps.denominator - 1) == 0

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
        # f = x vanishes at the double root 0 of (x^3 - x^2)(x^2 + 1), whose
        # pair +-i keeps it off the exact trace route.  A float value cannot
        # tell 0 from a margin below float64, so this is exhaustion (3),
        # naming the value of f there, not that of f - eps
        prob = tmp_path / "zero.prob"
        prob.write_text("variables x\nf: x\nh: x^5 - x^4 + x^3 - x^2\n")
        assert cli.main(["certify", "--input", str(prob)]) == 3
        assert "f = 0.000e+00 at a point of S" in capsys.readouterr().err


# The sign rule's exit codes for f = x + 1 + m on V = {+-1} x {0, 1}, whose
# least value m is at x = -1, without and with g = 1/2 - y, which excludes
# the points with y = 1, in strict and nonneg mode.  2^-30 lies within the
# float decision tolerance (about 1.8e-6 here), 2^-10 beyond it.  Every
# point is rational, so both modes, with g or not, split R/I into the
# idempotents of its points and decide every sign exactly; nonneg mode
# judges a = 1 / f, whose sign there is that of m.
SIGN_TABLE = {
    # m: (strict, strict with g, nonneg, nonneg with g)
    Fraction(1, 2 ** 30): (0, 0, 0, 0),
    Fraction(-1, 2 ** 30): (2, 2, 2, 2),
    Fraction(-1, 2 ** 10): (2, 2, 2, 2),
    Fraction(1, 2 ** 10): (0, 0, 0, 0),
}
# The same on (x^2 - 1)^2, whose radical is x^2 - 1: every route ends in the
# lift, and the routes with g take the float Gram step on R/J, whose sign
# rule in `perturb` calls 2^-30 at a point of S undecided: exhaustion (3)
# in strict mode.  In nonneg mode the witness a = gamma / f mod I has
# coefficients near 2^120 in its R/I form, but the float step reads its
# values off NF_J(a), where they do not cancel.
HENSEL_SIGN_TABLE = {**SIGN_TABLE, Fraction(1, 2 ** 30): (0, 3, 0, 0),
                     Fraction(-1, 2 ** 30): (2, 3, 2, 2)}
SIGN_COLUMNS = [(0, "strict", ""), (1, "strict", "g: 1/2 - y\n"),
                (2, "nonneg", ""), (3, "nonneg", "g: 1/2 - y\n")]
SIGN_IDS = ["strict", "strict-g", "nonneg", "nonneg-g"]


class TestSignRule:
    """Both float strict routes judge the sign of f at the points of S by
    one rule, in `perturb`: f = 2 - x^2 + 10^-20 is 10^-20 > 0 at
    +-sqrt(2), below what float64 can show, so either route gives up with
    exit 3.  The ideals (x^2 - 2)(x^2 + 1) and (x^2 - 2)^2 (x^2 + 1) have a
    conjugate pair, so neither exact trace route takes them."""

    @pytest.mark.parametrize("h", ["x^4 - x^2 - 2", "x^6 - 3*x^4 + 4"], ids=["radical", "hensel"])
    def test_margin_below_float64_is_exhaustion(self, tmp_path, capsys, h):
        prob = tmp_path / "tiny.prob"
        prob.write_text(f"variables x\nf: 2 - x^2 + 1/{10 ** 20}\nh: {h}\n")
        assert cli.main(["certify", "--input", str(prob)]) == 3
        assert "float64 margin used up" in capsys.readouterr().err

    @pytest.mark.parametrize("m", SIGN_TABLE, ids=["+2^-30", "-2^-30", "-2^-10", "+2^-10"])
    @pytest.mark.parametrize("column, mode, g, h, table", [
        (*c, h, table) for h, table in (("x^2 - 1", SIGN_TABLE),
                                        ("x^4 - 2*x^2 + 1", HENSEL_SIGN_TABLE))
        for c in SIGN_COLUMNS], ids=SIGN_IDS + ["hensel-" + i for i in SIGN_IDS])
    def test_exit_code_table(self, tmp_path, m, column, mode, g, h, table):
        prob = tmp_path / "table.prob"
        prob.write_text(f"variables x y\nf: x + 1 + {m}\n{g}h: {h}\nh: y^2 - y\n")
        assert cli.main(["certify", "--input", str(prob), "--mode", mode]) == table[m][column]


class TestNonneg:
    def test_cusp_circle(self, cusp_circle):
        cert = certifier.certify(nonneg(cusp_circle))
        assert cert.mode == "nonneg"
        assert cert.gamma == 2
        assert expand(cusp_circle, cert) == cusp_circle.f
        ring = quotient.build_ring(cusp_circle.h)
        assert len(cert.witnesses) == len(cert.blocks[0])
        for (w, q), r in zip(cert.blocks[0], cert.witnesses):
            assert normal_form(ring, q - cusp_circle.f * r).is_zero()

    def test_condition_failed(self, double_origin):
        with pytest.raises(ConditionFailed):
            certifier.certify(nonneg(double_origin))

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
        cert = certifier.certify(nonneg(cusp_circle))
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
        cert = certifier.certify(nonneg(cusp_circle))
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

    @pytest.mark.parametrize("f, squares", [
        # f = 1 > 0 at the excluded point too: no square is needed, and the
        # zero rounding of 16 bits already closes
        ("1", []),
        # f = -1 at the excluded point: 32 bits round the column to nonzero
        ("1 - 1/500000*x", [(Fraction(4295 ** 2, 2 ** 64), "x")]),
    ], ids=["not_needed", "needed"])
    def test_column_rounded_to_zero_adds_no_square(self, monkeypatch, f, squares):
        # V = {0, 10^6}, the point 10^6 excluded by g: its idempotent is
        # x / 10^6, which 16 bits round to zero
        inst = problem_io.ProblemInstance(
            ["x"], parse_polynomial(f, ["x"]), [parse_polynomial("1 - x", ["x"])],
            [parse_polynomial("x^2 - 1000000*x", ["x"])])
        ring = quotient.build_ring(inst.h)
        bits = []
        escalate = gram.escalate
        monkeypatch.setattr(gram, "escalate", lambda start, round_at, attempt: escalate(
            start, lambda n: bits.append(n) or round_at(n), attempt))
        blocks, _ = certifier.perturb(inst, ring, variety.solve_variety(ring))
        assert bits == [16] + [32] * bool(squares)
        assert blocks == [[(w, parse_polynomial(q, ["x"])) for w, q in squares]]
        cert = certifier.certify(inst, ring)
        assert verify_bounds.verify_certificate(inst, cert, ring).ok


    def test_margin_below_the_tolerance_is_exhaustion(self, tmp_path, monkeypatch, capsys):
        # f > 0 on S = {(+-1, -sqrt(2))} with minimum 2^-30 at x = -1, under
        # the perturbation's tolerance: no rounding can lift f - phi above
        # it there, so it stops before rounding anything, and that is
        # numerical exhaustion (3), not impossibility (2).  The irrational
        # points keep the float route: on y^2 = y the split decides exactly
        prob = tmp_path / "tiny_g.prob"
        prob.write_text(f"variables x y\nf: x + 1 + 1/{2 ** 30}\ng: 1/2 - y\n"
                        "h: x^2 - 1\nh: y^2 - 2\n")
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
            cert = certifier.certify(nonneg(inst))
        else:
            cert = certifier.certify(inst)
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
        ("cusp_circle_shifted.prob", []),  # a conjugate pair in R/J: the float lift
        ("four_points.prob", ["--engine", "sdp"]),
    ], ids=["radical", "hensel", "hensel_float", "sdp"])
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

    # x^2 - 2, not x^2 - 1: the split of a ring of rational points closes
    # its identity through `residual`
    @pytest.mark.parametrize("h", ["x^2 - 2", "x^2"], ids=["radical", "hensel"])
    def test_no_expansion_without_excluded_points(self, h, monkeypatch):
        x = ["x"]
        inst = problem_io.ProblemInstance(x, parse_polynomial("x + 3", x), [],
                                          [parse_polynomial(h, x)])
        calls = []
        residual = verify_bounds.residual
        monkeypatch.setattr(verify_bounds, "residual",
                            lambda *a: calls.append(a) or residual(*a))
        cert = certifier.certify(inst)
        assert calls == []
        assert residual(inst, cert).is_zero()


class TestOneGramStep:
    """The float radical, Hensel and SDP routes all take the one Gram step,
    `gram.gram_squares`, and none factors a matrix outside it; the exact
    trace routes (`TestTraceRoute`, `TestTraceHensel`) factor their
    matrices with no step."""

    @pytest.mark.parametrize("problem,options", [
        ("four_points.prob", []),
        # R/J has points (0, +-i), (1, +-i), which its Sturm chains count,
        # with no factored trace form: the float lift
        ("variables x y\nf: x + y + 3\nh: x^3 - x^2\nh: y^2 + 1\n", []),
        ("four_points.prob", ["--engine", "sdp"]),
    ], ids=["radical", "hensel", "sdp"])
    def test_every_gram_route_takes_the_step(self, problem, options, monkeypatch, tmp_path):
        prob = data_path(problem)
        if problem.startswith("variables"):
            prob = tmp_path / "p.prob"
            prob.write_text(problem)
        steps, factored = [], []
        step, ldlt = gram.gram_squares, gram.ldlt
        monkeypatch.setattr(gram, "gram_squares", lambda *a: steps.append(a) or step(*a))
        monkeypatch.setattr(gram, "ldlt", lambda q: factored.append(q) or ldlt(q))
        assert cli.main(["certify", "--input", str(prob), *options,
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
    @staticmethod
    def _count_solves(monkeypatch):
        solves = []
        solve_variety = variety.solve_variety
        monkeypatch.setattr(variety, "solve_variety", lambda ring, seed=0: (
            solves.append(ring) or solve_variety(ring, seed)))
        return solves

    @pytest.mark.parametrize("mode, h", [
        ("strict", ["x^2 + 1", "y^2 - y"]),  # complex points: the float route
        ("strict", ["x^3 - x^2", "y^2 + 1"]),  # complex points: the float lift
        ("nonneg", ["x^3 - y^2", "x^2 - 2*x + y^2"]),
    ], ids=["radical", "hensel", "nonneg"])
    def test_radical_generators_once_per_ring(self, monkeypatch, mode, h):
        # R/I computes its radical once; R/J is radical by construction, and
        # every route solves its points once
        calls = []
        radical_generators = quotient.radical_generators
        monkeypatch.setattr(quotient, "radical_generators",
                            lambda ring: calls.append(ring) or radical_generators(ring))
        solves = self._count_solves(monkeypatch)
        f = poly("x") if mode == "nonneg" else poly("x + y + 3")
        inst = problem_io.ProblemInstance(["x", "y"], f, [], [poly(p) for p in h],
                                          options={"mode": mode})
        ring = quotient.build_ring(inst.h)
        cert = certifier.certify(inst, ring)
        assert expand(inst, cert) == inst.f
        assert calls == [ring]
        assert solves == [ring.radical_ring]

    @pytest.mark.parametrize("mode", ["strict", "nonneg"])
    def test_no_solve_under_sdp(self, monkeypatch, mode):
        solves = self._count_solves(monkeypatch)
        inst = problem_io.ProblemInstance(["x"], parse_polynomial("x + 3", ["x"]), [],
                                          [parse_polynomial("x^2 - 1", ["x"])],
                                          options={"engine": "sdp", "mode": mode})
        cert = certifier.certify(inst)
        assert expand(inst, cert) == inst.f
        assert solves == []

    @pytest.mark.parametrize("mode", ["strict", "nonneg"])
    def test_no_solve_for_the_empty_variety(self, monkeypatch, mode):
        # 1 = (x^2 + 1) - x x lies in I: f is its own cofactor combination
        solves = self._count_solves(monkeypatch)
        x = ["x"]
        inst = problem_io.ProblemInstance(x, parse_polynomial("x - 3", x), [],
                                          [parse_polynomial(h, x) for h in ("x^2 + 1", "x")],
                                          options={"mode": mode})
        ring = quotient.build_ring(inst.h)
        assert ring.D == 0
        cert = certifier.certify(inst, ring)
        assert expand(inst, cert) == inst.f
        assert solves == []

    def test_no_solve_before_a_failed_witness(self, monkeypatch, double_origin):
        solves = self._count_solves(monkeypatch)
        with pytest.raises(ConditionFailed):
            certifier.certify(nonneg(double_origin))
        assert solves == []


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


def _grid_instances(draw):
    """A sheared integer grid, prod_r (x - r) and prod_r (x_k - x - r) for
    the later variables x_k, in 2 or 3 variables with D <= 16 and no g, and
    a random f shifted so that its minimum over the points (a, a + b, ...)
    is +-2^-k, k in 0..128; returns (instance, sign).  The points are
    rational, but the generators are not one polynomial per variable, so
    the split leaves the ring to the trace route."""
    n = draw(st.integers(2, 3))
    names = ["x", "y", "z"][:n]
    # two roots in x at least: with one, x_k - x - r is x_k - a - r modulo I
    sizes = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)
                 .filter(lambda s: math.prod(s) <= 16 and s[0] > 1))
    roots = [draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k, unique=True))
             for k in sizes]
    x = Polynomial.variable(0, n)
    h = [math.prod((Polynomial.variable(i, n) - (x if i else 0) - r for r in rs),
                   start=Polynomial.constant(1, n)) for i, rs in enumerate(roots)]
    f = polynomial({e: draw(st.integers(-4, 4)) for e in draw(st.lists(
        st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=5))}, n)
    points = [(a, *(a + b for b in rest)) for a, *rest in itertools.product(*roots)]
    sign = draw(st.sampled_from([1, -1]))
    low = min(evaluate(f, pt) for pt in points)
    f = f + Fraction(sign, 2 ** draw(st.integers(0, 128))) - low
    return problem_io.ProblemInstance(names, f, [], h), sign


class TestTraceRoute:
    """A radical ring with every point real and no g takes the trace route:
    G = M_f H1^-1, one exact solve, no root and no rounding."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_grid_known_answers(self, data):
        inst, sign = data.draw(st.composite(lambda draw: _grid_instances(draw))())
        assert quotient.build_ring(inst.h).grid is None
        if sign > 0:
            cert = certifier.certify(inst)
            assert verify_bounds.verify_certificate(inst, cert).ok
        else:
            with pytest.raises(NotStrictlyPositiveOnS):
                certifier.certify(inst)

    @staticmethod
    def _spy(monkeypatch):
        calls = {"trace_form": 0, "solve_variety": 0, "round_matrix": 0,
                 "certify_strict_nonradical": 0, "_idempotent_step": 0}
        trace_form = quotient.QuotientRing.trace_form

        def counted(ring):
            calls["trace_form"] += 1
            return trace_form.func(ring)
        cached = functools.cached_property(counted)
        cached.__set_name__(quotient.QuotientRing, "trace_form")
        monkeypatch.setattr(quotient.QuotientRing, "trace_form", cached)
        for module, name in ((variety, "solve_variety"), (gram, "round_matrix"),
                             (certifier, "certify_strict_nonradical"),
                             (certifier, "_idempotent_step")):
            def spy(*args, name=name, f=getattr(module, name), **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        return calls

    # y^2 - 2 where the points would otherwise be rational: the split
    # takes those rings (`TestIdempotentSplit`)
    @pytest.mark.parametrize("h, real", [
        (["x^2 - 1", "y^2 - 2"], True),
        (["x^4 - 1", "y^3 - y"], False),  # conj12-like: x = +-i
        (["x^2 - 2", "y^2 - x*y - 3"], True),  # no polynomial in y alone
        (["x^2 + 2", "y^2 - x*y - 3"], False),
        # x^3 + x has complex roots, but the Gröbner element x is what I holds
        (["x^3 + x", "y^2 - 2", "x^2"], True),
    ], ids=["precheck-real", "precheck-complex", "trace-form-real", "trace-form-complex",
            "precheck-minimal-polynomial"])
    def test_which_rings_take_the_route(self, monkeypatch, h, real):
        calls = self._spy(monkeypatch)
        inst = problem_io.ProblemInstance(["x", "y"], poly("x + y + 9"), [],
                                          [poly(p) for p in h])
        ring = quotient.build_ring(inst.h)
        precheck = ring.univariates is not None
        cert = certifier.certify(inst, ring)
        assert verify_bounds.verify_certificate(inst, cert).ok
        # complex points on a precheck ring cost a Sturm count, no trace form;
        # the trace route solves no point and rounds nothing
        assert calls["trace_form"] == (0 if precheck and not real else 1)
        assert (calls["solve_variety"], calls["round_matrix"] > 0) == ((0, False) if real
                                                                      else (1, True))
        assert calls["certify_strict_nonradical"] == 0

    @pytest.mark.parametrize("h, g, route", [
        # one polynomial per variable, every root rational: the split
        (["x^2 - 1", "y^2 - y"], [], (1, 0, 0, 0)),
        (["x^2 - 1", "y^2 - y"], ["1/2 - y"], (1, 0, 0, 0)),
        (["2*x^2 + x - 3", "3*y^3 - 4*y^2 + y"], [], (1, 0, 0, 0)),  # -3/2, 1/3
        # an irrational root: the trace route, or the float route with a g
        (["x^2 - 2", "y^2 - y"], [], (0, 1, 0, 0)),
        (["x^2 - 2", "y^2 - y"], ["1/2 - y"], (0, 0, 1, 1)),
        # an x^2 + 1 factor: the float route
        (["x^4 - 1", "y^2 - y"], [], (0, 0, 1, 1)),
        (["x^3 - x^2 + x - 1", "y^2 - y"], ["1/2 - y"], (0, 0, 1, 1)),
        # rational points, but y - x is not a polynomial in y alone
        (["x^2 - 1", "y - x"], [], (0, 1, 0, 0)),
    ], ids=["split", "split-g", "split-fractions", "irrational", "irrational-g",
            "complex", "complex-g", "not-a-product"])
    def test_which_rings_split(self, monkeypatch, h, g, route):
        # route: (split steps, trace forms, root solves, roundings > 0)
        calls = self._spy(monkeypatch)
        inst = problem_io.ProblemInstance(["x", "y"], poly("x + y + 9"), [poly(p) for p in g],
                                          [poly(p) for p in h])
        assert verify_bounds.verify_certificate(inst, certifier.certify(inst)).ok
        assert (calls["_idempotent_step"], calls["trace_form"], calls["solve_variety"],
                int(calls["round_matrix"] > 0)) == route

    def test_a_float_failure_falls_back(self, monkeypatch):
        # the roots +-10^-200 of 10^400 x^2 - 1 are rational, but the scaled
        # float polynomial loses its constant term: no candidate passes the
        # exact test, and the trace route certifies
        calls = self._spy(monkeypatch)
        inst = problem_io.ProblemInstance(["x"], poly("x + 2", ["x"]), [],
                                          [poly(f"{10 ** 400}*x^2 - 1", ["x"])])
        ring = quotient.build_ring(inst.h)
        assert ring.grid is not None and variety.rational_grid(ring) is None
        assert verify_bounds.verify_certificate(inst, certifier.certify(inst, ring)).ok
        assert (calls["_idempotent_step"], calls["trace_form"]) == (0, 1)

    def test_a_huge_leading_coefficient_takes_the_precheck(self):
        # 2^61 - 1 divides the leading coefficient, and the Sturm chain over Q
        # still proves x alone squarefree with two real roots
        inst = problem_io.ProblemInstance(["x"], poly("1", ["x"]), [],
                                          [poly("2305843009213693951*x^2 - 1", ["x"])])
        ring = quotient.build_ring(inst.h)
        assert ring.univariates is not None
        assert ring.is_radical and "products" not in vars(ring)
        assert verify_bounds.verify_certificate(inst, certifier.certify(inst, ring)).ok

    def test_a_g_keeps_the_float_route(self, monkeypatch):
        calls = self._spy(monkeypatch)
        inst = problem_io.ProblemInstance(["x", "y"], poly("x + y + 9"), [poly("1")],
                                          [poly("x^2 - 1"), poly("y^2 - 2")])
        assert verify_bounds.verify_certificate(inst, certifier.certify(inst)).ok
        assert calls["solve_variety"] == 1
        assert calls["certify_strict_nonradical"] == 0

    def test_zero_at_a_point_is_exact(self):
        # f = 0 at x = 1, a point beside +-sqrt(2): no strict certificate,
        # and no float has to say so
        inst = problem_io.ProblemInstance(["x"], poly("x - 1", ["x"]), [],
                                          [poly("x^3 - x^2 - 2*x + 2", ["x"])])
        with pytest.raises(NotStrictlyPositiveOnS, match="f <= 0 at a real point of V = S"):
            certifier.certify(inst)

    def test_the_matrix_is_the_trace_gram_matrix(self):
        # on x^2 = 1, the points +-1 give V = [[1, 1], [1, -1]] and
        # G = V^-1 diag(f(1), f(-1)) V^-t = [[a + b, a - b], [a - b, a + b]] / 4
        inst = problem_io.ProblemInstance(["x"], poly("x + 3", ["x"]), [],
                                          [poly("x^2 - 1", ["x"])])
        g_blocks, squares, rest, eps = certifier._exact_gram_step(
            inst, quotient.build_ring(inst.h), False)
        assert (g_blocks, eps) == ([], 0)
        # with a = f(1) = 4 and b = f(-1) = 2, B^t G B = 3/2 + x + 3/2 x^2
        total = sum((q * q * w for w, q in squares), Polynomial.zero(1))
        assert total == poly("3/2 + x + 3/2*x^2", ["x"])
        assert normal_form(quotient.build_ring(inst.h), rest).is_zero()


def _multiplicity_instances(draw):
    """prod_k (x - a_k)^(m_k), prod_k (y - b_k)^(n_k) with 1 to 3 distinct
    rational roots per variable and a multiplicity above 1 somewhere, and a
    linear f shifted so that its exact minimum over the grid of roots is m,
    m = 0 or +-2^-j, j in 0..72; returns (instance, m)."""
    x, y = poly("x"), poly("y")
    rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    factors, roots = [], []
    for v in (x, y):
        rs = draw(st.lists(rationals, min_size=1, max_size=3, unique=True))
        ms = draw(st.lists(st.integers(1, 3), min_size=len(rs), max_size=len(rs)))
        factors.append(math.prod(((v - r) ** k for r, k in zip(rs, ms)),
                                 start=Polynomial.constant(1, 2)))
        roots.append((rs, ms))
    if all(k == 1 for _, ms in roots for k in ms):
        factors[0] = factors[0] * (x - roots[0][0][0])
    u, v = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    m = draw(st.sampled_from([0, 1, -1])) * Fraction(1, 2 ** draw(st.integers(0, 72)))
    low = min(u * a + v * b for a in roots[0][0] for b in roots[1][0])
    return problem_io.ProblemInstance(["x", "y"], x * u + y * v + (m - low), [], factors), m


class TestTraceHensel:
    """A non-radical ring whose radical J has only real points, with no g,
    takes the trace route on R/J: G(f) = M_f H1^-1 and G(1) = H1^-1 of R/J
    from one solve, no root, no rounding, and eps the largest power of two
    <= 1 with G(f) - eps G(1) positive definite, below min f."""

    TINY = f"variables x\nf: 2 - x^2 + 1/{10 ** 20}\nh: x^4 - 4*x^2 + 4\n"

    def test_margin_below_float64(self, tmp_path):
        # 10^-20 > 0 at +-sqrt(2), the double roots of (x^2 - 2)^2
        code, verified, cert = _certify_and_verify(str(tmp_path), self.TINY)
        assert (code, verified) == (0, 0)
        inst = problem_io.parse_problem(self.TINY)
        report = verify_bounds.verify_certificate(inst, cert)
        assert (report.max_numerator_bits, report.max_denominator_bits) == (231, 166)

    def test_zero_at_a_multiple_point_is_exact(self, tmp_path, capsys):
        # f = x vanishes at the double root 0 of x^3 - x^2
        prob = tmp_path / "zero.prob"
        prob.write_text("variables x\nf: x\nh: x^3 - x^2\n")
        assert cli.main(["certify", "--input", str(prob)]) == 2
        assert "f <= 0 at a real point of V = S" in capsys.readouterr().err

    @pytest.mark.parametrize("h, mode, solves", [
        (["x^3 - x^2", "y^2 - y"], "strict", 0),
        (["x^3 - y^2", "y^2 + x^2 - 2*x"], "strict", 1),  # the cusp circle: x = -2 +- ...i
        # f > 0 on V gives b = 0: the witness reads no root, and a takes the
        # exact Hensel route
        (["x^3 - x^2", "y^2 - y"], "nonneg", 0),
    ], ids=["all-real", "cusp_circle", "nonneg"])
    def test_solves(self, monkeypatch, h, mode, solves):
        calls = TestTraceRoute._spy(monkeypatch)
        inst = problem_io.ProblemInstance(["x", "y"], poly("x + y + 3"), [],
                                          [poly(p) for p in h], options={"mode": mode})
        cert = certifier.certify(inst)
        assert verify_bounds.verify_certificate(inst, cert).ok
        assert calls["solve_variety"] == solves
        assert (calls["round_matrix"] > 0) == (solves > 0)
        # the exact and the float Gram step both end in the one lift
        assert calls["certify_strict_nonradical"] == 1

    @pytest.mark.parametrize("text", [
        TINY,
        "variables x y\nf: x + y + 1\nh: x^3 - x^2\nh: y^2 - y\n",  # min f = 1: eps = 1/2
        "variables x y\nf: x + 2*y + 5\nh: x^2\nh: y^3 + y^2\n",  # min f = 3: eps = 1
        "variables x\nf: x + 5/8\nh: x^3 - x^2\n",  # min f = 5/8: eps = 1/2
    ], ids=["tiny", "margin_1", "margin_3", "margin_5/8"])
    def test_eps_is_maximal(self, tmp_path, text):
        code, _, cert = _certify_and_verify(str(tmp_path), text)
        assert code == 0
        eps = _lifted_square_eps(text, cert)
        assert eps.numerator == 1 and eps.denominator & (eps.denominator - 1) == 0
        inst = problem_io.parse_problem(text)
        ring_j = quotient.build_ring(inst.h).radical_ring
        g_f, g_1 = certifier._trace_grams(ring_j, ring_j.nf_vector(inst.f), ring_j.unit)

        def shifted(e):  # G(f) - e G(1)
            return gram.SymmetricMatrix(
                [[x * g_1.nu * e.denominator - y * g_f.nu * e.numerator
                  for x, y in zip(row_f, row_1)] for row_f, row_1 in zip(g_f.mat, g_1.mat)],
                g_f.nu * g_1.nu * e.denominator)
        gram.ldlt(shifted(eps))
        if eps < 1:
            with pytest.raises(NotPD):
                gram.ldlt(shifted(2 * eps))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_multiplicity_known_answers(self, data):
        inst, m = data.draw(st.composite(lambda draw: _multiplicity_instances(draw))())
        assert not quotient.build_ring(inst.h).is_radical
        with tempfile.TemporaryDirectory() as tmp:
            prob, out = os.path.join(tmp, "p.prob"), os.path.join(tmp, "p.cert")
            with open(prob, "w") as fh:
                fh.write(format_problem(inst))
            code = cli.main(["certify", "--input", prob, "--out", out])
            if m > 0:
                assert code == 0
                assert cli.main(["verify", "--input", prob, "--certificate", out]) == 0
            else:
                assert code == 2
                assert not os.path.exists(out)


class TestNonnegTraceRoute:
    """In nonneg mode the witness a takes the strict route that f would take:
    with no g on an all-real radical ring, the trace route, with no rounding.
    Only the witness's shift at the zeros of f reads the roots."""

    # f on the 3x3 grid x in {-3, 2, 3}, y in {-1, +-sqrt(2)}: f = 0 at
    # (-3, -1) alone and f > 1/2 at the other eight points.  y = +-sqrt(2)
    # keeps the grid from the split of rational points
    GRID = ("variables x y\nf: -x^2 - x*y + 3*y^2 + 2*x + 3*y + 18{shift}\n"
            "h: x^3 - 2*x^2 - 9*x + 18\nh: y^3 + y^2 - 2*y - 2\n")

    @pytest.mark.parametrize("shift, solves", [("", 1), (" + 1", 0)], ids=["zero", "positive"])
    def test_solves(self, monkeypatch, shift, solves):
        calls = TestTraceRoute._spy(monkeypatch)
        inst = nonneg(problem_io.parse_problem(self.GRID.format(shift=shift)))
        cert = certifier.certify(inst)
        assert verify_bounds.verify_certificate(inst, cert).ok
        assert (calls["solve_variety"], calls["round_matrix"]) == (solves, 0)

    def test_known_answer(self, tmp_path):
        text = self.GRID.format(shift="")
        prob, out = tmp_path / "grid.prob", tmp_path / "grid.cert"
        prob.write_text(text)
        assert cli.main(["certify", "--mode", "nonneg", "--input", str(prob),
                         "--out", str(out)]) == 0
        cert = problem_io.parse_certificate(out.read_text())[0]
        report = verify_bounds.verify_certificate(problem_io.parse_problem(text), cert)
        assert report.ok
        # the trace route's heights on this grid
        assert (report.max_numerator_bits, report.max_denominator_bits,
                report.max_weight_bits) == (47, 10, 89)

    def test_negative_at_a_point(self, tmp_path, capsys):
        # f - 1 = -1 at (-3, -1)
        prob, out = tmp_path / "grid.prob", tmp_path / "grid.cert"
        prob.write_text(self.GRID.format(shift=" - 1"))
        assert cli.main(["certify", "--mode", "nonneg", "--input", str(prob),
                         "--out", str(out)]) == 2
        assert "f < 0 at a point of S" in capsys.readouterr().err
        assert not out.exists()

    # The witness's solve sets a's free column to 0, which can make a exactly
    # 0 at the zero of f: on {0, 1, 2}, a = x/4 at f = 0, 4, 2; on
    # {1/3, 1, 2}, a = (3x - 1)/100 at f = 0, 50, 20, where the float value of
    # a at 1/3 is noise of either sign.  The shift must not trust that noise.
    WITNESS_ZERO = {
        "origin": "variables x\nf: -3*x^2 + 7*x\nh: x^3 - 3*x^2 + 2*x\n",
        "third": "variables x\nf: -63*x^2 + 159*x - 46\nh: 3*x^3 - 10*x^2 + 9*x - 2\n",
    }

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", sorted(WITNESS_ZERO))
    def test_witness_zero_at_a_zero_of_f(self, tmp_path, name, seed):
        text = self.WITNESS_ZERO[name]
        prob, out = tmp_path / "w.prob", tmp_path / "w.cert"
        prob.write_text(text)
        assert cli.main(["certify", "--mode", "nonneg", "--seed", str(seed),
                         "--input", str(prob), "--out", str(out)]) == 0
        assert cli.main(["verify", "--input", str(prob), "--certificate", str(out)]) == 0


def _split_instances(draw):
    """A product ring prod_r (x_k - r) in 1 to 3 variables, D <= 12, whose
    roots are rationals such as -3/2 and 1/3, with or without a linear g,
    and a random f shifted so that its least value over S is 0, +-1,
    +-2^-30 or +-2^-128, in strict or nonneg mode; returns (instance,
    mode, expected exit code), the code from `Fraction` evaluation at the points."""
    mode = draw(st.sampled_from(["strict", "nonneg"]))
    with_g = draw(st.booleans())
    n = draw(st.integers(1, 3))
    names = ["x", "y", "z"][:n]
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)
                 .filter(lambda s: math.prod(s) <= 12))
    rationals = st.sampled_from([Fraction(-3, 2), Fraction(1, 3), Fraction(-2, 5), -2, -1, 0,
                                 1, 2, Fraction(5, 4)])
    roots = [draw(st.lists(rationals, min_size=k, max_size=k, unique=True)) for k in sizes]
    h = [math.prod((Polynomial.variable(i, n) - r for r in rs), start=Polynomial.constant(1, n))
         for i, rs in enumerate(roots)]
    points = list(itertools.product(*roots))
    small = st.integers(-3, 3)
    g = []
    if with_g:
        g = [polynomial({(0,) * n: draw(small), **{tuple(int(k == i) for k in range(n)): draw(small)
                                                   for i in range(n)}}, n)]
    f = polynomial({e: draw(small) for e in draw(st.lists(
        st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=5))}, n)
    in_s = [pt for pt in points if all(evaluate(gi, pt) >= 0 for gi in g)]
    margin = draw(st.sampled_from([0, 1, -1, Fraction(1, 2 ** 30), Fraction(-1, 2 ** 30),
                                   Fraction(1, 2 ** 128), Fraction(-1, 2 ** 128)]))
    if in_s:
        f = f + margin - min(evaluate(f, pt) for pt in in_s)
    low = min((evaluate(f, pt) for pt in in_s), default=1)
    code = 0 if (low > 0 if mode == "strict" else low >= 0) else 2
    return problem_io.ProblemInstance(names, f, g, h), mode, code


class TestIdempotentSplit:
    """A radical ring whose reduced Gröbner basis is one polynomial per
    variable with only rational roots takes the split f = sum f(xi) e_xi^2:
    every sign is exact, so no margin is too small and nothing exits 3."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_known_answers(self, data):
        inst, mode, expected = data.draw(st.composite(lambda draw: _split_instances(draw))())
        assert variety.rational_grid(quotient.build_ring(inst.h)) is not None
        with tempfile.TemporaryDirectory() as tmp:
            prob, out = os.path.join(tmp, "p.prob"), os.path.join(tmp, "p.cert")
            with open(prob, "w") as fh:
                fh.write(format_problem(inst))
            assert cli.main(["certify", "--mode", mode, "--input", prob, "--out", out]) == expected
            if expected == 0:
                assert cli.main(["verify", "--input", prob, "--certificate", out]) == 0
            else:
                assert not os.path.exists(out)
