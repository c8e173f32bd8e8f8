import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soscert import problem_io, quotient, verify_bounds
from soscert.problem_io import Certificate
from soscert.polyring import Polynomial, grevlex, parse_polynomial

from conftest import load_certificate, polynomial, reference_residual


def poly(s, names=("x", "y")):
    return parse_polynomial(s, list(names))


@st.composite
def _certificates(draw):
    """(inst, cert) with g blocks, empty blocks, zero squares, distinct
    weight denominators, and squares whose supports overlap (drawn from a
    few monomials) or are disjoint (shifted apart in the first variable)."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    coeffs = st.fractions(min_value=-2 ** 40, max_value=2 ** 40, max_denominator=2 ** 20)
    polys = st.dictionaries(exps, coeffs, max_size=4).map(lambda terms: polynomial(terms, n))
    g = draw(st.lists(polys, max_size=2))
    h = draw(st.lists(polys, min_size=1, max_size=2))
    inst = problem_io.ProblemInstance([f"x{i}" for i in range(n)], draw(polys), g, h)
    weights = st.fractions(min_value=0, max_value=2 ** 30, max_denominator=2 ** 30)
    blocks = []
    for i in range(draw(st.integers(0, 1 + len(g)))):
        blocks.append([])
        for k in range(draw(st.integers(0, 4))):
            terms = draw(st.dictionaries(exps, coeffs, max_size=5))
            if draw(st.booleans()):
                shift = 3 * (1 + k + 5 * i)
                terms = {(e[0] + shift, *e[1:]): c for e, c in terms.items()}
            blocks[-1].append((draw(weights), polynomial(terms, n)))
    return inst, Certificate("strict", blocks, draw(st.lists(polys, max_size=len(h))))


class TestResidual:
    @settings(max_examples=100, deadline=None)
    @given(_certificates())
    def test_equals_the_per_square_expansion(self, case):
        # the same polynomial, with its terms in the same order, so that a
        # float evaluation of it sums them in the same order too
        inst, cert = case
        got, ref = verify_bounds.residual(inst, cert), reference_residual(inst, cert)
        assert got == ref
        assert list(got.ints.items()) == list(ref.ints.items())


class TestVerifyCertificate:
    def test_transcribed_certificate(self, four_points):
        cert = load_certificate("four_points_strict.cert")
        report = verify_bounds.verify_certificate(four_points, cert)
        assert report.identity_ok
        assert report.weights_ok
        assert report.degree_bound_ok

    def test_negated_weight_flags_weights_only(self, four_points):
        cert = load_certificate("four_points_strict.cert")
        w, q = cert.blocks[1][0]
        mutant = Certificate(cert.mode,
                             [cert.blocks[0], [(-w, q)] + cert.blocks[1][1:]],
                             cert.cofactors)
        report = verify_bounds.verify_certificate(four_points, mutant)
        assert not report.weights_ok
        assert not report.identity_ok  # the identity also moved
        assert report.first_failure() == "identity"

    def test_perturbed_cofactor_breaks_identity(self, four_points):
        cert = load_certificate("four_points_strict.cert")
        bumped = cert.cofactors[0] + Polynomial.constant(Fraction(1), 2)
        mutant = Certificate(cert.mode, cert.blocks,
                             [bumped, cert.cofactors[1]])
        report = verify_bounds.verify_certificate(four_points, mutant)
        assert not report.identity_ok
        assert report.weights_ok

    def test_mutation_kill(self, four_points):
        rng = random.Random(12345)
        cert = load_certificate("four_points_strict.cert")
        for _ in range(20):
            i = rng.randrange(len(cert.blocks))
            k = rng.randrange(len(cert.blocks[i]))
            w, q = cert.blocks[i][k]
            mon = rng.choice(sorted(q.ints, key=grevlex))
            mutated = q + polynomial({mon: Fraction(1, rng.randint(1, 7))}, 2)
            blocks = [list(b) for b in cert.blocks]
            blocks[i][k] = (w, mutated)
            report = verify_bounds.verify_certificate(
                four_points, Certificate(cert.mode, blocks, cert.cofactors))
            assert not report.identity_ok

    def test_nonneg_mode_without_witnesses_flagged(self, four_points):
        cert = load_certificate("four_points_strict.cert")
        report = verify_bounds.verify_certificate(
            four_points, Certificate("nonneg", cert.blocks, cert.cofactors))
        assert report.mode_ok is False

    def test_wrong_witness_flagged(self, cusp_circle):
        # q = f r modulo I fails once r changes by a unit, and only that
        # clause fails: the squares and the identity are untouched
        cert = load_certificate("golden/cusp_circle-nonneg.cert")
        assert verify_bounds.verify_certificate(cusp_circle, cert).mode_ok
        witnesses = cert.witnesses[:-1] + [cert.witnesses[-1] + Polynomial.constant(1, 2)]
        report = verify_bounds.verify_certificate(
            cusp_circle, Certificate("nonneg", cert.blocks, cert.cofactors, witnesses, cert.gamma))
        assert report.identity_ok and report.mode_ok is False


def binary_cube_instance(n, f, g=None):
    names = [f"x{i+1}" for i in range(n)]
    h = [parse_polynomial(f"{v}^2 - {v}", names) for v in names]
    return problem_io.ProblemInstance(names, parse_polynomial(f, names),
                                      [parse_polynomial(s, names) for s in (g or [])],
                                      h)


class TestDegreeBounds:
    def test_four_points_bound_is_five(self, four_points):
        ring = quotient.build_ring(four_points.h)
        report = verify_bounds.degree_bounds(four_points, ring)
        assert report.cofactor_degree_bound == 5
        assert report.hierarchy_order == 3
        assert report.basis_degree == 2
        assert report.quotient_dimension == 4

    def test_binary_cube_with_linear_g(self):
        inst = binary_cube_instance(3, "x1 + x2 + x3 + 1", ["x1 - x2"])
        ring = quotient.build_ring(inst.h)
        report = verify_bounds.degree_bounds(inst, ring)
        # deg B = n = 3 and a linear inequality: order n + 1
        assert report.basis_degree == 3
        assert report.hierarchy_order == 4

    def test_binary_cube_without_g(self):
        inst = binary_cube_instance(3, "x1*x2*x3 + 1")
        ring = quotient.build_ring(inst.h)
        report = verify_bounds.degree_bounds(inst, ring)
        assert report.hierarchy_order == 3

    def test_constant_f(self, four_points):
        inst = problem_io.ProblemInstance(four_points.var_names, poly("5"),
                                          four_points.g, four_points.h)
        ring = quotient.build_ring(inst.h)
        report = verify_bounds.degree_bounds(inst, ring)
        assert report.cofactor_degree_bound == 5  # g-term dominates

    def test_monotone_in_degrees(self, four_points):
        ring = quotient.build_ring(four_points.h)
        base = verify_bounds.degree_bounds(four_points, ring)
        bigger = problem_io.ProblemInstance(
            four_points.var_names, poly("x^4*y^3"), four_points.g, four_points.h)
        report = verify_bounds.degree_bounds(bigger, ring)
        assert report.cofactor_degree_bound >= base.cofactor_degree_bound


class TestRingTables:
    def test_strict_verify_and_bounds_never_divide(self, four_points, monkeypatch):
        # the degree bound reads B and is_graded alone: no M_k, no division
        # outside the Groebner completion
        rings = []
        build_ring = quotient.build_ring
        monkeypatch.setattr(quotient, "build_ring",
                            lambda gens: rings.append(build_ring(gens)) or rings[-1])
        completing = []
        groebner, divide = quotient.groebner, quotient._divide

        def traced_groebner(gens):
            completing.append(True)
            try:
                return groebner(gens)
            finally:
                completing.pop()

        def traced_divide(*args):
            assert completing, "division outside the Groebner completion"
            return divide(*args)

        monkeypatch.setattr(quotient, "groebner", traced_groebner)
        monkeypatch.setattr(quotient, "_divide", traced_divide)
        report = verify_bounds.verify_certificate(
            four_points, load_certificate("four_points_strict.cert"))
        assert report.ok and report.degree_bound_ok
        ring, = rings
        assert verify_bounds.degree_bounds(four_points, ring).cofactor_degree_bound == 5
        assert "mult_matrices" not in ring.__dict__

