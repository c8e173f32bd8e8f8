import functools
import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from soscert import exactla, problem_io, quotient
from soscert.errors import ConditionFailed, NotInvertible, NotZeroDimensional
from soscert.polyring import Polynomial, grevlex, parse_polynomial

from conftest import (cofactor_polys, divide, fractions, load_problem, mat_vec, normal_form, polynomial,
                      primitive, radical_roots, reference_divide, reference_express_in_generators,
                      reference_groebner, reference_mult_matrices, reference_nullspace,
                      reference_witness)


def poly(s, names=("x", "y")):
    return parse_polynomial(s, list(names))


@pytest.fixture
def circle_pair_ring():
    # x^2 = 1, y^2 = x + 2: four simple real points
    ideal = quotient.groebner([poly("x^2 - 1"), poly("y^2 - x - 2")])
    return quotient.monomial_basis(ideal)


@pytest.fixture
def cusp_ring():
    ideal = quotient.groebner([poly("x^3 - y^2"), poly("x^2 - 2*x + y^2")])
    return quotient.monomial_basis(ideal)


class TestDivision:
    def test_remainder_not_divisible(self):
        q, r = divide(poly("x^2*y + x"), [poly("x^2 - 1")])
        assert q[0] == poly("y")
        assert r == poly("x + y")

    def test_reconstruction(self):
        divisors = [poly("x^2 - 1"), poly("x*y - 2")]
        p = poly("x^3*y - 4*x + y^2")
        qs, r = divide(p, divisors)
        total = r
        for qi, d in zip(qs, divisors):
            total = total + qi * d
        assert total == p


def _check_division(p, divisors):
    qs, r = divide(p, divisors)
    ref_qs, ref_r = reference_divide(p, divisors)
    assert qs == ref_qs
    assert r == ref_r
    total = r
    for qi, d in zip(qs, divisors):
        total = total + qi * d
    assert total == p


def _polys(nvars, max_exp, max_terms, coefficients):
    @st.composite
    def draw_poly(draw):
        terms = {}
        for _ in range(draw(st.integers(1, max_terms))):
            exps = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
            terms[exps] = draw(coefficients)
        return polynomial(terms, nvars)
    return draw_poly()


_small_rationals = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def zero_dimensional_generators(draw):
    """x_i^d_i plus lower-degree terms for every variable: the leading terms
    include a pure power of each, so the ideal is zero-dimensional.  With
    two or more variables the first generator is then replaced by itself
    plus a multiple of the last: the ideal is the same, but the leading
    terms need not be coprime, so the generators are in general no Gröbner
    basis."""
    nvars = draw(st.integers(1, 3))
    gens = []
    for i in range(nvars):
        d = draw(st.integers(1, 3 if nvars < 3 else 2))
        tail = draw(_polys(nvars, d - 1, 3, _small_rationals))
        tail = Polynomial({e: c for e, c in tail.ints.items() if sum(e) < d}, tail.den, nvars)
        gens.append(Polynomial.variable(i, nvars) ** d + tail)
    if nvars > 1:
        gens[0] = gens[0] + draw(_polys(nvars, 1, 2, _small_rationals)) * gens[-1]
    return gens


@st.composite
def zero_dimensional_division(draw):
    gens = draw(zero_dimensional_generators())
    p = draw(_polys(gens[0].nvars, 4, 6, _small_rationals))
    return p, quotient.groebner(gens).gb


@settings(max_examples=40, deadline=None)
@given(zero_dimensional_division())
def test_division_matches_reference_on_groebner_bases(case):
    _check_division(*case)


@settings(max_examples=60, deadline=None)
@given(_polys(2, 3, 6, _small_rationals),
       st.lists(_polys(2, 2, 3, _small_rationals), min_size=1, max_size=3))
@example(poly("2/3*x*y + 2*y + 1"), [poly("-y - 1/2"), poly("x - 1")])
def test_division_matches_reference_on_non_monic_divisors(p, divisors):
    # the example deletes the constant term (from y by the first divisor)
    # while it is queued, and the second divisor's step on x re-creates it
    _check_division(p, divisors)


@settings(max_examples=40, deadline=None)
@given(zero_dimensional_generators(), st.lists(_small_rationals, min_size=3, max_size=3))
def test_groebner_matches_the_fraction_buchberger(gens, scalars):
    # each generator times a rational, so none is monic or integral
    gens = [h * c for h, c in zip(gens, scalars)]
    assert quotient.groebner(gens).gb == reference_groebner(gens)


def _graded_by_definition(ideal):
    """Every Groebner element g is sum_j r_j h_j with deg(r_j h_j) <= deg(g):
    the cofactors solve at those caps first and escalate only when that fails."""
    return all(r.is_zero() or r.degree + h.degree <= g.degree
               for g, cofactors in zip(ideal.gb, cofactor_polys(ideal))
               for r, h in zip(cofactors, ideal.generators))


class TestGroebner:
    def test_generators_reduce_to_zero(self, circle_pair_ring):
        ideal = circle_pair_ring.ideal
        for g in ideal.generators:
            assert ideal.contains(g)

    def test_membership(self, circle_pair_ring):
        ideal = circle_pair_ring.ideal
        combo = poly("y") * ideal.generators[0] + poly("x - 3") * ideal.generators[1]
        assert ideal.contains(combo)
        assert not ideal.contains(poly("x"))

    def test_graded_flag(self, circle_pair_ring, cusp_ring):
        assert circle_pair_ring.ideal.is_graded
        assert cusp_ring.ideal.is_graded

    @pytest.mark.parametrize("gens,graded", [
        (["x - y^2", "y^3"], False),  # x^2 needs a cofactor of degree 2 on y^3
        (["x", "x - 1"], False),  # 1 = x - (x - 1) only with degree-1 products
        (["2", "x^2 + y"], True),
        (["x^3 - y^2", "x^2 - 2*x + y^2"], True),
    ])
    def test_graded_named_cases(self, gens, graded):
        ideal = quotient.groebner([poly(h) for h in gens])
        assert ideal.is_graded == graded == _graded_by_definition(ideal)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_polys(2, 2, 4, st.integers(-2, 2).filter(bool)), min_size=2, max_size=3))
    def test_graded_matches_its_definition(self, gens):
        ideal = quotient.groebner(gens)
        try:
            quotient.monomial_basis(ideal)
        except NotZeroDimensional:
            assume(False)
        assert ideal.is_graded == _graded_by_definition(ideal)

    def test_not_zero_dimensional(self):
        ideal = quotient.groebner([poly("x*y - 1")])
        with pytest.raises(NotZeroDimensional):
            quotient.monomial_basis(ideal)


def _scaled_generator(g, generators):
    """The index of the first generator h with g = h / lc(h), or None."""
    return next((j for j, h in enumerate(generators) if h * (1 / h.leading_coefficient()) == g),
                None)


class TestLazyCofactors:
    def test_built_on_first_read(self, monkeypatch):
        calls = []
        express = quotient._express_in_generators
        monkeypatch.setattr(quotient, "_express_in_generators",
                            lambda g, gens, caps: calls.append(g) or express(g, gens, caps))
        ideal = quotient.groebner([poly("x^3 - y^2"), poly("x^2 - 2*x + y^2")])
        quotient.monomial_basis(ideal)
        assert ideal.is_graded
        assert calls == []  # the graded test reads the top-degree forms alone
        assert len(ideal.gb_cofactors) == len(ideal.gb)
        # x^2 - 2x + y^2 is the first element, a generator: its row is a
        # scalar; the second, x^3 + x^2 - 2x, takes a solve
        solved = [r for g, r in zip(ideal.gb, ideal.reducers)
                  if _scaled_generator(g, ideal.generators) is None]
        assert calls == solved == ideal.reducers[1:]
        ideal.gb_cofactors
        assert calls == solved  # one solve per element that is no scaled generator, once


class TestQuotientRing:
    def test_basis_four_points(self, circle_pair_ring):
        assert circle_pair_ring.D == 4
        assert circle_pair_ring.basis == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_basis_cusp(self, cusp_ring):
        assert cusp_ring.D == 6
        assert cusp_ring.basis == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (2, 1)]

    def test_normal_form_idempotent(self, circle_pair_ring):
        p = poly("x^5*y^3 - 2*x + 1")
        n = normal_form(circle_pair_ring, p)
        assert normal_form(circle_pair_ring, n) == n
        assert circle_pair_ring.ideal.contains(p - n)

    def test_normal_form_multiplicative_mod_ideal(self, circle_pair_ring):
        r = circle_pair_ring
        p, q = poly("x^2 + y"), poly("x*y - 3")
        lhs = normal_form(r, p * q)
        rhs = normal_form(r, normal_form(r, p) * normal_form(r, q))
        assert lhs == rhs

    def test_mult_matrix_consistency(self, circle_pair_ring):
        r = circle_pair_ring
        rows, d = r.mult_matrix(r.nf_vector(poly("x")))
        assert all(type(x) is int for row in rows for x in row)
        v = fractions(r.nf_vector(poly("y")))
        prod = [Fraction(x, d) for x in mat_vec(rows, v)]
        assert prod == fractions(r.nf_vector(poly("x*y")))


# denominators 1, 2^k and odd ones
DENOMINATORS = st.one_of(st.just(1), st.integers(1, 70).map(lambda k: 2 ** k),
                         st.integers(1, 10 ** 6).map(lambda k: 2 * k + 1))


class TestSquare:
    """`QuotientRing.square` moves the content of a square into its weight:
    w' q'^2 = w (v / den)^2 with q' primitive, integer, and of positive
    leading coefficient."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=4, max_size=4).filter(any),
           st.integers(1, 2 ** 40), DENOMINATORS,
           st.fractions(min_value=0, max_value=1000, max_denominator=10 ** 6))
    # a negative leading entry: the content is -6 / 7
    @example([0, 6, 0, -12], 1, 7, Fraction(1, 3))
    def test_same_square_primitive_positive(self, v, scale, den, w):
        ring = mul_ring("radical")
        v = [scale * x for x in v]
        w2, q2 = ring.square(w, v, den)
        assert w2 * q2 ** 2 == w * ring.from_vector(v, den) ** 2
        assert w2 >= 0 and (w2 == 0) == (w == 0)
        assert q2.den == 1 and math.gcd(*q2.ints.values()) == 1
        assert q2.leading_coefficient() > 0
        assert q2.leading_monomial() == ring.basis[max(i for i, x in enumerate(v) if x)]

    def test_content_signed_by_the_last_nonzero_entry(self):
        assert quotient.content([4, -6, 0]) == -2
        assert quotient.content([-4, 6, 0]) == 2
        assert quotient.content([0, 0, 5]) == 5


@settings(max_examples=60, deadline=None)
@given(zero_dimensional_generators())
def test_monomial_basis_is_the_brute_force_staircase(gens):
    # every tuple up to the largest pure power among the Gröbner leading
    # monomials that none of them divides, grevlex ascending
    ideal = quotient.groebner(gens)
    lead = [e for e, _, _ in ideal.reducers]
    top = max(sum(e) for e in lead if max(e) == sum(e))
    expected = sorted((e for e in itertools.product(range(top + 1), repeat=ideal.nvars)
                       if not any(all(map(operator.le, m, e)) for m in lead)), key=grevlex)
    assert quotient.monomial_basis(ideal).basis == expected


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@given(max_degree=st.integers(0, 6))
def test_monomials_upto_is_the_filtered_product(nvars, max_degree):
    got = quotient.monomials_upto(nvars, max_degree)
    expected = sorted((e for e in itertools.product(range(max_degree + 1), repeat=nvars)
                       if sum(e) <= max_degree), key=grevlex)
    assert got == expected and len(got) == math.comb(nvars + max_degree, max_degree)


class TestCofactorReduce:
    def test_identity(self, cusp_ring):
        p = poly("x^4 - y^3 + 2*x")
        cof = quotient.cofactor_reduce(cusp_ring, p)
        assert cof.remainder == normal_form(cusp_ring, p)
        total = cof.remainder
        for pj, hj in zip(cof.p_j, cusp_ring.ideal.generators):
            total = total + pj * hj
        assert total == p

    def test_graded_degree_caps(self, cusp_ring):
        p = poly("x^4")
        cof = quotient.cofactor_reduce(cusp_ring, p)
        for pj, hj in zip(cof.p_j, cusp_ring.ideal.generators):
            if not pj.is_zero():
                assert (pj * hj).degree <= p.degree


# named witness cases: tests/data problems and those below, with the
# expected (a, b, gamma) where it is short
_WITNESS_CASES = [
    ("cusp_circle", None),
    ("scaled_witness", None),
    ("double_origin", "ConditionFailed"),
    ("zero_f", ("2", "1", 1)),  # (I : 0) = R: a = 0, b = 1, then a is shifted
    ("empty_variety", ("0", "0", 1)),  # D = 0
    ("non_radical", None),  # f is a unit at the double root
]
_WITNESS_PROBLEMS = {
    "empty_variety": "variables x\nf: x\nh: x\nh: x - 1\n",
    "non_radical": "variables x y\nf: x - 1\nh: x^3 - x^2\nh: y^2 - y\n",
}


class TestWitness:
    def test_cusp_witness_matches_known_triple(self, cusp_ring):
        a, b, gamma = quotient.coprimality_witness(cusp_ring, poly("x"), radical_roots(cusp_ring))
        # (a, b, gamma) is a scalar multiple of (1 + x, 2 - x - x^2, 2)
        scale = gamma / 2
        assert a == poly("1 + x") * scale
        assert b == poly("2 - x - x^2") * scale
        # defining identity a*f + b = gamma mod I
        lhs = normal_form(cusp_ring, a * poly("x") + b)
        assert lhs == Polynomial.constant(gamma, 2)

    def test_condition_failed(self):
        ring = quotient.monomial_basis(
            quotient.groebner([parse_polynomial("x^2", ["x"])]))
        with pytest.raises(ConditionFailed):
            quotient.coprimality_witness(ring, parse_polynomial("x", ["x"]), radical_roots(ring))

    @pytest.mark.parametrize("seed", range(4))
    def test_shift_where_a_is_zero_at_a_zero_of_f(self, seed):
        # on {1/3, 1, 2} the solve gives a = (3x - 1)/100, exactly 0 at the
        # zero 1/3 of f, where its float value is noise of either sign
        inst = problem_io.parse_problem(
            "variables x\nf: -63*x^2 + 159*x - 46\nh: 3*x^3 - 10*x^2 + 9*x - 2\n")
        ring = quotient.build_ring(inst.h)
        a, b, gamma = quotient.coprimality_witness(ring, inst.f, radical_roots(ring, seed))
        at_third = sum(Fraction(c, a.den) * Fraction(1, 3) ** e for (e,), c in a.ints.items())
        assert at_third > 0
        assert normal_form(ring, a * inst.f + b - gamma).is_zero()

    @pytest.mark.parametrize("name, expected", _WITNESS_CASES,
                             ids=[name for name, _ in _WITNESS_CASES])
    def test_matches_the_block_system(self, name, expected):
        inst = (problem_io.parse_problem(_WITNESS_PROBLEMS[name]) if name in _WITNESS_PROBLEMS
                else load_problem(f"{name}.prob"))
        ring = quotient.monomial_basis(quotient.groebner(inst.h))
        got = _witness_or_failure(quotient.coprimality_witness, ring, inst.f, radical_roots(ring))
        assert got == _witness_or_failure(reference_witness, ring, inst.f)
        if expected == "ConditionFailed":
            assert got == expected
            return
        a, b, gamma = got
        assert normal_form(ring, a * inst.f + b - gamma).is_zero()
        assert normal_form(ring, b * inst.f).is_zero()
        if expected is not None:
            names = inst.var_names
            assert (a, b, gamma) == (poly(expected[0], names), poly(expected[1], names),
                                     expected[2])


def _witness_or_failure(witness, *args):
    try:
        return witness(*args)
    except ConditionFailed:
        return "ConditionFailed"


@st.composite
def witness_cases(draw):
    """A grid ring (p(x), q(y)): each of p and q has one or two integer
    roots, the first possibly double, and possibly the factor v^2 + 1.  f
    is a small polynomial, possibly times a factor that vanishes at some
    points of the grid."""
    x, y = poly("x"), poly("y")

    def univariate(v):
        roots = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2, unique=True))
        p = (v - roots[0]) ** draw(st.integers(1, 2))
        for r in roots[1:]:
            p = p * (v - r)
        return p * (v * v + 1) if draw(st.booleans()) else p

    ring = quotient.monomial_basis(quotient.groebner([univariate(x), univariate(y)]))
    factor = draw(st.sampled_from([poly("1"), x, y - 1, x * (y + 1)]))
    return ring, factor * draw(small_polys())


@settings(max_examples=30, deadline=None)
@given(witness_cases())
def test_witness_matches_the_block_system_on_grids(case):
    ring, f = case
    got = _witness_or_failure(quotient.coprimality_witness, ring, f, radical_roots(ring))
    assert got == _witness_or_failure(reference_witness, ring, f)


class TestInverse:
    def test_inverse(self, circle_pair_ring):
        f = poly("x + 3")
        inv = quotient.inverse_mod(circle_pair_ring, f)
        assert normal_form(circle_pair_ring, f * inv) == poly("1")

    def test_not_invertible(self, circle_pair_ring):
        with pytest.raises(NotInvertible):
            quotient.inverse_mod(circle_pair_ring, poly("x - 1"))


class TestRadical:
    def test_radical_ideal_unchanged(self, circle_pair_ring):
        for g in quotient.radical_generators(circle_pair_ring):
            assert circle_pair_ring.ideal.contains(g)
        assert circle_pair_ring.is_radical
        assert circle_pair_ring.radical_ring is circle_pair_ring

    def test_double_point(self):
        ring = quotient.monomial_basis(
            quotient.groebner([parse_polynomial("x^2", ["x"])]))
        gens = quotient.radical_generators(ring)
        # B = {1, x}: t = (Tr M_1, Tr M_x) = (2, 0), so H1 = [[2, 0], [0, 0]]
        # and its kernel adds x
        assert gens[1:] == [parse_polynomial("x", ["x"])]
        assert not ring.is_radical
        rad = quotient.monomial_basis(quotient.groebner(gens))
        assert rad.D == 1
        assert rad.ideal.contains(parse_polynomial("x", ["x"]))

    def test_power_chain(self):
        x = parse_polynomial("x", ["x"])
        target = quotient.groebner([parse_polynomial("x^3", ["x"])])
        rad = quotient.groebner([x])
        chain = quotient.ideal_power_chain(rad, target)
        # J^2 = (x^2), then J^4 = (x^4) which is contained in (x^3)
        assert len(chain) == 2
        assert chain[0].ideal.contains(x * x)
        assert not chain[0].ideal.contains(x)
        assert chain[1].ideal.contains(x ** 4)

    def test_empty_chain_for_radical(self):
        x = parse_polynomial("x", ["x"])
        rad = quotient.groebner([x])
        assert quotient.ideal_power_chain(rad, rad) == []


@st.composite
def small_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        exps = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[exps] = Fraction(draw(st.integers(-20, 20)))
    return polynomial(terms, 2)


@settings(max_examples=25, deadline=None)
@given(small_polys(), small_polys())
def test_normal_form_linear(p, q):
    ideal = quotient.groebner([parse_polynomial("x^2 - 1", ["x", "y"]),
                               parse_polynomial("y^2 - x - 2", ["x", "y"])])
    ring = quotient.monomial_basis(ideal)
    assert normal_form(ring, p + q) == normal_form(ring, p) + normal_form(ring, q)


# -- one normal form: the cached monomial map against full division ------------

RINGS = {
    "radical": ["x^2 - 1", "y^2 - x - 2"],
    "multiple": ["x^3 - x^2", "y^3 - 2*y^2"],
    "conjugate": ["x^2 - 2*x + 2", "y^2 + y + 1"],
}


@functools.cache
def built_ring(name):
    return quotient.monomial_basis(quotient.groebner([poly(h) for h in RINGS[name]]))


@st.composite
def high_degree_polys(draw, max_exp):
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        exps = (draw(st.integers(0, max_exp)), draw(st.integers(0, max_exp)))
        terms[exps] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
    return polynomial(terms, 2)


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_normal_form_matches_division(name, data):
    # exponents up to 2 deg B + 2 reach monomials that only M_k NF(m) gives
    ring = built_ring(name)
    p = data.draw(high_degree_polys(2 * ring.degree_of_basis() + 2))
    expected = reference_divide(p, ring.ideal.gb)[1]
    assert normal_form(ring, p) == expected


def test_normal_form_never_divides_once_the_ring_is_built(monkeypatch):
    ring = quotient.monomial_basis(quotient.groebner([poly(h) for h in RINGS["multiple"]]))
    p = poly("x^9*y^7 - 3*x^5*y^11 + 2*x*y - 1")
    expected = divide(p, ring.ideal.gb)[1]
    ring.mult_matrices  # the first read builds the border from the Gröbner tails

    def refuse(*args):
        raise AssertionError("division after the ring was built")

    monkeypatch.setattr(quotient, "_divide", refuse)
    assert normal_form(ring, p) == expected
    assert not ring.is_radical


@pytest.mark.parametrize("gens,names", [
    (["x^3 - y^2", "x^2 - 2*x + y^2"], ("x", "y")),
    (["x^2 - 1", "y^2 - y", "z^2 - 4"], ("x", "y", "z")),
], ids=["cusp_circle", "cube3"])
def test_normal_forms_leave_the_multiplication_matrices_unbuilt(gens, names):
    # every normal form comes from the Gröbner tails; only the root solver
    # reads the matrices of the variables
    ring = quotient.monomial_basis(quotient.groebner([poly(h, names) for h in gens]))
    ring.products
    p = poly(" + ".join(names) + " - 2", names) ** (2 * ring.degree_of_basis() + 1)
    assert ring.from_vector(*ring.nf_vector(p)) == reference_divide(p, ring.ideal.gb)[1]
    assert "mult_matrices" not in ring.__dict__


@pytest.mark.parametrize("gens", [RINGS[name] for name in sorted(RINGS)]
                         + [["x^3 - y^2", "x^2 - 2*x + y^2"], ["3*x^2 - 1", "2*y^2 - x"]],
                         ids=sorted(RINGS) + ["cusp_circle", "3x^2-1,2y^2-x"])
def test_mult_matrices_never_divide(gens, monkeypatch):
    ring = quotient.monomial_basis(quotient.groebner([poly(h) for h in gens]))
    expected = reference_mult_matrices(ring)

    def refuse(*args):
        raise AssertionError("division while the border was built")

    monkeypatch.setattr(quotient, "_divide", refuse)
    assert ring.mult_matrices == expected


@settings(max_examples=40, deadline=None)
@given(st.one_of(zero_dimensional_generators(),
                 st.lists(_polys(2, 2, 4, st.integers(-2, 2).filter(bool)), min_size=2, max_size=3)))
def test_border_matches_division(gens):
    try:
        ring = quotient.monomial_basis(quotient.groebner(gens))
    except NotZeroDimensional:
        assume(False)
    assert ring.mult_matrices == reference_mult_matrices(ring)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4, unique=True),
       st.integers(1, 3), st.integers(2, 3), st.integers(-2, 2))
def test_border_matches_division_on_radical_rings(roots, k, m, c):
    # (x - a)^k (x - b), (y - c')^m (y - d) + c (x - a)(x - b): not radical,
    # so J adds generators and its reduced Gröbner basis is new
    a, b, cy, d = roots
    x, y = poly("x"), poly("y")
    ring = quotient.monomial_basis(quotient.groebner(
        [(x - a) ** k * (x - b), (y - cy) ** m * (y - d) + (x - a) * (x - b) * c]))
    assert not ring.is_radical
    assert ring.radical_ring.mult_matrices == reference_mult_matrices(ring.radical_ring)


def _cofactor_reference(ideal):
    """The dense Fraction system's cofactors of each Gröbner element, but
    for an element g = h_j / lc(h_j), the first such generator, the row
    with 1 / lc(h_j) at j alone."""
    rows = []
    for g in ideal.gb:
        j = _scaled_generator(g, ideal.generators)
        if j is None:
            rows.append(reference_express_in_generators(
                g, ideal.generators, [g.degree - h.degree for h in ideal.generators]))
        else:
            rows.append([Polynomial.constant(1 / h.leading_coefficient() if k == j else 0, g.nvars)
                         for k, h in enumerate(ideal.generators)])
    return rows


@pytest.mark.parametrize("gens, escalates", [
    (["x^3 - y^2", "x^2 - 2*x + y^2"], False),  # the cusp circle
    (["x^2 + y^2 - 1", "x*y - 1/2"], False),
    (["x - y^2", "y^3"], True),
    (["x", "x - 1"], True),  # the unit ideal
], ids=["cusp_circle", "circle_hyperbola", "x-y^2,y^3", "unit"])
def test_cofactors_match_the_dense_fraction_system(gens, escalates, monkeypatch):
    ideal = quotient.groebner([poly(h) for h in gens])
    expected = _cofactor_reference(ideal)
    failed = []
    solve = exactla.solve
    monkeypatch.setattr(exactla, "solve", lambda a, b: failed.append(solve(a, b)) or failed[-1])
    assert cofactor_polys(ideal) == expected
    assert (None in failed) == escalates


@settings(max_examples=30, deadline=None)
@given(st.one_of(zero_dimensional_generators(),
                 st.lists(_polys(2, 2, 3, _small_rationals), min_size=1, max_size=3)))
def test_cofactors_match_the_dense_fraction_system_on_random_ideals(gens):
    ideal = quotient.groebner(gens)
    assert cofactor_polys(ideal) == _cofactor_reference(ideal)


# -- the radical against known answers -----------------------------------------


def _check_radical(gens, squarefree, n_points, radical):
    """R/I for the generators: its radical ring has the n_points distinct
    points and the Gröbner basis of the known squarefree generators, and I
    is radical exactly when `radical`."""
    ring = quotient.monomial_basis(quotient.groebner(gens))
    assert ring.is_radical == radical
    ring_j = ring.radical_ring
    assert ring_j.D == n_points
    assert ring_j.ideal.gb == quotient.groebner(squarefree).gb
    assert ring_j.is_radical
    return ring


@settings(max_examples=12, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4, unique=True),
       st.integers(1, 3), st.integers(1, 3))
def test_radical_of_products(roots, k, m):
    # (x - a)^k (x - b), (y - c)^m (y - d): four simple points
    a, b, c, d = roots
    x, y = poly("x"), poly("y")
    _check_radical([(x - a) ** k * (x - b), (y - c) ** m * (y - d)],
                   [(x - a) * (x - b), (y - c) * (y - d)], 4, k == m == 1)


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 5), st.integers(-3, 3), st.integers(1, 2))
def test_radical_of_a_squared_conjugate_factor(c, a, k):
    # (x^2 + c)^k (x - a): a conjugate pair, double when k = 2, and a real point
    x = parse_polynomial("x", ["x"])
    _check_radical([(x * x + c) ** k * (x - a)], [(x * x + c) * (x - a)], 3, k == 1)


def test_radical_of_the_cusp_circle_ring():
    # 6 roots counted with multiplicity: the origin twice, (1, +-1) and the
    # conjugate pair (-2, +-2 sqrt(2) i).  The radical adds the squarefree
    # polynomials that vanish at the distinct x and at the distinct y.
    gens = [poly("x^3 - y^2"), poly("x^2 - 2*x + y^2")]
    ring = _check_radical(gens, gens + [poly("x^3 + x^2 - 2*x"), poly("y^5 + 7*y^3 - 8*y")],
                          5, False)
    assert ring.D == 6


# -- the exact radical, and the integer normal-form table ----------------------


def _exact_radical(ring):
    """The rational kernel of H1 by Fraction elimination, each vector
    scaled to primitive integers."""
    products = [[fractions(v) for v in row] for row in ring.products]
    t = [sum((row[i][i] for i in range(ring.D)), Fraction(0)) for row in products]
    h1 = [mat_vec(row, t) for row in products]
    return list(ring.ideal.generators) + [ring.from_vector(primitive(c))
                                          for c in reference_nullspace(h1)]


def _ring(gens, names=("x", "y")):
    return quotient.monomial_basis(quotient.groebner([poly(h, names) for h in gens]))


@pytest.mark.parametrize("gens, names", [
    (["x^2 - 1", "y^2 - 1", "z^2 - 1"], ("x", "y", "z")),  # the 3-cube
    (RINGS["conjugate"], ("x", "y")),  # two conjugate pairs
])
def test_radical_rings_need_no_rational_elimination(gens, names, monkeypatch):
    ring = _ring(gens, names)

    def refuse(*args, **kwargs):
        raise AssertionError("rational elimination on a radical ring")

    monkeypatch.setattr(exactla, "rref", refuse)
    assert ring.is_radical
    assert ring.radical == ring.ideal.generators


@pytest.mark.parametrize("gens, names", [
    (["x^3 - x^2"], ("x",)),
    (["x^3 - y^2", "x^2 - 2*x + y^2"], ("x", "y")),  # the cusp-circle ring
])
def test_non_radical_rings_keep_their_radical(gens, names, monkeypatch):
    ring = _ring(gens, names)
    seen = _spy(monkeypatch, "nullspace", exactla)
    assert quotient.radical_generators(ring) == _exact_radical(ring)
    # one exact kernel, of the integer, symmetric H1
    ((h1,),) = seen
    assert all(isinstance(x, int) and x == h1[j][i]
               for i, row in enumerate(h1) for j, x in enumerate(row))
    assert len(ring.radical) > len(ring.ideal.generators)


# -- Seidenberg's lemma before the trace form ----------------------------------


def _spy(monkeypatch, name, module=quotient):
    calls = []
    f = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or f(*args))
    return calls


@pytest.mark.parametrize("name, trace_form", [
    ("excluded_grid.prob", False),  # x^4 - 5x^2 + 4 and y^3 - y: squarefree
    ("four_points.prob", True),  # y^2 - x - 2: no polynomial in y alone
    ("rational_mixed.prob", True),  # no polynomial in one variable alone
])
def test_which_rings_take_the_trace_form(name, trace_form, monkeypatch):
    ring = quotient.build_ring(load_problem(name).h)
    calls = _spy(monkeypatch, "nullspace", exactla)
    assert ring.is_radical
    # off the precheck, the exact kernel of H1 decides
    assert len(calls) == trace_form
    # the product table is built by its first reader, here the trace form
    assert ("products" in vars(ring)) == trace_form


def test_a_double_root_under_a_huge_leading_coefficient_is_not_radical(monkeypatch):
    # (P x + 1)^2 (x - 2), P = 2^61 - 1, has the double root -1/P: the Sturm
    # chain ends at gcd(f, f') = P x + 1, so the trace form decides
    x = parse_polynomial("x", ["x"])
    ring = quotient.build_ring([(x * (2**61 - 1) + 1) ** 2 * (x - 2)])
    calls = _spy(monkeypatch, "_trace_kernel")
    assert not ring.is_radical and len(calls) == 1
    assert ring.radical_ring.D == 2


def test_one_repeated_variable_is_not_radical(monkeypatch):
    # x^2 - 1 is squarefree but y^3 - y^2 is not: the trace form decides
    ring = _ring(["x^2 - 1", "y^3 - y^2"])
    calls = _spy(monkeypatch, "_trace_kernel")
    assert not ring.is_radical and len(calls) == 1
    assert ring.radical_ring.D == 4


@settings(max_examples=15, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), min_size=1, max_size=3,
                         unique_by=lambda f: f[0]), min_size=1, max_size=2),
       st.sampled_from([None, 1, 2]))
def test_the_precheck_agrees_with_the_trace_form(factors, square):
    # one product of (x_k - r)^m per variable, the first times (x_1^2 + 2)^square
    names = ["x", "y"][:len(factors)]
    gens = []
    for k, roots in enumerate(factors):
        x = parse_polynomial(names[k], names)
        h = (x * x + 2) ** square if square and k == 0 else Polynomial.constant(1, len(names))
        for r, m in roots:
            h = h * (x - r) ** m
        gens.append(h)
    ring = quotient.build_ring(gens)
    assume(ring.D <= 24)
    radical = all(m == 1 for roots in factors for _, m in roots) and square != 2
    assert ring.is_radical == radical
    # only the trace form reads the product table
    assert ("products" in vars(ring)) != radical
    assert (not quotient._trace_kernel(ring)) == radical


def _monomial_product_reference(ring, m):
    """NF(m) = M^alpha NF(1), one Fraction mat_vec per variable factor."""
    v = [Fraction(int(not any(b))) for b in ring.basis]
    for k, e in enumerate(m):
        rows, d = ring.mult_matrices[k]
        for _ in range(e):
            v = mat_vec([[Fraction(x, d) for x in row] for row in rows], v)
    return v


@pytest.mark.parametrize("ring", [
    pytest.param(lambda: quotient.monomial_basis(
        quotient.groebner(load_problem("scaled_witness.prob").h)), id="scaled_witness"),
    pytest.param(lambda: _ring(["3*x^2 - 1", "2*y^2 - x"]), id="3x^2-1,2y^2-x"),
])
def test_products_match_fraction_reference(ring):
    ring = ring()
    assert any(d > 1 for _, d in ring.mult_matrices)
    for bi, row in zip(ring.basis, ring.products):
        for bj, (ints, den) in zip(ring.basis, row):
            expected = _monomial_product_reference(ring, tuple(map(sum, zip(bi, bj))))
            assert all(type(x) is int for x in ints)
            assert den > 0 and math.gcd(den, *ints) == 1  # lowest terms
            assert fractions((ints, den)) == expected
    # one ring vector per unordered pair: entry (j, i) is entry (i, j)
    table = ring.products
    assert all(table[j][i] is table[i][j] for i in range(ring.D) for j in range(ring.D))


# -- products in R/I read off the product table ---------------------------------

MUL_RINGS = {
    "radical": ["x^2 - 1", "y^2 - x - 2"],
    "cusp": ["x^3 - y^2", "x^2 - 2*x + y^2"],  # not radical: a cusp at the origin
    "unit": ["x", "x - 1"],  # D = 0
}


@functools.cache
def mul_ring(name):
    return quotient.monomial_basis(quotient.groebner([poly(h) for h in MUL_RINGS[name]]))


@pytest.mark.parametrize("name", sorted(MUL_RINGS))
@settings(max_examples=25, deadline=None)
@given(p=high_degree_polys(3), q=high_degree_polys(3))
def test_mul_and_mult_matrix_read_the_product_table(name, p, q):
    ring = mul_ring(name)
    assert ring.is_radical == (name != "cusp")
    nf_p = ring.nf_vector(p)
    product = ring.mul(nf_p, ring.nf_vector(q))
    assert ring.from_vector(*product) == reference_divide(p * q, ring.ideal.gb)[1]
    assert product == ring.nf_vector(p * q)
    # column j of the matrix of p is NF(p b_j), in integers over d
    rows, d = ring.mult_matrix(nf_p)
    assert len(rows) == ring.D and all(type(x) is int for row in rows for x in row)
    for j, b in enumerate(ring.basis):
        column = [Fraction(row[j], d) for row in rows]
        assert column == fractions(ring.nf_vector(p * polynomial({b: 1}, 2)))


# -- the Sturm chain and the trace form ------------------------------------------


@pytest.mark.parametrize("coeffs, count", [
    ({0: -6, 1: 11, 2: -6, 3: 1}, 3),  # (x - 1)(x - 2)(x - 3): all real
    ({0: -1, 1: 1, 2: -1, 3: 1}, 1),  # (x - 1)(x^2 + 1): a pair of complex roots
    ({0: 1, 2: 1}, 0),  # x^2 + 1
    ({0: 2 ** 100 - 1, 1: -2 ** 101, 2: 2 ** 100}, 2),  # roots 1 +- 2^-50, 2^-49 apart
    ({0: 1, 2: -2 ** 101 - 1, 4: 2 ** 200}, 4),  # (2^100 x^2 - 1)^2 - x^2: roots near +-2^-50
    ({1: -3, 2: 2}, 2),  # x (2x - 3), no constant term
    ({0: -5, 1: 7}, 1),
], ids=["three-real", "complex-pair", "no-real", "split-2^-50", "split-pairs", "zero-root",
        "linear"])
def test_real_root_count(coeffs, count):
    assert quotient.sturm(coeffs)[0] == count


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), max_size=4, unique=True),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 4)), max_size=2),
       st.integers(1, 3))
def test_real_root_count_of_products(roots, quadratics, scale):
    # prod (x - r) prod ((x - a)^2 + b): the distinct r and no other real root
    x = poly("x", ("x",))
    p = Polynomial.constant(scale, 1)
    for r in roots:
        p = p * (x - r)
    for a, b in quadratics:
        p = p * ((x - a) * (x - a) + b)
    assume(p.degree > 0)
    assert quotient.sturm({e[0]: c for e, c in p.ints.items()})[0] == len(roots)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), max_size=4, unique=True),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 4)), max_size=2, unique=True),
       st.integers(1, 3), st.data())
def test_sturm_is_squarefree_unless_a_root_repeats(roots, quadratics, scale, data):
    # distinct x - r and irreducible (x - a)^2 + b, one of them maybe squared
    x = poly("x", ("x",))
    factors = [x - r for r in roots] + [(x - a) * (x - a) + b for a, b in quadratics]
    assume(factors)
    square = data.draw(st.sampled_from([None, *range(len(factors))]))
    p = Polynomial.constant(scale, 1)
    for f in factors + ([factors[square]] if square is not None else []):
        p = p * f
    assert quotient.sturm({e[0]: c for e, c in p.ints.items()}) == (len(roots), square is None)


@pytest.mark.parametrize("name", ["four_points.prob", "rational_mixed.prob", "cusp_circle.prob"])
def test_trace_form_matches_fraction_reference(name):
    ring = quotient.build_ring(load_problem(name).h)
    products = [[fractions(v) for v in row] for row in ring.products]
    t = [sum((row[i][i] for i in range(ring.D)), Fraction(0)) for row in products]
    h1, den = ring.trace_form
    assert [[Fraction(x, den) for x in row] for row in h1] == [mat_vec(row, t) for row in products]
