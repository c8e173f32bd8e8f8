import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soscert.errors import ParseError
from soscert import polyring
from soscert.polyring import (Polynomial, evaluate, format_polynomial, grevlex, height,
                              parse_polynomial, round_binary)
from soscert.problem_io import parse_problem

from conftest import (Monomial, ReferencePolynomial, polynomial, reference_evaluate,
                      reference_format, reference_height, reference_parse_polynomial, terms)


def poly(s, names=("x", "y")):
    return parse_polynomial(s, list(names))


coeffs = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**3)


@st.composite
def polynomials(draw, nvars=2, max_degree=4, max_terms=6, coeffs=coeffs):
    coeffs_of = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_degree)) for _ in range(nvars))
        coeffs_of[exps] = draw(coeffs)
    return polynomial(coeffs_of, nvars)


class TestMonomialOrder:
    """`polyring.grevlex` on exponent tuples, the one monomial order."""

    def test_degree_dominates(self):
        assert grevlex((1, 0)) < grevlex((0, 2))

    def test_lower_variables_precede(self):
        # x-heavy monomials come first within a degree
        assert grevlex((2, 0)) < grevlex((0, 2))
        assert grevlex((2, 0)) < grevlex((1, 1))
        # reverse lexicographic: the last variable decides first
        assert grevlex((2, 0, 1)) < grevlex((1, 2, 0))

    def test_total_order_on_degree_two(self):
        mons = sorted([(0, 2), (1, 1), (2, 0)], key=grevlex)
        assert mons == [(2, 0), (1, 1), (0, 2)]

    def test_division(self):
        # the monomial algebra of the reference implementations (conftest)
        assert Monomial((1, 2)).divides(Monomial((2, 2)))
        assert not Monomial((3, 0)).divides(Monomial((2, 2)))
        assert Monomial((2, 2)) / Monomial((1, 2)) == Monomial((1, 0))


class TestArithmetic:
    def test_ring_identities(self):
        p = poly("3/2*x^2*y - x + 7")
        q = poly("x*y - 2")
        assert (p + q) - q == p
        assert p * Polynomial.zero(2) == Polynomial.zero(2)
        assert p * poly("1") == p

    @settings(max_examples=50)
    @given(polynomials(), polynomials(), polynomials())
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=50)
    @given(polynomials(), polynomials())
    def test_degree_of_product(self, p, q):
        if p.is_zero() or q.is_zero():
            assert (p * q).is_zero()
        else:
            assert (p * q).degree == p.degree + q.degree

    def test_pow(self):
        p = poly("x + y")
        assert p ** 2 == p * p
        assert p ** 0 == poly("1")

    @settings(max_examples=30)
    @given(polynomials(), polynomials(), st.lists(coeffs, min_size=2, max_size=2))
    def test_evaluation_is_homomorphic(self, p, q, pt):
        assert evaluate(p * q, pt) == evaluate(p, pt) * evaluate(q, pt)
        assert evaluate(p + q, pt) == evaluate(p, pt) + evaluate(q, pt)


class TestExactCoefficients:
    def test_integers_are_stored_as_fractions(self):
        p = polynomial({(1, 0): 1, (0, 1): 0}, 2)
        assert p.terms == {Monomial((1, 0)): Fraction(1)}
        assert all(type(c) is Fraction for c in p.terms.values())
        assert all(type(c) is Fraction for c in (p * 3 - 2).terms.values())

    def test_terms_view_keys_expose_exponent_tuples(self):
        # the interface that perfbench's self-test reads: each key's
        # `.exponents` tuple and a Fraction per key, a new dict on each read
        p = poly("3/2*x^2*y - x + 7")
        view = p.terms
        assert all(type(m) is polyring.Monomial and type(m.exponents) is tuple
                   and type(c) is Fraction for m, c in view.items())
        assert {m.exponents: c for m, c in view.items()} == {
            (2, 1): Fraction(3, 2), (1, 0): -1, (0, 0): 7}
        assert max(m.exponents[0] for m in view) == 2
        assert view == p.terms and view is not p.terms
        assert repr(next(iter(view))) == "Monomial(2, 1)"


    def test_evaluate_at_a_complex_point(self):
        # an exact polynomial at a float point computes float(c) * x^e
        p = poly("3/7*x^2*y - 5*x*y^3 + 2/3*y + 11")
        z = [complex(0.3, -1.1), complex(-2.0, 0.25)]
        expected = 0
        for m, c in p.terms.items():
            v = float(c)
            for x, e in zip(z, m.exponents):
                if e:
                    v = v * x ** e
            expected = expected + v
        assert evaluate(p, z) == expected

    @settings(max_examples=80)
    @given(st.one_of(polynomials(), polynomials(max_degree=0, max_terms=1)),
           st.sampled_from([float, complex]), st.data())
    def test_float_evaluation_is_the_fraction_loop_bit_for_bit(self, p, kind, data):
        # the loop evaluate replaced dispatched Fraction * x per term; its
        # callers took a constant's Fraction value as float() or complex()
        floats = st.floats(-4, 4)
        pt = [kind(*(data.draw(floats) for _ in range(1 if kind is float else 2)))
              for _ in range(2)]
        expected = 0
        for m, c in p.terms.items():
            v = c
            for x, e in zip(pt, m.exponents):
                if e:
                    v = v * x ** e
            expected = expected + v
        value = evaluate(p, pt)
        assert isinstance(value, (float, complex))
        assert repr(kind(value)) == repr(kind(expected))


class TestScalars:
    """Ints, Fractions and floats are constants, floats taken exactly;
    anything else is neither a constant nor equal to a polynomial."""

    def test_numbers_are_exact_constants(self):
        p = poly("x + 1")
        assert p + 0.1 == p + Fraction(0.1) and Fraction(0.1) != Fraction(1, 10)
        assert p * 0.5 == p / 2 and 2 - p == poly("1 - x")
        assert Polynomial.constant(3, 2) == 3 and Polynomial.constant(0.25, 2) == Fraction(1, 4)

    @pytest.mark.parametrize("other", ["1", "1/2", None, [1], b"1", 1j], ids=repr)
    def test_non_numbers_are_not_equal(self, other):
        one = Polynomial.constant(1, 1)
        assert (one == other) is False and (one != other) is True
        assert one in [other, one] and [other, one].index(one) == 1

    @pytest.mark.parametrize("other", ["1", "1/2", None, b"1", 1j], ids=repr)
    def test_arithmetic_with_a_non_number_raises(self, other):
        p = poly("x + 1")
        for op in (lambda: p + other, lambda: other + p, lambda: p - other,
                   lambda: other - p, lambda: p * other, lambda: other * p,
                   lambda: p / other, lambda: p ** other,
                   lambda: Polynomial.constant(other, 2)):
            with pytest.raises(TypeError):
                op()


# coefficients far beyond float64's 53 bits, so that c / den and the
# common denominator meet large integers
big_coeffs = st.fractions(min_value=-2 ** 70, max_value=2 ** 70, max_denominator=2 ** 64)
scalars = st.one_of(st.integers(-5, 5), big_coeffs)


def _check_lowest(p):
    """The integer form's invariant: lowest terms over a positive den, with
    no zero numerator stored."""
    assert p.den > 0 and all(p.ints.values())
    assert math.gcd(p.den, *p.ints.values()) == 1


def _same(p, ref):
    _check_lowest(p)
    assert p.nvars == ref.nvars and p.terms == ref.terms


class TestAgainstTheFractionReference:
    """The integer Polynomial against the Fraction one it replaced
    (`conftest.ReferencePolynomial`), operation by operation."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(polynomials(), polynomials(coeffs=big_coeffs)),
           st.one_of(polynomials(), polynomials(coeffs=big_coeffs)),
           scalars, st.integers(0, 3))
    def test_arithmetic(self, p, q, c, k):
        rp, rq = ReferencePolynomial(terms(p), 2), ReferencePolynomial(terms(q), 2)
        _same(p + q, rp + rq)
        _same(p - q, rp - rq)
        _same(-p, -rp)
        _same(p * q, rp * rq)
        _same(p ** k, rp ** k)
        _same(p * c, rp * c)
        _same(c * p, c * rp)
        _same(p + c, rp + c)
        _same(c - p, c - rp)
        if c:
            _same(p / c, rp / c)
        assert (p == q) == (rp == rq)
        assert (p == c) == (rp == c)
        twin = (p + q) - q  # equal to p, built another way
        assert twin == p and hash(twin) == hash(p)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(polynomials(), polynomials(coeffs=big_coeffs)))
    def test_queries(self, p):
        ref = ReferencePolynomial(terms(p), 2)
        assert p.degree == ref.degree
        info = height(p)
        assert (info.numerator_height, info.denominator_height) == reference_height(ref)
        assert all(type(c) is Fraction for c in p.terms.values())
        if not p.is_zero():
            assert p.leading_monomial() == ref.leading_monomial().exponents
            assert p.leading_coefficient() == ref.leading_coefficient()

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(polynomials(), polynomials(coeffs=big_coeffs)),
           st.lists(big_coeffs, min_size=2, max_size=2), st.data())
    def test_evaluate(self, p, rational_point, data):
        ref = ReferencePolynomial(terms(p), 2)
        assert evaluate(p, rational_point) == reference_evaluate(ref, rational_point)
        floats = st.floats(-4, 4)
        for kind in (float, complex):
            pt = [kind(*(data.draw(floats) for _ in range(1 if kind is float else 2)))
                  for _ in range(2)]
            assert repr(evaluate(p, pt)) == repr(reference_evaluate(ref, pt))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(polynomials(), polynomials(coeffs=big_coeffs)))
    def test_parse_of_format(self, p):
        text = format_polynomial(p, ["x", "y"])
        assert text == reference_format(ReferencePolynomial(terms(p), 2), ["x", "y"])
        back = parse_polynomial(text, ["x", "y"])
        _check_lowest(back)
        assert back == p and back.terms == reference_parse_polynomial(text, ["x", "y"]).terms


class TestParseFormat:
    def test_grammar(self):
        p = parse_polynomial("3/2*x1^2*x2 - x3 + 7", ["x1", "x2", "x3"])
        assert p.terms == {Monomial((2, 1, 0)): Fraction(3, 2), Monomial((0, 0, 1)): -1,
                           Monomial((0, 0, 0)): 7}

    def test_double_star_power(self):
        assert poly("x**2 + y") == poly("x^2 + y")

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            poly("x + z")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            poly("x + $")

    @pytest.mark.parametrize("text", ["x^4/2", "x^2/1", "x**3/3"])
    def test_fraction_exponent(self, text):
        with pytest.raises(ParseError, match="exponent must be a nonnegative integer"):
            poly(text)

    def test_zero_denominator_exponent(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_problem("variables x\nf: x^1/0 + 1\nh: x^2 - 1\n")

    @pytest.mark.parametrize("text", ["*x", "x + *y", "x - *2", "x * * y", "x*"])
    def test_star_without_factor(self, text):
        with pytest.raises(ParseError):
            poly(text)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(["x", "y", "x1", "z", "_", "0", "1", "2", "10", "/", "*",
                                     "**", "^", "+", "-", " "]), max_size=14),
           st.integers(0, 14), st.sampled_from(["", "$", "é", ".", "٣"]))
    @example(["x^1/2"], 0, "")
    @example(["x^1/0 + "], 1, "$")
    @example(["x * + ", " 1/0"], 1, "$")
    @example(["x ", "^ 2/1"], 1, "é")
    def test_agrees_with_the_reference(self, pieces, at, stray):
        # equal polynomials, or the same error with the same message
        pieces.insert(at, stray)
        text = "".join(pieces)

        def outcome(parse):
            try:
                return parse(text, ["x", "y", "x1"]).terms
            except (ParseError, ZeroDivisionError) as exc:
                return type(exc), str(exc)

        assert outcome(parse_polynomial) == outcome(reference_parse_polynomial)

    @settings(max_examples=60)
    @given(polynomials())
    def test_round_trip(self, p):
        text = format_polynomial(p, ["x", "y"])
        assert parse_polynomial(text, ["x", "y"]) == p

    def test_reduced_rationals(self):
        assert format_polynomial(poly("2/4*x"), ["x", "y"]) == "1/2*x"


class TestHeight:
    def test_example(self):
        info = height(poly("3*x - 1/2"))
        assert info.numerator_height == 3  # max scaled numerator is 6
        assert info.denominator_height == 2

    def test_integer_poly_has_no_denominator(self):
        info = height(poly("5*x^2 - 3"))
        assert info.denominator_height == 0

    @settings(max_examples=40)
    @given(polynomials())
    def test_nonnegative(self, p):
        info = height(p)
        assert info.numerator_height >= 0
        assert info.denominator_height >= 0


class TestRounding:
    def test_round_binary_rounds_to_nearest(self):
        assert round_binary(1.4999, 1) == Fraction(3, 2)
        assert round_binary(1.2, 1) == Fraction(1)
        assert round_binary(0.3, 2) == Fraction(1, 4)
        assert round_binary(-0.3, 2) == Fraction(-1, 4)
        assert round_binary(Fraction(-5, 8), 2) == Fraction(-1, 2)  # ties to even
        # a near-integer rounds to the integer, not a 2^-bits step below it
        assert round_binary(1 - 2.0 ** -53, 32) == round_binary(1 - 2.0 ** -40, 32) == 1
        # past float64's 1074 fractional bits every float rounds to itself
        assert round_binary(-2.0 ** 1000 / 3, 2048) == Fraction(-2.0 ** 1000 / 3)
        assert round_binary(5e-324, 2048) == Fraction(5e-324)

    def test_exact_dyadic_fixed_point(self):
        assert round_binary(0.75, 4) == Fraction(3, 4)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-100, 100), st.integers(1, 40))
    def test_error_bound(self, x, bits):
        r = round_binary(x, bits)
        assert abs(Fraction(x) - r) <= Fraction(1, 2 ** (bits + 1))
