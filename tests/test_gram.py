import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soscert import cli, exactla, gram, problem_io, quotient, variety, verify_bounds
from soscert.errors import NotPD, PrecisionExceeded
from soscert.polyring import Polynomial, evaluate, parse_polynomial, round_scaled

from conftest import (data_path, determinant, from_rational, normal_form, polynomial, rational,
                      reconstruct, reference_ldlt)


def poly(s, names=("x",)):
    return parse_polynomial(s, list(names))


def make_ring(gens, names):
    return quotient.monomial_basis(
        quotient.groebner([parse_polynomial(g, names) for g in gens]))


class TestLdlt:
    def test_known_factorization(self):
        squares = gram.ldlt(from_rational([[2, 1], [1, 2]]))
        # pivots nu Delta_k Delta_{k-1} = 2, 6; L's columns (2, 1), (0, 3)
        assert squares == [(Fraction(1, 2), [2, 1]), (Fraction(1, 6), [0, 3])]
        assert reconstruct(squares) == [[Fraction(2), Fraction(1)],
                                         [Fraction(1), Fraction(2)]]

    def test_not_pd(self):
        with pytest.raises(NotPD) as exc:
            gram.ldlt(from_rational([[1, 2], [2, 1]]))
        assert exc.value.index == 2

    def test_zero_leading_minor_is_not_pd(self):
        # an indefinite matrix with a zero first pivot: no pivoting is tried
        with pytest.raises(NotPD) as exc:
            gram.ldlt(from_rational([[0, 1], [1, 1]]))
        assert exc.value.index == 1

    def test_rank_deficient_is_not_pd(self):
        for q, k in (([[0, 0], [0, 1]], 1), ([[0, 0], [0, 0]], 1), ([[1, 1], [1, 1]], 2)):
            with pytest.raises(NotPD) as exc:
                gram.ldlt(from_rational(q))
            assert exc.value.index == k

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_reconstruct_random_pd(self, n, data):
        a = [[Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 9)))
              for _ in range(n)] for _ in range(n)]
        q = [[sum(a[k][i] * a[k][j] for k in range(n))
              + (1 if i == j else 0) for j in range(n)] for i in range(n)]
        squares = gram.ldlt(from_rational(q))
        assert reconstruct(squares) == q
        assert all(w > 0 for w, _ in squares)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_factors_exactly_the_positive_definite(self, n, data):
        # random symmetric integer matrices, singular and indefinite ones
        # included: ldlt returns exactly when every leading minor is > 0,
        # and otherwise raises NotPD at the first minor <= 0
        entries = st.integers(-4, 4)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = data.draw(st.integers(-2, 9))
            for j in range(i):
                m[i][j] = m[j][i] = data.draw(entries)
        q = [[Fraction(x) for x in row] for row in m]
        minors = [determinant([row[:k] for row in q[:k]]) for k in range(1, n + 1)]
        first = next((k for k, d in enumerate(minors, 1) if d <= 0), None)
        if first is None:
            assert reconstruct(gram.ldlt(from_rational(q))) == q
        else:
            with pytest.raises(NotPD) as exc:
                gram.ldlt(from_rational(q))
            assert exc.value.index == first


    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7), st.data())
    def test_equals_the_entrywise_update(self, n, data):
        # random integer PD matrices a a^t + I over a random nu: the
        # one-triangle update gives the squares of the entry-by-entry one
        a = [[data.draw(st.integers(-99, 99)) for _ in range(n)] for _ in range(n)]
        m = [[sum(a[i][k] * a[j][k] for k in range(n)) + (i == j) for j in range(n)]
             for i in range(n)]
        q = gram.SymmetricMatrix(m, data.draw(st.integers(1, 2 ** 40)))
        assert gram.ldlt(q) == reference_ldlt(q)


class TestGramProjection:
    def test_projection_lands_in_set(self):
        ring = make_ring(["x^2 - 1"], ["x"])
        p = poly("x + 3")
        lp = gram.GramVariety(ring, p)
        start = from_rational([[1, 0], [0, 1]])
        y = gram.project_to_gram(lp, start)
        yr = rational(y)
        # membership: sum_ij Y_ij b_i b_j = p mod I
        from soscert.polyring import Polynomial
        accp = Polynomial.zero(1)
        basis_polys = [ring.from_vector([int(k == t) for k in range(ring.D)])
                       for t in range(ring.D)]
        for i in range(ring.D):
            for j in range(ring.D):
                accp = accp + basis_polys[i] * basis_polys[j] * yr[i][j]
        assert normal_form(ring, accp) == normal_form(ring, p)

    def test_projection_is_identity_on_members(self):
        ring = make_ring(["x^2 - 1"], ["x"])
        p = poly("x + 3")
        lp = gram.GramVariety(ring, p)
        member = from_rational([[Fraction(3, 2), Fraction(1, 2)],
                                [Fraction(1, 2), Fraction(3, 2)]])
        # a SymmetricMatrix is kept in lowest terms, so equal matrices compare equal
        assert gram.SymmetricMatrix([[6, 2], [2, 6]], 4) == member
        y = gram.project_to_gram(lp, member)
        assert rational(y) == rational(member)


_SPARSE_CASES = {
    "cube3": (["x^2 - x", "y^2 - y", "z^2 - z"], "x + 2*y - z + 3"),
    "grid3x3": (["x^3 - 3*x^2 + 2*x", "y^3 - 3*y^2 + 2*y"], "x*y - x + 2*y + 1"),
    "conjugate": (["x^4 + x^2 - 2", "y^3 - y"], "x^2 + x*y + 3"),
    "scaled": (["3*x^2 - 1", "2*y^2 - x"], "1/5*x*y + 2"),  # den > 1 in A and b
}
_GRAM_SETS = {}


def gram_set(name):
    """(ring, Gram set of f) for one of the cases, built once."""
    if name not in _GRAM_SETS:
        gens, f = _SPARSE_CASES[name]
        names = ["x", "y", "z"] if name == "cube3" else ["x", "y"]
        ring = make_ring(gens, names)
        _GRAM_SETS[name] = ring, gram.GramVariety(ring, parse_polynomial(f, names))
    return _GRAM_SETS[name]


def check_correction(lp, q):
    """A y = b exactly, y = q off row and column 0, and y is a fixed point."""
    y = gram.project_to_gram(lp, q)
    yr, qr = rational(y), rational(q)
    for row, bj in zip(lp.A, lp.b):
        assert sum(Fraction(x, lp.den) * yr[i][j] for (i, j), x in row) == Fraction(bj, lp.b_den)
    assert all(yr[i][j] == yr[j][i] for i in range(lp.D) for j in range(lp.D))
    assert all(yr[i][j] == qr[i][j] for i in range(1, lp.D) for j in range(1, lp.D))
    assert gram.project_to_gram(lp, y) == y


class TestSparseProjection:
    def test_rows_are_sparse(self):
        _, lp = gram_set("cube3")
        assert len(lp.A) == 8
        assert sum(len(row) for row in lp.A) < len(lp.A) * (8 * 9 // 2) // 4
        assert all(x != 0 for row in lp.A for _, x in row)

    @pytest.mark.parametrize("name", sorted(_SPARSE_CASES))
    def test_rows_from_the_product_table(self, name, monkeypatch):
        # one row per basis monomial, read from NF(b_i b_j), and a
        # correction, with no elimination anywhere
        ring, _ = gram_set(name)
        f = parse_polynomial(_SPARSE_CASES[name][1], ["x", "y", "z"][:ring.nvars])
        monkeypatch.setattr(exactla, "rref", lambda *a, **k: pytest.fail("rref called"))
        lp = gram.GramVariety(ring, f)
        assert len(lp.A) == len(lp.b) == lp.D == ring.D
        # 1 = b_0 in B: the unknown (0, j) is e_j with weight 1 or 2
        for j, row in enumerate(lp.A):
            assert [(u, x) for u, x in row if u[0] == 0] == [((0, j), lp.den * (1 if j == 0 else 2))]
        q = from_rational(
            [[Fraction((3 * (i + j) + i * j) % 7 - 3, 1 + (i + j) % 4) for j in range(lp.D)]
             for i in range(lp.D)])
        check_correction(lp, q)

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(sorted(_SPARSE_CASES)), st.integers(0, 40), st.data())
    def test_correction_on_random_matrices(self, name, frac_bits, data):
        _, lp = gram_set(name)
        d = lp.D
        entries = data.draw(st.lists(st.integers(-2 ** 20, 2 ** 20),
                                     min_size=d * d, max_size=d * d))
        rows = [[Fraction(entries[min(i, j) * d + max(i, j)], 2 ** frac_bits)
                 for j in range(d)] for i in range(d)]
        check_correction(lp, from_rational(rows))


class TestGramRest:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(_SPARSE_CASES)), st.integers(0, 12), st.data())
    def test_equals_the_residual_of_the_squares(self, name, nu_bits, data):
        # p - B^t Q0 B is p minus the LDL^t squares of Q0, expanded.  With
        # p = B^t Q0 B + f h_1, Q0 is in the Gram set of p, so the Gram step
        # factors Q0 itself and its rest is f h_1
        ring, _ = gram_set(name)
        names = ["x", "y", "z"][:ring.nvars]
        f = parse_polynomial(_SPARSE_CASES[name][1], names)
        d = ring.D
        a = [data.draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d)) for _ in range(d)]
        m = [[sum(r[i] * r[j] for r in a) + (i == j) for j in range(d)] for i in range(d)]
        q0 = gram.SymmetricMatrix(m, data.draw(st.integers(1, 2 ** nu_bits)))
        in_ideal = f * ring.ideal.generators[0]
        p = in_ideal
        for bi, row in zip(ring.basis, q0.mat):
            for bj, x in zip(ring.basis, row):
                p = p + polynomial({tuple(map(sum, zip(bi, bj))): Fraction(x, q0.nu)}, ring.nvars)
        squares, rest = gram.gram_squares(gram.GramVariety(ring, p), q0)
        inst = problem_io.ProblemInstance(names, p, [], ring.ideal.generators)
        assert rest == verify_bounds.residual(inst, problem_io.Certificate("strict", [squares], []))
        assert rest == in_ideal


class TestRoundAndCertify:
    def test_strictly_positive_input(self):
        ring = make_ring(["x^2 - 1"], ["x"])
        var = variety.solve_variety(ring)
        squares, rest = gram.round_and_certify(ring, var, poly("x + 3"))
        assert len(squares) == ring.D and all(w > 0 for w, _ in squares)
        total = Polynomial.zero(1)
        for w, q in squares:
            total = total + q * q * w
        # the squares give f modulo I, and rest is f minus the squares
        assert normal_form(ring, total - poly("x + 3")).is_zero()
        assert rest == poly("x + 3") - total

    def test_negative_input_rejected(self):
        ring = make_ring(["x^2 - 1"], ["x"])
        var = variety.solve_variety(ring)
        with pytest.raises(Exception) as exc:
            gram.round_and_certify(ring, var, poly("x - 3"))
        assert not isinstance(exc.value, AssertionError)


class TestThetaColumns:
    def test_real_gram_matches_values(self):
        ring = make_ring(["x^2 - 1", "y^2 - x - 2"], ["x", "y"])
        var = variety.solve_variety(ring)
        p = parse_polynomial("x + y + 3", ["x", "y"])
        q_tilde = gram.build_gram_real(ring, var, p)
        assert np.min(np.linalg.eigvalsh(q_tilde)) > 0
        assert len(var.real) == 4
        for xi in var.real:
            b_vals = variety._eval_basis(ring, xi)
            val = b_vals @ q_tilde @ b_vals
            assert abs(val - evaluate(p, xi)) < 1e-7

    def test_pair_columns_follow_the_real_ones(self):
        # x^2 - 1, y^2 + 1: no real point, two conjugate pairs, and still
        # B^t Q~ B = p at every point, the conjugates included
        ring = make_ring(["x^2 - 1", "y^2 + 1"], ["x", "y"])
        var = variety.solve_variety(ring)
        p = parse_polynomial("x + y + 3", ["x", "y"])
        q_tilde = gram.build_gram_real(ring, var, p)
        assert var.real == [] and len(var.pairs) == 2
        assert np.min(np.linalg.eigvalsh(q_tilde)) > 0
        for zeta in var.pairs:
            for point in (zeta, [z.conjugate() for z in zeta]):
                b_vals = variety._eval_basis(ring, point)
                assert abs(b_vals @ q_tilde @ b_vals - evaluate(p, point)) < 1e-7


    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_non_finite_gram_matrix_is_exhaustion(self):
        # p(xi) u_xi^2 beyond float64 range: Q~ = inf, which no eigenvalue
        # solver takes
        ring = make_ring(["x - 1"], ["x"])
        var = variety.VarietyData([[1.0]], [], np.array([[1e10]]), np.zeros((1, 0)), 1e-12)
        with pytest.raises(PrecisionExceeded, match="Gram matrix is not finite"):
            gram.build_gram_real(ring, var, Polynomial.constant(10 ** 300, 1))

    @pytest.mark.parametrize("a_ib", [complex(-1e21, 3.2e10), complex(2 ** 60, 1), complex(-2 ** 60, 0),
                                      complex(1e200, 1e200), complex(float("nan"), 0)])
    def test_a_pair_value_with_no_float_lambda_is_exhaustion(self, a_ib):
        # past 2^52 no float lies strictly inside (|a+ib| + 1, |a+ib| + 2)
        with pytest.raises(PrecisionExceeded, match="at a conjugate pair"):
            gram._pair_columns(np.array([1 + 1j]), a_ib)

    def test_a_pair_value_within_float_range_gives_two_columns(self):
        c1, c2 = gram._pair_columns(np.array([1 + 2j]), complex(-3.0, 4.0))
        assert np.isfinite(c1).all() and np.isfinite(c2).all()


class TestRoundMatrix:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 80), st.data())
    def test_equals_the_entrywise_rounding(self, n, frac_bits, data):
        floats = st.floats(-1e6, 1e6, allow_nan=False)
        m = np.array([[data.draw(floats) for _ in range(n)] for _ in range(n)])
        sym = ((m + m.T) / 2.0).tolist()
        assert gram.round_matrix(m, frac_bits) == gram.SymmetricMatrix(
            [[round_scaled(x, frac_bits) for x in row] for row in sym], 1 << frac_bits)


class TestEscalation:
    def test_stops_when_rounding_repeats(self, tmp_path, monkeypatch, capsys):
        # f > 0 on V by 2^-51, below what the float64 Gram matrix can show:
        # from 64 bits on, rounding reproduces the same matrix
        prob = tmp_path / "tiny.prob"
        prob.write_text(f"variables x y\nf: x + 1 + 1/{2 ** 51}\n"
                        "h: x^2 - 1\nh: y^2 - y\n")
        bits, factored = [], []
        round_matrix, ldlt = gram.round_matrix, gram.ldlt
        monkeypatch.setattr(gram, "round_matrix",
                            lambda m, n: bits.append(n) or round_matrix(m, n))
        monkeypatch.setattr(gram, "ldlt", lambda q: factored.append(q) or ldlt(q))
        code = cli.main(["certify", "--input", str(prob)])
        assert code == 3
        assert len(factored) == 2
        assert bits == [32, 64, 128]
        assert "float64 margin used up" in capsys.readouterr().err

    def _first_bits(self, monkeypatch, prob):
        bits = []
        round_matrix = gram.round_matrix
        monkeypatch.setattr(gram, "round_matrix",
                            lambda m, n: bits.append(n) or round_matrix(m, n))
        assert cli.main(["certify", "--input", prob, "--out", os.devnull]) == 0
        return bits

    def test_starts_where_lambda_min_says(self, monkeypatch):
        # four_points is well conditioned: fewer than 32 bits, one attempt
        bits = self._first_bits(monkeypatch, data_path("four_points.prob"))
        assert len(bits) == 1 and 4 <= bits[0] < gram.START_BITS

    def test_starts_at_the_cap_without_a_positive_lambda_min(self, monkeypatch):
        monkeypatch.setattr(gram.np.linalg, "eigvalsh", lambda m: np.zeros(len(m)))
        bits = self._first_bits(monkeypatch, data_path("four_points.prob"))
        assert bits == [gram.START_BITS]

    def test_helper_stops_after_a_repeated_rounding(self):
        # the second rounding repeats the first: the failed attempt is not rerun
        bits, calls = [], []
        with pytest.raises(PrecisionExceeded, match="float64 margin used up"):
            gram.escalate(16, lambda n: bits.append(n) or "same",
                          lambda rounded: calls.append(rounded))
        assert bits == [16, 32]
        assert calls == ["same"]

    def test_helper_doubles_up_to_the_ceiling(self):
        bits = []
        with pytest.raises(PrecisionExceeded, match="ceiling of 4096 bits"):
            gram.escalate(16, lambda n: bits.append(n) or n, lambda rounded: None)
        assert bits == [16 << k for k in range(9)]
        assert bits[-1] == gram.MAX_BITS

    def test_helper_returns_the_first_result(self):
        assert gram.escalate(8, lambda n: n, lambda n: n if n >= 32 else None) == 32
