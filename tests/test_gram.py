from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soscert import cli, exactla, gram, quotient, variety
from soscert.errors import NotPD, PrecisionExceeded, ZeroPivot
from soscert.polyring import evaluate, parse_polynomial


def poly(s, names=("x",)):
    return parse_polynomial(s, list(names))


def sym(rows):
    return gram.SymmetricMatrix.from_rational(
        [[Fraction(v) for v in row] for row in rows])


def make_ring(gens, names):
    return quotient.monomial_basis(
        quotient.groebner([parse_polynomial(g, names) for g in gens]))


class TestLdlt:
    def test_known_factorization(self):
        fact = gram.ldlt(sym([[2, 1], [1, 2]]))
        assert fact.pivots == [2, 6]
        assert [col[0] for col in fact.L], fact.L == [[2, 0], [1, 3]]
        assert fact.reconstruct() == [[Fraction(2), Fraction(1)],
                                      [Fraction(1), Fraction(2)]]

    def test_not_pd(self):
        with pytest.raises(NotPD) as exc:
            gram.ldlt(sym([[1, 2], [2, 1]]))
        assert exc.value.index == 2

    def test_zero_pivot_permutation_attempted(self):
        # zero leading diagonal is permuted away before concluding; the
        # permuted matrix is then seen to be indefinite, not zero-pivoted
        with pytest.raises(NotPD):
            gram.ldlt(sym([[0, 1], [1, 1]]))

    def test_rank_deficient_raises_zero_pivot(self):
        with pytest.raises(ZeroPivot):
            gram.ldlt(sym([[0, 0], [0, 1]]))
        with pytest.raises(ZeroPivot):
            gram.ldlt(sym([[0, 0], [0, 0]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_reconstruct_random_pd(self, n, data):
        a = [[Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 9)))
              for _ in range(n)] for _ in range(n)]
        q = [[sum(a[k][i] * a[k][j] for k in range(n))
              + (1 if i == j else 0) for j in range(n)] for i in range(n)]
        fact = gram.ldlt(gram.SymmetricMatrix.from_rational(q))
        assert fact.reconstruct() == q
        assert all(p > 0 for p in fact.pivots)


class TestGramProjection:
    def test_projection_lands_in_set(self):
        ring = make_ring(["x^2 - 1"], ["x"])
        p = poly("x + 3")
        lp = gram.GramVariety(ring, p)
        start = sym([[1, 0], [0, 1]])
        y = gram.project_to_gram(lp, start)
        yr = y.rational()
        # membership: sum_ij Y_ij b_i b_j = p mod I
        from soscert.polyring import Polynomial
        accp = Polynomial.zero(1)
        basis_polys = [ring.from_vector([Fraction(k == t) for k in range(ring.D)])
                       for t in range(ring.D)]
        for i in range(ring.D):
            for j in range(ring.D):
                accp = accp + basis_polys[i] * basis_polys[j] * yr[i][j]
        assert ring.normal_form(accp) == ring.normal_form(p)

    def test_projection_is_identity_on_members(self):
        ring = make_ring(["x^2 - 1"], ["x"])
        p = poly("x + 3")
        lp = gram.GramVariety(ring, p)
        member = sym([[Fraction(3, 2), Fraction(1, 2)],
                      [Fraction(1, 2), Fraction(3, 2)]])
        y = gram.project_to_gram(lp, member)
        assert y.rational() == member.rational()


def dense_project_to_gram(lp, q):
    """Reference projection on the dense constraint matrix: the textbook
    y = q + W^-1 A^t mu with (A W^-1 A^t) mu = b - A q, one sum per entry."""
    w = lp.weights
    a = [[Fraction(0)] * len(w) for _ in lp.A]
    for dense, row in zip(a, lp.A):
        for k, x in row:
            dense[k] = x
    qvec = [q.entry(i, j) for i, j in lp.pairs]
    rhs = [bi - sum(ai * qi for ai, qi in zip(row, qvec)) for row, bi in zip(a, lp.b)]
    awat = [[sum(r1[k] * r2[k] / w[k] for k in range(len(w))) for r2 in a] for r1 in a]
    mu = exactla.solve(awat, rhs)
    corr = [sum(a[m][k] * mu[m] for m in range(len(a))) / w[k] for k in range(len(w))]
    out = [[Fraction(0)] * lp.D for _ in range(lp.D)]
    for (i, j), v in zip(lp.pairs, [qi + ck for qi, ck in zip(qvec, corr)]):
        out[i][j] = out[j][i] = v
    return gram.SymmetricMatrix.from_rational(out)


_SPARSE_CASES = {
    "cube3": (["x^2 - x", "y^2 - y", "z^2 - z"], "x + 2*y - z + 3"),
    "grid3x3": (["x^3 - 3*x^2 + 2*x", "y^3 - 3*y^2 + 2*y"], "x*y - x + 2*y + 1"),
    "conjugate": (["x^4 + x^2 - 2", "y^3 - y"], "x^2 + x*y + 3"),
}
_GRAM_SETS = {}


def gram_set(name):
    if name not in _GRAM_SETS:
        gens, f = _SPARSE_CASES[name]
        names = ["x", "y", "z"] if name == "cube3" else ["x", "y"]
        ring = make_ring(gens, names)
        _GRAM_SETS[name] = gram.GramVariety(ring, parse_polynomial(f, names))
    return _GRAM_SETS[name]


class TestSparseProjection:
    def test_rows_are_sparse(self):
        lp = gram_set("cube3")
        assert len(lp.A) == 8
        assert sum(len(row) for row in lp.A) < len(lp.A) * len(lp.pairs) // 4
        assert all(x != 0 for row in lp.A for _, x in row)

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(sorted(_SPARSE_CASES)), st.integers(0, 40), st.data())
    def test_equals_dense_reference(self, name, frac_bits, data):
        lp = gram_set(name)
        d = lp.D
        entries = data.draw(st.lists(st.integers(-2 ** 20, 2 ** 20),
                                     min_size=len(lp.pairs), max_size=len(lp.pairs)))
        rows = [[Fraction(0)] * d for _ in range(d)]
        for (i, j), v in zip(lp.pairs, entries):
            rows[i][j] = rows[j][i] = Fraction(v, 2 ** frac_bits)
        q = gram.SymmetricMatrix.from_rational(rows)
        sparse = gram.project_to_gram(lp, q)
        dense = dense_project_to_gram(lp, q)
        assert (sparse.nu, sparse.mat) == (dense.nu, dense.mat)


class TestRoundAndCertify:
    def test_strictly_positive_input(self):
        ring = make_ring(["x^2 - 1"], ["x"])
        var = variety.solve_variety(ring)
        q0, fact = gram.round_and_certify(ring, var, poly("x + 3"))
        assert all(p > 0 for p in fact.pivots)
        # the factorization rebuilds the projected Gram matrix exactly
        assert fact.reconstruct() == q0.rational()
        from soscert.polyring import Polynomial
        total = Polynomial.zero(1)
        for w, vec in fact.square_vectors():
            q = ring.from_vector([Fraction(v) for v in vec])
            total = total + q * q * w
        assert ring.normal_form(total - poly("x + 3")).is_zero()

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
        pf = p.to_float()
        for pt in var.points:
            b_vals = variety._eval_basis(ring, pt.coordinates)
            val = b_vals @ q_tilde @ b_vals
            assert abs(val - evaluate(pf, pt.coordinates)) < 1e-7


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
