"""Gram matrices for p modulo a radical zero-dimensional ideal.

The pipeline: assemble a positive definite real Gram matrix from the
variety data (real roots contribute p(xi) u_xi^2; conjugate pairs are
combined into two real squares through the lambda-window identity), round
it to dyadic rationals, project exactly onto the affine variety of Gram
matrices of p, and factor the result by fraction-free LDL^t into an exact
weighted sum of squares.

Both strict routes use this one construction: the radical route on R/I,
the Hensel route on R/J for f~ - eps (see `certifier`).  The Gram set is
A y = b over the D(D+1)/2 upper-triangle unknowns of a matrix on the basis
monomials B of the quotient.  A column of A is the vector NF(b_i b_j) over
B, and b is NF(p), both from the ring's one normal-form map.  A column has
one or a few nonzeros, so the rows of A are kept sparse and the exact
projection y = q + W^-1 A^t mu, (A W^-1 A^t) mu = b - A q, is built from
their nonzeros alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import exactla
from .errors import (InfeasibleVariety, NonPositiveAtRealRoot, NotPD,
                     PrecisionExceeded, ZeroPivot)
from .polyring import Polynomial, common_denominator, evaluate, round_binary

# float64 data rounds exactly from 1074 fractional bits on, so a repeated
# rounding stops every precision loop before this ceiling; it only guards it
MAX_BITS = 4096


class SymmetricMatrix:
    """Symmetric matrix with integer entries over a common denominator."""

    def __init__(self, mat, nu=1):
        self.mat = [[int(x) for x in row] for row in mat]
        self.nu = int(nu)
        self.D = len(mat)

    @classmethod
    def from_rational(cls, rows):
        nu = common_denominator(x for row in rows for x in row)
        return cls([[int(x * nu) for x in row] for row in rows], nu)

    def __eq__(self, other):
        return (self.nu, self.mat) == (other.nu, other.mat)

    def entry(self, i, j):
        return Fraction(self.mat[i][j], self.nu)

    def rational(self):
        return [[Fraction(x, self.nu) for x in row] for row in self.mat]

    def __repr__(self):
        return f"SymmetricMatrix({self.mat}, nu={self.nu})"


# -- real Gram construction ------------------------------------------------


def _dyadic_lambda(mag):
    """A dyadic rational in the open window (mag+1, mag+2)."""
    return math.floor((mag + 1.5) * 256) / 256.0


def build_gram_real(ring, var, p):
    """Q~ = Theta Theta^t with B Q~ B^t = p mod I (numerically), PD.

    The columns of Theta are sqrt(p(xi)) u_xi for each real root xi and two
    real columns per conjugate pair."""
    pf = p.to_float()
    u = var.idempotents
    if u is None:
        raise NonPositiveAtRealRoot("variety is not radical; no idempotents")
    reals = [i for i, pt in enumerate(var.points) if pt.kind == "real"]
    pairs = [i for i, pt in enumerate(var.points)
             if pt.kind == "complex" and pt.partner is not None and i < pt.partner]
    vals_real = {i: evaluate(pf, [z.real for z in var.points[i].coordinates]) for i in reals}
    if any(v <= 0 for v in vals_real.values()):
        exc = NonPositiveAtRealRoot(f"p = {min(vals_real.values()):.3e} at a real root")
        exc.value = min(vals_real.values())
        raise exc
    cols = [math.sqrt(vals_real[i]) * u[:, i].real for i in reals]
    for i in pairs:
        cols.extend(_pair_columns(u[:, i], complex(evaluate(pf, var.points[i].coordinates))))
    theta = np.column_stack(cols) if cols else np.zeros((ring.D, 0))
    return theta @ theta.T


def _pair_columns(u_col, a_ib):
    """Two real columns for a conjugate pair via the identity
    (a+ib)(u+iv)^2 + (a-ib)(u-iv)^2 + 2 lam (u^2+v^2)
      = 2(lam+a)(u - b/(lam+a) v)^2 + 2 (lam^2-|a+ib|^2)/(lam+a) v^2."""
    a = a_ib.real
    b = a_ib.imag
    lam = _dyadic_lambda(abs(complex(a, b)))
    ur = np.asarray(u_col).real
    ui = np.asarray(u_col).imag
    w1 = 2.0 * (lam + a)
    w2 = 2.0 * (lam * lam - (a * a + b * b)) / (lam + a)
    c1 = math.sqrt(w1) * (ur - (b / (lam + a)) * ui)
    c2 = math.sqrt(w2) * ui
    return [c1, c2]


# -- affine Gram variety ---------------------------------------------------


class GramVariety:
    """Integer constraint system A y = b over the upper-triangle unknowns of
    {Y : sum_ij Y_ij b_i b_j = p mod I}, rank-reduced, over the monomials
    b_i of B; off-diagonal unknowns carry Frobenius weight 2.  Each row of A
    is the list of its nonzero (unknown index, coefficient) pairs."""

    def __init__(self, ring, p):
        basis = [Polynomial({b: Fraction(1)}, ring.nvars) for b in ring.basis]
        self.ring = ring
        D = self.D = ring.D
        self.pairs = [(i, j) for i in range(D) for j in range(i, D)]
        self.weights = [Fraction(1) if i == j else Fraction(2) for i, j in self.pairs]
        cols = [[w * x if x else x for x in ring.nf_vector(basis[i] * basis[j])]
                for w, (i, j) in zip(self.weights, self.pairs)]
        rows = exactla.transpose(cols)
        rhs = ring.nf_vector(p)
        # rank-reduce, keeping consistency information
        aug = [row + [r] for row, r in zip(rows, rhs)]
        red, _ = exactla.rref(aug, ncols=len(self.pairs))
        a, b = [], []
        for row in red:
            nonzeros = [(k, x) for k, x in enumerate(row[:-1]) if x]
            if nonzeros:
                a.append(nonzeros)
                b.append(row[-1])
            elif row[-1] != 0:
                raise InfeasibleVariety("constraint system is inconsistent")
        self.A = a
        self.b = b


def project_to_gram(variety, q):
    """Exact weighted-Frobenius projection of a symmetric matrix onto the
    affine Gram set; returns an exact SymmetricMatrix in the set."""
    a, b, w = variety.A, variety.b, variety.weights
    if not a:
        return SymmetricMatrix(q.mat, q.nu)
    qvec = [q.entry(i, j) for i, j in variety.pairs]
    # column index of A: unknown k -> [(row, coefficient)]
    columns = [[] for _ in w]
    for m, row in enumerate(a):
        for k, x in row:
            columns[k].append((m, x))
    # y = q + W^-1 A^t mu  with  (A W^-1 A^t) mu = b - A q
    rhs = [bi - sum(x * qvec[k] for k, x in row) for row, bi in zip(a, b)]
    awat = [[0] * len(a) for _ in a]
    for col, wk in zip(columns, w):
        for m1, x1 in col:
            scaled = x1 / wk
            row = awat[m1]
            for m2, x2 in col:
                row[m2] += scaled * x2
    mu = exactla.solve(awat, rhs)
    if mu is None:
        raise InfeasibleVariety("projection system singular")
    yvec = [qk + sum(x * mu[m] for m, x in col) / wk for qk, col, wk in zip(qvec, columns, w)]
    out = [[Fraction(0)] * variety.D for _ in range(variety.D)]
    for (i, j), v in zip(variety.pairs, yvec):
        out[i][j] = v
        out[j][i] = v
    return SymmetricMatrix.from_rational(out)


# -- fraction-free LDL^t ---------------------------------------------------


class LDLFactorization:
    """Q = L D L^t with integer L (columns are bordered minors) and
    D = diag(1/pivot_k); permutation applied symmetrically when needed."""

    def __init__(self, L, pivots, perm, nu):
        self.L = L
        self.pivots = pivots  # pivot_k = nu * Delta_k * Delta_{k-1}
        self.perm = perm
        self.nu = nu

    def square_vectors(self):
        """(weight, integer coefficient vector) pairs, in original indexing."""
        D = len(self.L)
        out = []
        for k in range(D):
            vec = [0] * D
            for i in range(k, D):
                vec[self.perm[i]] = self.L[i][k]
            out.append((Fraction(1, self.pivots[k]), vec))
        return out

    def reconstruct(self):
        D = len(self.L)
        acc = [[Fraction(0)] * D for _ in range(D)]
        for w, vec in self.square_vectors():
            for i in range(D):
                if vec[i]:
                    for j in range(D):
                        if vec[j]:
                            acc[i][j] += w * vec[i] * vec[j]
        return acc


def ldlt(q):
    """Fraction-free (Bareiss) LDL^t of Q = M/nu, M integer symmetric.

    Raises NotPD(k) at the first negative principal minor, ZeroPivot(k)
    when a zero pivot survives every symmetric permutation of the trailing
    block."""
    D = q.D
    m = [[int(x) for x in row] for row in q.mat]
    perm = list(range(D))
    cols = [[0] * D for _ in range(D)]
    minors = [1]  # Delta_0
    prev = 1
    for k in range(D):
        if m[k][k] == 0:
            swap = next((l for l in range(k + 1, D) if m[l][l] != 0), None)
            if swap is None:
                raise ZeroPivot(k + 1)
            for row in m:
                row[k], row[swap] = row[swap], row[k]
            m[k], m[swap] = m[swap], m[k]
            perm[k], perm[swap] = perm[swap], perm[k]
        for i in range(k, D):
            cols[i][k] = m[i][k]
        delta_k = m[k][k]
        if delta_k < 0:
            raise NotPD(k + 1)
        minors.append(delta_k)
        for i in range(k + 1, D):
            for j in range(k + 1, D):
                m[i][j] = (m[i][j] * delta_k - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = delta_k
    pivots = [q.nu * minors[k + 1] * minors[k] for k in range(D)]
    return LDLFactorization(cols, pivots, perm, q.nu)


def round_matrix(mat, frac_bits):
    """Entrywise binary rounding of a float matrix, symmetrized first."""
    sym = (np.asarray(mat) + np.asarray(mat).T) / 2.0
    rows = [[round_binary(float(sym[i, j]), frac_bits) for j in range(sym.shape[1])]
            for i in range(sym.shape[0])]
    return SymmetricMatrix.from_rational(rows)


def escalate(start_bits, round_at, attempt):
    """The one precision loop of the toolkit.  At start_bits, twice that,
    ... up to the ceiling: `rounded = round_at(bits)` rounds every float
    input, and `attempt(rounded)` returns the exact result or None to ask
    for more bits.  A rounding equal to the previous one means the float64
    data has no more bits to give, so the loop stops there."""
    bits, previous = start_bits, None
    while bits <= MAX_BITS:
        rounded = round_at(bits)
        if previous is not None and rounded == previous:
            raise PrecisionExceeded(f"float64 margin used up: {bits} bits round the "
                                    f"inputs as {bits // 2} bits did, and that failed")
        result = attempt(rounded)
        if result is not None:
            return result
        previous = rounded
        bits *= 2
    raise PrecisionExceeded(f"no exact certificate up to the ceiling of {MAX_BITS} bits")


def round_and_certify(ring, var, p, start_bits=32):
    """Round the real Gram matrix, project exactly, factor; escalate the
    precision on failure.  Returns (Q0 exact PD in the Gram variety, its
    LDL^t factorization)."""
    try:
        q_tilde = build_gram_real(ring, var, p)
    except NonPositiveAtRealRoot as exc:
        if getattr(exc, "value", -1.0) > -1e-6:
            raise PrecisionExceeded(
                "p is numerically zero at a real root; no strict certificate") from exc
        raise
    variety = GramVariety(ring, p)

    def attempt(q_exact):
        q0 = project_to_gram(variety, q_exact)
        try:
            return q0, ldlt(q0)
        except (NotPD, ZeroPivot):
            return None

    return escalate(start_bits, lambda bits: round_matrix(q_tilde, bits), attempt)
