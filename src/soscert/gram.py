"""Gram matrices for p modulo a radical zero-dimensional ideal.

The pipeline: assemble a positive definite real Gram matrix from the
variety data (each real point xi of `var.real` contributes p(xi) u_xi^2;
each conjugate pair of `var.pairs`, read through one of its points, gives
two real squares through the lambda-window identity), round
it to the nearest dyadic rationals, and take the one Gram step
(`gram_squares`): correct it exactly into the affine variety of Gram
matrices of p, and factor the result Q0 by fraction-free LDL^t into an
exact weighted sum of squares.

All three Gram routes take this step: the radical route on R/I, the
Hensel route on R/J for f~ - eps (see `certifier`), and the SDP engine on
its rounded free block (see `sdp_backend`).  The Gram set is
A y = b over the D(D+1)/2 upper-triangle unknowns of a matrix on the basis
monomials B of the quotient: D rows, one per basis monomial.  A column of A
is NF(b_i b_j) over B, read from the ring's product table, and b is NF(p).
Since 1 = b_0 lies in B, the columns (0, j) are weighted unit vectors:
y_0j appears in row j alone.  So a rounded matrix q is moved into the set
by correcting its row and column 0 by the residual b - A q, with no linear
solve, and the rest of q stays as rounded.  All of it is integers over one
denominator, like the ring's vectors (see `quotient`): each matrix is a
`SymmetricMatrix` M / nu in lowest terms, and the Gram set is A / den, b / b_den.
The LDL^t squares of a matrix Q expand to B^t Q B exactly, so the step
returns the rest p - B^t Q0 B that closes a route's identity from
`gram_rest`, and expands no square.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from .errors import NotPD, PrecisionExceeded
from .polyring import Polynomial, round_scaled

# float64 data rounds exactly from 1074 fractional bits on, so a repeated
# rounding stops every precision loop before this ceiling; it only guards it
MAX_BITS = 4096
START_BITS = 32  # the most fractional bits of the Gram matrix's first rounding


class SymmetricMatrix:
    """Symmetric matrix M / nu of integers over a positive denominator, in
    lowest terms (gcd(nu, M) = 1), so equal matrices have equal (M, nu)."""

    def __init__(self, mat, nu=1):
        g = math.gcd(nu, *itertools.chain.from_iterable(mat))
        self.mat = [[x // g for x in row] for row in mat]
        self.nu = nu // g
        self.D = len(mat)

    def __eq__(self, other):
        return (self.nu, self.mat) == (other.nu, other.mat)

    def __repr__(self):
        return f"SymmetricMatrix({self.mat}, nu={self.nu})"


# -- real Gram construction ------------------------------------------------


def _dyadic_lambda(mag):
    """A dyadic rational in the open window (mag+1, mag+2); NaN for mag not finite."""
    return math.floor((mag + 1.5) * 256) / 256.0 if math.isfinite(mag) else math.nan


def build_gram_real(ring, var, p):
    """Q~ = Theta Theta^t with B Q~ B^t = p mod I (numerically), PD.

    The columns of Theta are sqrt(p(xi)) u_xi for each real point xi of
    `var.real`, then two real columns for each conjugate pair of
    `var.pairs`.  The routes call it after `certifier.perturb` has judged
    p > 0 at every real point, so p <= 0 there, or a Q~ not finite, is a float limit."""
    vals = var.values(p)
    if any(v <= 0 for v in vals):
        raise PrecisionExceeded(f"float64 margin used up: p = {min(vals):.3e} at a real root")
    cols = [math.sqrt(v) * u for v, u in zip(vals, var.real_idem.T)]
    for a_ib, u in zip(var.pair_values(p), var.pair_idem.T):
        cols.extend(_pair_columns(u, a_ib))
    theta = np.column_stack(cols) if cols else np.zeros((ring.D, 0))
    q_tilde = theta @ theta.T
    if not np.isfinite(q_tilde).all():
        raise PrecisionExceeded("float64 margin used up: the real Gram matrix is not finite")
    return q_tilde


def _pair_columns(u_col, a_ib):
    """Two real columns for a conjugate pair via the identity
    (a+ib)(u+iv)^2 + (a-ib)(u-iv)^2 + 2 lam (u^2+v^2)
      = 2(lam+a)(u - b/(lam+a) v)^2 + 2 (lam^2-|a+ib|^2)/(lam+a) v^2."""
    a = a_ib.real
    b = a_ib.imag
    lam = _dyadic_lambda(abs(complex(a, b)))
    if not (lam + a > 0 and lam * lam > a * a + b * b):
        raise PrecisionExceeded(f"float64 margin used up: p = {a_ib:.3e} at a conjugate pair")
    ur = np.asarray(u_col).real
    ui = np.asarray(u_col).imag
    w1 = 2.0 * (lam + a)
    w2 = 2.0 * (lam * lam - (a * a + b * b)) / (lam + a)
    c1 = math.sqrt(w1) * (ur - (b / (lam + a)) * ui)
    c2 = math.sqrt(w2) * ui
    return [c1, c2]


# -- affine Gram variety ---------------------------------------------------


class GramVariety:
    """Constraint system A y = b over the upper-triangle unknowns of
    {Y : sum_ij Y_ij b_i b_j = p mod I}: row r is the coefficient of b_r in
    NF(sum_ij Y_ij b_i b_j) = NF(p).  Each row of A is the list of its
    nonzero ((i, j), coefficient) pairs, i <= j, with integer coefficients
    over the common denominator `den` of the product table; an off-diagonal
    unknown stands for Y_ij and Y_ji, so its coefficient is doubled.  b is
    the ring vector NF(p) = b / b_den; `ring` and `p` are kept."""

    def __init__(self, ring, p):
        self.ring, self.p = ring, p
        D = self.D = ring.D
        self.den = math.lcm(*(d for row in ring.products for _, d in row))
        self.A = [[] for _ in range(D)]
        for i in range(D):
            for j in range(i, D):
                v, d = ring.products[i][j]
                scale = self.den // d * (1 if i == j else 2)
                for r, x in enumerate(v):
                    if x:
                        self.A[r].append(((i, j), scale * x))
        self.b, self.b_den = ring.nf_vector(p)


def project_to_gram(variety, q):
    """Correct a symmetric matrix into the affine Gram set along row and
    column 0; returns an exact SymmetricMatrix in the set.

    With r = b - A q, y_00 = q_00 + r_0 and y_0j = y_j0 = q_0j + r_j / 2;
    every other entry stays q_ij.  Since NF(b_0 b_j) = b_j, the unknown
    y_0j appears in row j alone, so A y = b holds exactly with no solve.
    In integers over n = 2 b_den den nu, n r_j / 2 = den nu b_j -
    b_den (A_j . M) for q = M / nu."""
    m, nu = q.mat, q.nu
    scale = 2 * variety.b_den * variety.den
    y = [[scale * x for x in row] for row in m]
    for j, (row, bj) in enumerate(zip(variety.A, variety.b)):
        half = variety.den * nu * bj - variety.b_den * sum(x * m[i][k] for (i, k), x in row)
        y[0][j] += 2 * half if j == 0 else half
        y[j][0] = y[0][j]
    return SymmetricMatrix(y, scale * nu)


def gram_rest(p, basis, q):
    """p - B^t Q B for Q = M / nu on the basis monomials B: the polynomial
    p - sum_{i<=j} (2 - [i = j]) M_ij / nu x^(alpha_i + alpha_j), in
    integers over lcm(den p, nu).  For Q in the Gram set of p it lies in the
    ideal, and it equals p minus the LDL^t squares of Q expanded, at one
    addition per upper-triangle entry."""
    lcd = math.lcm(p.den, q.nu)
    acc = {e: c * (lcd // p.den) for e, c in p.ints.items()}
    once = lcd // q.nu
    for i, (bi, row) in enumerate(zip(basis, q.mat)):
        for j in range(i, len(basis)):
            if row[j]:
                e = tuple(map(operator.add, bi, basis[j]))
                acc[e] = acc.get(e, 0) - (once if i == j else 2 * once) * row[j]
    return Polynomial(acc, lcd, p.nvars)


# -- fraction-free LDL^t ---------------------------------------------------


def ldlt(q):
    """Fraction-free (Bareiss) LDL^t of Q = M/nu, M integer symmetric: the
    squares (1/(nu Delta_k Delta_{k-1}), column k of L), with integer L
    (its columns are bordered minors), whose weighted sum is Q.  The steps
    keep M symmetric, so they update its upper triangle alone, row by row.

    Raises NotPD(k) at the first leading minor Delta_k <= 0.  So it returns
    exactly when Q is positive definite, and no symmetric swap is needed:
    P^t Q P is positive definite exactly when Q is."""
    D = q.D
    m = [row[:] for row in q.mat]
    squares = []
    prev = 1  # Delta_{k-1}
    for k in range(D):
        delta_k = m[k][k]
        if delta_k <= 0:
            raise NotPD(k + 1)
        pivot = m[k]
        squares.append((Fraction(1, q.nu * delta_k * prev), [0] * k + pivot[k:]))
        for i in range(k + 1, D):
            row, mik = m[i], pivot[i]  # m[i][k] = m[k][i]
            row[i:] = [(x * delta_k - mik * y) // prev for x, y in zip(row[i:], pivot[i:])]
        prev = delta_k
    return squares


def round_matrix(mat, frac_bits):
    """Entrywise binary rounding of a float matrix, symmetrized first: a
    SymmetricMatrix of integers over 2^frac_bits.  Its upper triangle, entry
    (i, j) as upper[i][j - i], is rounded and mirrored: (M + M^t) / 2 is exactly symmetric."""
    sym = ((np.asarray(mat) + np.asarray(mat).T) / 2.0).tolist()
    upper = [[round_scaled(x, frac_bits) for x in row[i:]] for i, row in enumerate(sym)]
    return SymmetricMatrix([[upper[min(i, j)][abs(i - j)] for j in range(len(sym))]
                            for i in range(len(sym))], 1 << frac_bits)


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


def gram_squares(variety, q):
    """The Gram step: correct q into the Gram set of p and factor the
    result Q0.  Returns (Q0's LDL^t squares over B, each a primitive
    `QuotientRing.square`, rest = p - B^t Q0 B), no square zero (column k
    of L carries Delta_k > 0), or None when Q0 is not positive definite."""
    q0 = project_to_gram(variety, q)
    try:
        squares = ldlt(q0)
    except NotPD:
        return None
    return ([variety.ring.square(w, vec) for w, vec in squares],
            gram_rest(variety.p, variety.ring.basis, q0))


def round_and_certify(ring, var, p):
    """Round the real Gram matrix Q~ of p and take the Gram step, escalating
    the precision until Q0 is positive definite.  Returns `gram_squares`'s
    (squares, rest).  b bits move Q~ by at most D 2^-(b+1) in norm, so the
    first rounding, at ceil(log2(D / lambda_min(Q~))) bits, stays within
    lambda_min / 2 of Q~: at least 4 bits, at most START_BITS, and
    START_BITS when lambda_min is not positive."""
    q_tilde = build_gram_real(ring, var, p)
    variety = GramVariety(ring, p)
    lam = float(np.linalg.eigvalsh(q_tilde)[0])
    start = (min(START_BITS, max(4, math.ceil(math.log2(ring.D) - math.log2(lam))))
             if lam > 0 else START_BITS)
    return escalate(start, lambda bits: round_matrix(q_tilde, bits),
                    lambda q: gram_squares(variety, q))
