"""Feasibility-SDP route to the same certificates.

Modulo the zero-dimensional ideal I every square reduces to a square over
the quotient basis B (q^2 = NF(q)^2 mod I), so the problem is posed over B
itself: one D x D Gram block Q_i per multiplier m_0 = 1, m_i = g_i, and the
D coefficient equations

    NF(sum_i m_i b Q_i b^t) = NF(f)    over B,

with no cofactor unknowns; the cofactors of the h_j come afterwards from
exact reduction, as on the constructive route.  The problem maximizes the
smallest eigenvalue of the free block Q_0.  The built-in solver is Dykstra's
alternating projections between the affine coefficient set and the product
of (shifted) semidefinite cones; any external solver that produces the same
result shape can be substituted, since the rounding step re-derives an
exact certificate from the approximate blocks and all rounding error is
absorbed into an exactly projected and factored free block.
"""

from __future__ import annotations

import math

import numpy as np

from . import certifier, gram
from .errors import Infeasible, MaxIterations, NotPD, ZeroPivot
from .polyring import round_binary


class SdpProblem:
    """Affine coefficient-matching system A x = b over the vectorized D x D
    blocks, in floats for the iterative solver."""

    def __init__(self, inst, ring):
        self.inst = inst
        self.ring = ring
        d = ring.D
        self.block_sizes = [d] * (1 + len(inst.g))  # multipliers 1, g_1, ...
        self.nrows = d
        self.nvars_total = len(self.block_sizes) * d * d
        # column (p, q) of the free block is NF(b_p b_q) over B; a g block
        # multiplies it by the matrix of g on the quotient
        products = np.array([v for row in ring.products for v in row],
                            dtype=float).reshape(d * d, d).T
        self.A = np.hstack([products] + [np.array(ring.mult_matrix(g), dtype=float) @ products
                                         for g in inst.g])
        self.b = np.array([float(c) for c in ring.nf_vector(inst.f)])
        self._pinv = np.linalg.pinv(self.A)

    def unpack(self, x):
        d = self.ring.D
        return [np.asarray(x[k * d * d:(k + 1) * d * d]).reshape(d, d)
                for k in range(len(self.block_sizes))]

    def pack(self, blocks):
        return np.concatenate([q.reshape(-1) for q in blocks])

    def project_affine(self, x):
        return x - self._pinv @ (self.A @ x - self.b)

    def project_cone(self, x, lam):
        out = []
        for i, q in enumerate(self.unpack(x)):
            sym = (q + q.T) / 2.0
            w, v = np.linalg.eigh(sym)
            floor = lam if i == 0 else 0.0
            out.append((v * np.maximum(w, floor)) @ v.T)
        return self.pack(out)

    def residual(self, blocks):
        """max |A pack(blocks) - b|: the largest coefficient over B of
        NF(f - sum_i m_i b Q_i b^t), for blocks from any solver."""
        return float(np.max(np.abs(self.A @ self.pack(blocks) - self.b), initial=0.0))


class SolverResult:
    def __init__(self, blocks, lam, residual):
        self.blocks = blocks          # float symmetric PSD matrices
        self.lam = lam
        self.residual = residual


def solve_feasibility(prob, lam, iterations=40000, tol=1e-8, x0=None):
    """Dykstra alternating projections onto {A x = b} and the PSD cone
    product with the free block shifted by lam."""
    x = prob.project_affine(np.zeros(prob.nvars_total) if x0 is None else x0)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    best = math.inf
    checkpoint = best
    for it in range(iterations):
        y = prob.project_cone(x + p, lam)
        p = x + p - y
        z = prob.project_affine(y + q)
        q = y + q - z
        x = z
        res = float(np.max(np.abs(prob.A @ y - prob.b))) if prob.nrows else 0.0
        if res < tol:
            return SolverResult(prob.unpack(y), lam, res)
        best = min(best, res)
        if it % 250 == 249:
            if best > checkpoint * 0.99:
                raise Infeasible(best)
            checkpoint = best
    raise MaxIterations(f"feasibility residual {best:.3e} after {iterations} iterations")


def maximize_lambda(prob, iterations=40000, tol=1e-8):
    """Bisection over lam with warm-started feasibility probes.  It stops
    once lam is known within a factor 1.5: the rounding precision depends
    only on the decimal order of lam, and every probe is a full solve."""

    def probe(lam, x0):
        try:
            return solve_feasibility(prob, lam, iterations, tol, x0=x0)
        except (Infeasible, MaxIterations):
            return None

    best = solve_feasibility(prob, 0.0, iterations, tol)
    x_best = prob.pack(best.blocks)
    lo, hi = 0.0, 1.0
    while True:
        r = probe(hi, x_best)
        if r is None:
            break
        best, lo = r, hi
        x_best = prob.pack(r.blocks)
        if hi > 1e6:
            break
        hi *= 4.0
    for _ in range(20):
        if hi - lo < max(1e-6, 0.5 * lo):
            break
        mid = (lo + hi) / 2.0
        r = probe(mid, x_best)
        if r is None:
            hi = mid
        else:
            best, lo = r, mid
            x_best = prob.pack(r.blocks)
    return best


def _round_eigen_squares(ring, q, bits):
    """Weighted squares over span(B) from the clipped eigendecomposition,
    each rounded entrywise."""
    sym = (q + q.T) / 2.0
    w, v = np.linalg.eigh(sym)
    out = []
    for k in range(len(w)):
        if w[k] <= 1e-12:
            continue
        weight = round_binary(float(w[k]), bits)
        if weight <= 0:
            continue
        vec = [round_binary(float(v[i, k]), bits) for i in range(v.shape[0])]
        poly = ring.from_vector(vec)
        if not poly.is_zero():
            out.append((weight, poly))
    return out


def algorithm1_certify(inst, ring=None):
    """Solve the feasibility SDP, then round at an escalating precision
    until the exactly projected free block is positive definite; the output
    identity is exact by construction."""
    if ring is None:
        ring = certifier.build_ring(inst)
    prob = SdpProblem(inst, ring)
    result = maximize_lambda(prob)
    if not result.lam > 0:
        raise Infeasible(result.residual)

    def round_at(bits):
        return (gram.round_matrix(result.blocks[0], bits),
                [_round_eigen_squares(ring, q, bits) for q in result.blocks[1:]])

    def attempt(rounded):
        q0_hat, g_blocks = rounded
        # f minus the g part is a sum of squares of the free block mod I
        rest = certifier.Certificate("strict", [[]] + g_blocks, [])
        f_hat = inst.f - certifier.expansion(inst, rest)
        try:
            y0 = gram.project_to_gram(gram.GramVariety(ring, f_hat), q0_hat)
            fact = gram.ldlt(y0)
        except (NotPD, ZeroPivot):
            return None
        blocks0 = certifier._squares_from_factorization(ring, fact)
        return certifier._assemble(inst, ring, blocks0, g_blocks)

    kappa = max(math.ceil(-math.log10(result.lam)), 0)
    return gram.escalate(max(math.ceil(kappa * math.log2(10)), 4), round_at, attempt)


# -- external-solver bridge -------------------------------------------------


def write_problem(prob, path):
    """Sparse text dump: block sizes, constraint triplets (row, column,
    value) over the row-major block entries, right-hand side."""
    lines = [
        "blocks " + " ".join(str(s) for s in prob.block_sizes),
        f"constraints {prob.nrows} {prob.nvars_total}",
    ]
    rows, cols = np.nonzero(prob.A)
    for r, c in zip(rows, cols):
        lines.append(f"{r} {c} {float(prob.A[r, c])!r}")
    lines.append("rhs " + " ".join(repr(float(v)) for v in prob.b))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_result(path, prob):
    """Result file: `lambda <v>`, then `block <i>` followed by its rows."""
    blocks = [np.zeros((s, s)) for s in prob.block_sizes]
    lam = 0.0
    target = None
    rows = []

    def flush():
        nonlocal target, rows
        if target is not None:
            blocks[target] = np.array(rows)
        target, rows = None, []

    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "lambda":
                flush()
                lam = float(parts[1])
            elif parts[0] == "block":
                flush()
                target = int(parts[1])
            else:
                rows.append([float(v) for v in parts])
    flush()
    return SolverResult(blocks, lam, prob.residual(blocks))
