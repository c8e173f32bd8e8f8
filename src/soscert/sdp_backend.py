"""Feasibility-SDP route to the same certificates.

The problem maximizes the smallest eigenvalue of the free Gram block
subject to exact coefficient matching of

    f = m0 Q0 m0^t + sum_i (mi Qi mi^t) g_i + sum_j p_j h_j,

where mi runs over all monomials of degree <= ell_i.  The built-in solver
is Dykstra's alternating projections between the affine coefficient set
and the product of (shifted) semidefinite cones; any external solver that
produces the same result shape can be substituted, since the rounding
step re-derives an exact certificate from the approximate blocks and all
rounding error is absorbed into an exactly factored remainder.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import certifier, gram, quotient
from .errors import Infeasible, MaxIterations, NotGraded, NotPD, ZeroPivot
from .polyring import Polynomial, round_binary


def _monomial_poly(m, nvars):
    return Polynomial({m: Fraction(1)}, nvars)


class SdpProblem:
    """Affine coefficient-matching system over vectorized PSD blocks plus
    cofactor coefficients, with a float copy for the iterative solver."""

    def __init__(self, inst, ring, ell):
        if not ring.ideal.is_graded:
            raise NotGraded("the equality generators are not a graded basis")
        delta = ring.degree_of_basis()
        mults = [Polynomial.constant(Fraction(1), inst.nvars)] + list(inst.g)
        if len(ell) != len(mults):
            raise ValueError(f"expected {len(mults)} block degrees, got {len(ell)}")
        if any(l < delta for l in ell):
            raise ValueError(f"block degrees must be at least deg(B) = {delta}")
        self.inst = inst
        self.ring = ring
        self.ell = list(ell)
        self.mults = mults
        n = inst.nvars
        self.block_monomials = [quotient.monomials_upto(n, l) for l in ell]
        deg_max = max([max(inst.f.degree, 0)]
                      + [m.degree + 2 * l for m, l in zip(mults, ell)])
        self.degree = deg_max
        self.cof_monomials = [quotient.monomials_upto(n, deg_max - h.degree)
                              for h in inst.h]

        rows = quotient.monomials_upto(n, deg_max)
        row_of = {m: k for k, m in enumerate(rows)}
        self.nrows = len(rows)
        self.block_sizes = [len(b) for b in self.block_monomials]
        self.cof_sizes = [len(c) for c in self.cof_monomials]

        # vectorization layout: full block entries, then cofactor coefficients
        self.slices = []
        pos = 0
        for sz in self.block_sizes:
            self.slices.append((pos, sz * sz))
            pos += sz * sz
        self.cof_slices = []
        for sz in self.cof_sizes:
            self.cof_slices.append((pos, sz))
            pos += sz
        self.nvars_total = pos

        a = np.zeros((self.nrows, pos))
        for i, (mons, mult) in enumerate(zip(self.block_monomials, mults)):
            base = self.slices[i][0]
            sz = self.block_sizes[i]
            for p in range(sz):
                for q in range(sz):
                    prod = (_monomial_poly(mons[p], n) * _monomial_poly(mons[q], n)
                            * mult)
                    for m, c in prod.terms.items():
                        a[row_of[m], base + p * sz + q] += float(c)
        for j, (mons, h) in enumerate(zip(self.cof_monomials, inst.h)):
            base = self.cof_slices[j][0]
            for t, mon in enumerate(mons):
                prod = _monomial_poly(mon, n) * h
                for m, c in prod.terms.items():
                    a[row_of[m], base + t] += float(c)
        b = np.zeros(self.nrows)
        for m, c in inst.f.terms.items():
            b[row_of[m]] = float(c)
        self.A = a
        self.b = b
        self._pinv = np.linalg.pinv(a)

    def unpack(self, x):
        blocks = []
        for (base, length), sz in zip(self.slices, self.block_sizes):
            blocks.append(np.asarray(x[base:base + length]).reshape(sz, sz))
        cofs = [np.asarray(x[base:base + length])
                for base, length in self.cof_slices]
        return blocks, cofs

    def pack(self, blocks, cofs):
        return np.concatenate([q.reshape(-1) for q in blocks] + list(cofs))

    def project_affine(self, x):
        return x - self._pinv @ (self.A @ x - self.b)

    def project_cone(self, x, lam):
        blocks, cofs = self.unpack(x)
        out = []
        for i, q in enumerate(blocks):
            sym = (q + q.T) / 2.0
            w, v = np.linalg.eigh(sym)
            floor = lam if i == 0 else 0.0
            out.append((v * np.maximum(w, floor)) @ v.T)
        return self.pack(out, cofs)

    def residual(self, blocks, cofs):
        """Largest coefficient of the matching error, recomputed from the
        assembled polynomials rather than the stored constraint matrix."""
        total = Polynomial.zero(self.inst.nvars)
        for mons, q, mult in zip(self.block_monomials, blocks, self.mults):
            acc = Polynomial.zero(self.inst.nvars)
            for a_ in range(len(mons)):
                row = Polynomial({m: Fraction(float(q[a_, t]))
                                  for t, m in enumerate(mons) if q[a_, t]},
                                 self.inst.nvars)
                acc = acc + _monomial_poly(mons[a_], self.inst.nvars) * row
            total = total + acc * mult
        for mons, vec, h in zip(self.cof_monomials, cofs, self.inst.h):
            p = Polynomial({m: Fraction(float(v)) for m, v in zip(mons, vec) if v},
                           self.inst.nvars)
            total = total + p * h
        diff = self.inst.f - total
        return max((abs(float(c)) for c in diff.terms.values()), default=0.0)


class SolverResult:
    def __init__(self, blocks, cofactors, lam, residual):
        self.blocks = blocks          # float symmetric PSD matrices
        self.cofactors = cofactors    # float coefficient vectors
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
            blocks, cofs = prob.unpack(y)
            return SolverResult(blocks, cofs, lam, res)
        best = min(best, res)
        if it % 250 == 249:
            if best > checkpoint * 0.99:
                raise Infeasible(best)
            checkpoint = best
    raise MaxIterations(f"feasibility residual {best:.3e} after {iterations} iterations")


def maximize_lambda(prob, iterations=40000, tol=1e-8):
    """Bisection over lam with warm-started feasibility probes."""

    def probe(lam, x0):
        try:
            return solve_feasibility(prob, lam, iterations, tol, x0=x0)
        except (Infeasible, MaxIterations):
            return None

    best = solve_feasibility(prob, 0.0, iterations, tol)
    x_best = prob.pack(best.blocks, best.cofactors)
    lo, hi = 0.0, 1.0
    while True:
        r = probe(hi, x_best)
        if r is None:
            break
        best, lo = r, hi
        x_best = prob.pack(r.blocks, r.cofactors)
        if hi > 1e6:
            break
        hi *= 4.0
    for _ in range(20):
        if hi - lo < max(1e-6, 0.05 * lo):
            break
        mid = (lo + hi) / 2.0
        r = probe(mid, x_best)
        if r is None:
            hi = mid
        else:
            best, lo = r, mid
            x_best = prob.pack(r.blocks, r.cofactors)
    return best


def _normalize_ell(ring, inst, order):
    delta = ring.degree_of_basis()
    nblocks = 1 + len(inst.g)
    if order is None:
        return [delta] * nblocks
    if isinstance(order, int):
        return [max(order, delta)] * nblocks
    return list(order)


def _nf_matrix(ring, monomials):
    """Float D x M matrix whose columns are the normal forms over B."""
    cols = []
    for m in monomials:
        cols.append([float(c) for c in
                     ring.nf_vector(_monomial_poly(m, ring.nvars))])
    return np.array(cols).T


def _round_eigen_squares(ring, qc, bits):
    """Weighted squares over span(B) from the clipped eigendecomposition,
    each rounded entrywise."""
    sym = (qc + qc.T) / 2.0
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


def algorithm1_certify(inst, ring=None, order=None):
    """Solve the feasibility SDP, then round at an escalating precision
    until the exactly projected free block is positive definite; the output
    identity is exact by construction."""
    if ring is None:
        ring = quotient.monomial_basis(quotient.groebner(inst.h))
    ell = _normalize_ell(ring, inst, order)
    prob = SdpProblem(inst, ring, ell)
    result = maximize_lambda(prob)
    if not result.lam > 0:
        raise Infeasible(result.residual)

    nf_mats = [_nf_matrix(ring, mons) for mons in prob.block_monomials]
    compressed = [m @ q @ m.T for m, q in zip(nf_mats, result.blocks)]

    def round_at(bits):
        q0_hat = gram.round_matrix(compressed[0], bits)
        g_blocks = [_round_eigen_squares(ring, qc, bits) for qc in compressed[1:]]
        p_hats = [Polynomial({m: round_binary(float(c), bits) for m, c in zip(mons, vec)},
                             inst.nvars)
                  for mons, vec in zip(prob.cof_monomials, result.cofactors)]
        return q0_hat, g_blocks, p_hats

    def attempt(rounded):
        q0_hat, g_blocks, p_hats = rounded
        # f - (g and cofactor parts) = sum of the free block's squares mod I
        rest = certifier.Certificate("strict", [[]] + g_blocks, p_hats)
        f_hat = inst.f - certifier.expansion(inst, rest)
        try:
            y0 = gram.project_to_gram(gram.GramVariety(ring, f_hat), q0_hat)
            fact = gram.ldlt(y0)
        except (NotPD, ZeroPivot):
            return None
        blocks0 = certifier._squares_from_factorization(ring, fact)
        return certifier._assemble(inst, ring, blocks0, g_blocks, cofactors=p_hats)

    kappa = max(math.ceil(-math.log10(result.lam)), 0)
    return gram.escalate(max(math.ceil(kappa * math.log2(10)), 4), round_at, attempt)


# -- external-solver bridge -------------------------------------------------


def write_problem(prob, path):
    """Sparse text dump: block sizes, cofactor sizes, constraint triplets
    (row, column, value), right-hand side."""
    lines = [
        "blocks " + " ".join(str(s) for s in prob.block_sizes),
        "cofactors " + " ".join(str(s) for s in prob.cof_sizes),
        f"constraints {prob.nrows} {prob.nvars_total}",
    ]
    rows, cols = np.nonzero(prob.A)
    for r, c in zip(rows, cols):
        lines.append(f"{r} {c} {prob.A[r, c]!r}")
    lines.append("rhs " + " ".join(repr(float(v)) for v in prob.b))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_result(path, prob):
    """Result file: `lambda <v>`, then `block <i>` followed by its rows,
    then `cofactor <j>` followed by one coefficient row."""
    blocks = [np.zeros((s, s)) for s in prob.block_sizes]
    cofs = [np.zeros(s) for s in prob.cof_sizes]
    lam = 0.0
    target = None
    rows = []

    def flush():
        nonlocal target, rows
        if target is None:
            return
        kind, idx = target
        data = np.array(rows)
        if kind == "block":
            blocks[idx] = data
        else:
            cofs[idx] = data.reshape(-1)
        target, rows = None, []

    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "lambda":
                flush()
                lam = float(parts[1])
            elif parts[0] in ("block", "cofactor"):
                flush()
                target = (parts[0], int(parts[1]))
            else:
                rows.append([float(v) for v in parts])
    flush()
    res = prob.residual(blocks, cofs)
    return SolverResult(blocks, cofs, lam, res)
