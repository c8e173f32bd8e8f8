"""Feasibility-SDP route to the same certificates.

Modulo the zero-dimensional ideal I every square reduces to a square over
the quotient basis B (q^2 = NF(q)^2 mod I), so the problem is posed over B
itself: one D x D Gram block Q_i per multiplier m_0 = 1, m_i = g_i, and the
D coefficient equations

    NF(sum_i m_i b Q_i b^t) = NF(f)    over B,

with no cofactor unknowns; the cofactors of the h_j come afterwards from
exact reduction, as on the constructive route.  The problem maximizes the
smallest eigenvalue lam of the free block Q_0, in one primal-dual
interior-point solve (`maximize_lambda`) that stops once lam is known
within a factor 1.5.  The rounding step re-derives an exact certificate
from the approximate blocks, and all rounding error and the solver's
residual are absorbed into the free block, which takes the constructive
routes' one Gram step (`gram.gram_squares`): it is corrected exactly into
its Gram set along row and column 0 and factored.  `algorithm1_certify`
returns the blocks with the rest read off that block's Gram matrix, and
`certifier.certify` closes the identity from them, as it does the
constructive routes': this module does not import `certifier`.  The float
problem reads the ring's vectors (ints, den) as x / den, which rounds
correctly as float(Fraction(x, den)) does.
`solve_feasibility` (Dykstra's alternating projections at a fixed lam) is
kept as an independent reference for the tests.
"""

from __future__ import annotations

import math

import numpy as np

from . import gram, quotient, verify_bounds
from .errors import Infeasible, MaxIterations
from .polyring import round_binary, round_scaled
from .problem_io import Certificate


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
        products = np.array([[x / den for x in v] for row in ring.products for v, den in row],
                            dtype=float).reshape(d * d, d).T
        mats = [ring.mult_matrix(ring.nf_vector(g)) for g in inst.g]
        self.A = np.hstack([products] + [np.array([[x / den for x in row] for row in rows])
                                         @ products for rows, den in mats])
        f_ints, f_den = ring.nf_vector(inst.f)
        self.b = np.array([x / f_den for x in f_ints])
        self._pinv = None             # built by the first project_affine

    def unpack(self, x):
        d = self.ring.D
        return [np.asarray(x[k * d * d:(k + 1) * d * d]).reshape(d, d)
                for k in range(len(self.block_sizes))]

    def pack(self, blocks):
        return np.concatenate([q.reshape(-1) for q in blocks])

    def project_affine(self, x):
        if self._pinv is None:
            self._pinv = np.linalg.pinv(self.A)
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
    def __init__(self, blocks, lam, residual, bound=None, iterations=0):
        self.blocks = blocks          # float symmetric PSD matrices
        self.lam = lam
        self.residual = residual
        self.bound = bound            # dual objective b^t y >= lam*, if known
        self.iterations = iterations  # interior-point steps taken


def solve_feasibility(prob, lam, iterations=40000, tol=1e-8):
    """Dykstra alternating projections onto {A x = b} and the PSD cone
    product with the free block shifted by lam."""
    x = prob.project_affine(np.zeros(prob.nvars_total))
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
                raise MaxIterations(f"feasibility residual stalled at {best:.3e}")
            checkpoint = best
    raise MaxIterations(f"feasibility residual {best:.3e} after {iterations} iterations")


def maximize_lambda(prob, iterations=100):
    """Primal-dual interior-point solve of

        primal  max lam   s.t.  sum_k A_k(X_k) + lam a = b,  X_k >= 0,
        dual    min b^t y s.t.  S_k = A_k^*(y) >= 0,  a^t y = 1,

    with X_0 = Q_0 - lam I, a = A_0(I) and A_k the k-th D x D slice of
    prob.A.  Each iteration takes the HKM direction with Mehrotra's
    predictor-corrector (sigma = (mu_aff / mu)^3) and 0.95 of the step to
    the boundary, from the infeasible start X = S = I, y = 0, lam = 0.  lam
    stays one free scalar, eliminated through the bordered Schur system
    [M a; a^t 0] with M_rs = sum_k tr(A_{k,r} X_k A_{k,s} S_k^-1).  The
    blocks are stacked, A_k as one (K, D, D^2) view of prob.A and X, S as
    (K, D, D) arrays: each numpy call does the float operations of a loop
    over the blocks, summing over blocks in block order, and one Cholesky
    factor of [X; S] per iterate serves the steps of both directions.

    It stops once lam > 0, the primal residual is at most 1e-3 lam
    (relative to 1 + |b|_inf), and either the dual is feasible with
    b^t y <= 1.5 lam or lam >= 1: the rounding precision depends only on
    the decimal order of lam, the exact row-0 correction absorbs the
    primal residual, and lam >= 1 already rounds at the fewest bits.  lam
    is unbounded without real points in S, and lam >= 1 caps it there.
    Driving the residuals further makes M singular.

    A feasible dual proves lam* <= b^t y: Infeasible is raised with that
    bound once it is <= 0 to the float resolution of b, as it becomes when
    the gap closes at lam* = 0.  A float breakdown of the Newton system, or
    the iteration limit, raises MaxIterations with the residuals."""
    ring = prob.ring
    d = ring.D
    nk = len(prob.block_sizes)
    a3 = prob.A.reshape(d, nk, d * d).transpose(1, 0, 2)
    a3t = a3.transpose(0, 2, 1)
    eye = np.eye(d)
    a = a3[0] @ eye.reshape(-1)
    # a = NF(sum_p b_p^2) is exactly 0 only without real points (it is at
    # least 1 at a real point); lam then leaves the constraints and is held
    # at 1
    held = not any(quotient.combine([(1, *ring.products[p][p]) for p in range(d)], d)[0])
    b = prob.b
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    xs = np.array([eye] * nk)
    ss = xs.copy()
    y = np.zeros(d)
    lam = 1.0 if held else 0.0
    bordered = np.block([[np.zeros((d, d)), a[:, None]], [a[None, :], np.zeros((1, 1))]])
    rhs = np.empty(d + 1)
    for it in range(iterations):
        r_p = b - sum(a3 @ xs.reshape(nk, -1, 1))[:, 0] - lam * a
        r_d = ss - (a3t @ y).reshape(nk, d, d)
        r_lam = 1.0 - float(a @ y)
        p_res = float(np.max(np.abs(r_p), initial=0.0)) / scale
        d_res = max(abs(r_lam), max(np.max(np.abs(r_d), axis=(1, 2)).tolist()))
        # b^t y bounds lam* only when the dual is feasible; at or below the
        # float resolution of b it proves that lam* is not positive
        bound = float(b @ y) if d_res < 1e-8 else None
        if bound is not None and bound <= np.finfo(float).eps * scale:
            raise Infeasible(bound)
        known = lam >= 1 or (bound is not None and bound <= 1.5 * lam)
        if lam > 0 and p_res <= 1e-3 * lam and known:
            blocks = [xs[0] + lam * eye, *xs[1:]]
            return SolverResult(blocks, lam, prob.residual(blocks), bound, it)
        try:
            s_inv = np.linalg.inv(ss)
            kron = np.einsum("kij,kab->kiajb", s_inv, xs).reshape(nk, d * d, d * d)
            m = bordered[:d, :d] = sum(a3 @ kron @ a3t)

            def step_blocks(dy, targets):
                dss = (a3t @ dy).reshape(nk, d, d) - r_d
                dxs = targets - xs @ dss @ s_inv
                return (dxs + dxs.transpose(0, 2, 1)) / 2.0, dss

            def direction(targets):
                # dX_k = G_k - X_k dS_k S_k^-1 with dS_k = A_k^*(dy) - R_k, so
                # the primal equation A(dX) + dlam a = r_p and a^t dy = r_lam
                # read M dy - dlam a = A(G + X R S^-1) - r_p.  One solve and
                # one refinement against the computed dX keep the step's
                # primal residual at float level as M grows ill-conditioned.
                dy, dlam = np.zeros(d), 0.0
                for _ in range(2):
                    dxs, dss = step_blocks(dy, targets)
                    e_p = r_p - dlam * a - sum(a3 @ dxs.reshape(nk, -1, 1))[:, 0]
                    if held:
                        dy = dy - np.linalg.solve(m, e_p)
                    else:
                        rhs[:d], rhs[d] = -e_p, r_lam - a @ dy
                        sol = np.linalg.solve(bordered, rhs)
                        dy, dlam = dy + sol[:d], dlam - sol[d]
                return (*step_blocks(dy, targets), dy, dlam)

            def max_steps(dxs, dss):
                # the largest alpha <= 1 with L^-1 (P + alpha dP) L^-t >= 0
                low = np.linalg.eigvalsh(inv_l @ np.concatenate((dxs, dss)) @ inv_lt)[:, 0]
                alpha = [-1.0 / v if v < 0 else math.inf for v in low.tolist()]
                return min([1.0] + alpha[:nk]), min([1.0] + alpha[nk:])

            mu = sum(float(np.vdot(xk, sk)) for xk, sk in zip(xs, ss)) / (d * nk)
            dxs, dss, _, _ = direction(-xs)
            # factored after the predictor's solves, as a per-block loop
            # does, so that a breakdown raises the same error there
            inv_l = np.linalg.inv(np.linalg.cholesky(np.concatenate((xs, ss))))
            inv_lt = inv_l.transpose(0, 2, 1)
            alpha_p, alpha_d = max_steps(dxs, dss)
            mu_aff = sum(float(np.vdot(xk, sk)) for xk, sk
                         in zip(xs + alpha_p * dxs, ss + alpha_d * dss)) / (d * nk)
            sigma = (mu_aff / mu) ** 3
            dxs, dss, dy, dlam = direction(sigma * mu * s_inv - xs - dxs @ dss @ s_inv)
            alpha_p, alpha_d = max_steps(dxs, dss)
        except np.linalg.LinAlgError as exc:
            raise MaxIterations(f"interior point broke down at iteration {it} ({exc}): "
                                f"primal residual {p_res:.3e}, dual residual {d_res:.3e}, "
                                f"lambda {lam:.3e}") from exc
        alpha_p, alpha_d = 0.95 * alpha_p, 0.95 * alpha_d
        xs = xs + alpha_p * dxs
        lam += alpha_p * dlam
        y = y + alpha_d * dy
        ss = ss + alpha_d * dss
    raise MaxIterations(f"interior point: {iterations} iterations, primal residual "
                        f"{p_res:.3e}, dual residual {d_res:.3e}, lambda {lam:.3e}")


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
        vec = [round_scaled(float(v[i, k]), bits) for i in range(v.shape[0])]
        if any(vec):
            out.append(ring.square(weight, vec, 1 << bits))
    return out


def algorithm1_certify(inst, ring):
    """Solve the SDP for the largest lam, then round at an escalating
    precision, starting from the decimal order of lam, until the Gram step
    on the free block finds it positive definite.  Returns the blocks and
    the rest f - B^t Q0 B - (the g blocks), which lies in the ideal by
    construction; `certifier.certify` closes that identity, as it does the
    constructive routes'."""
    prob = SdpProblem(inst, ring)
    result = maximize_lambda(prob)

    def round_at(bits):
        return (gram.round_matrix(result.blocks[0], bits),
                [_round_eigen_squares(ring, q, bits) for q in result.blocks[1:]])

    def attempt(rounded):
        q0_hat, g_blocks = rounded
        # f minus the g part is a sum of squares of the free block mod I
        f_hat = verify_bounds.residual(inst, Certificate("strict", [[]] + g_blocks, []))
        step = gram.gram_squares(gram.GramVariety(ring, f_hat), q0_hat)
        return None if step is None else ([step[0]] + g_blocks, step[1])

    kappa = max(math.ceil(-math.log10(result.lam)), 0)
    return gram.escalate(max(math.ceil(kappa * math.log2(10)), 4), round_at, attempt)

