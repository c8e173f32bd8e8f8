"""Orchestration of the certification pipelines.

Four routes produce a Certificate: strict positivity on the real variety
(radical ideals), strict positivity on S via inequality perturbation,
nonnegativity through the (a, b, gamma) witness, and non-radical ideals.
A non-radical ideal I gets the radical route's own Gram certificate of
f~ - eps over its radical J, plus eps t^2 with t the square root of
1 mod J Hensel-lifted inside R/I; no ring but R/I and R/J is built.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import gram, quotient, variety
from .errors import (IdentityBroken, NonPositiveAtRealRoot, NotStrictlyPositiveOnS,
                     PrecisionExceeded)
from .polyring import Polynomial, evaluate, round_binary


class Certificate:
    """Exact data of the identity
    f = sum_k w_{0,k} q_{0,k}^2 + sum_i (sum_k w_{i,k} q_{i,k}^2) g_i + sum_j p_j h_j.

    `blocks[i]` is the list of (weight, square) pairs of block i (block 0 is
    the free SoS part); `cofactors[j]` multiplies h_j.  In nonnegative mode
    `witnesses[k]` is r_k with q_{0,k} = f * r_k modulo I.
    """

    def __init__(self, mode, blocks, cofactors, witnesses=None, gamma=None):
        self.mode = mode
        self.blocks = blocks
        self.cofactors = cofactors
        self.witnesses = witnesses
        self.gamma = gamma


def expansion(inst, cert):
    """The right-hand side of the certificate identity:
    sum_i m_i sum_k w_{i,k} q_{i,k}^2 + sum_j p_j h_j with m_0 = 1, m_i = g_i."""
    total = Polynomial.zero(inst.nvars)
    for i, block in enumerate(cert.blocks):
        for w, q in block:
            square = q * q * w
            total = total + (square if i == 0 else inst.g[i - 1] * square)
    for pj, hj in zip(cert.cofactors, inst.h):
        total = total + pj * hj
    return total


class ProblemInstance:
    def __init__(self, var_names, f, g=None, h=None, options=None):
        self.var_names = list(var_names)
        self.f = f
        self.g = list(g or [])
        self.h = list(h or [])
        self.options = dict(options or {})
        if not self.h:
            raise ValueError("at least one equality constraint required")

    @property
    def nvars(self):
        return len(self.var_names)


def build_ring(inst):
    """The quotient ring R/I of the instance's equations."""
    return quotient.monomial_basis(quotient.groebner(inst.h))


def _real_values(var, p):
    pf = p.to_float()
    return {i: evaluate(pf, [z.real for z in pt.coordinates])
            for i, pt in enumerate(var.points) if pt.kind == "real"}


def perturb(inst, ring, var):
    """phi = sum rho_xi u_xi^2 g_{i_xi} over excluded real points, with
    rational data, such that f - phi > 0 at every real root.

    Returns (per-constraint blocks of (weight, square), f - phi)."""
    member = variety.membership(var, inst.g)
    f_vals = _real_values(var, inst.f)
    tol = var.decision_tol
    for i in member.s_indices:
        if f_vals[i] < -tol:
            raise NotStrictlyPositiveOnS(f"f = {f_vals[i]:.3e} at a point of S")
    if not member.excluded:
        return [[] for _ in inst.g], inst.f
    # phi >= 0 on S, so no rounding lifts f - phi above tol where f is not
    for i in member.s_indices:
        if f_vals[i] <= tol:
            raise PrecisionExceeded(f"float64 margin used up: f = {f_vals[i]:.3e} at a point "
                                    f"of S, within the perturbation tolerance {tol:.1e}")
    rhos = []
    for idx, gi in member.excluded:
        coords = [z.real for z in var.points[idx].coordinates]
        g_val = evaluate(inst.g[gi].to_float(), coords)
        rho = Fraction(1)
        while f_vals[idx] - float(rho) * g_val <= max(1.0, abs(f_vals[idx])):
            rho *= 2
        rhos.append(rho)

    def round_at(bits):
        return [ring.from_vector([round_binary(float(c.real), bits)
                                  for c in var.idempotents[:, idx]])
                for idx, _ in member.excluded]

    def attempt(u_hats):
        blocks = [[] for _ in inst.g]
        phi = Polynomial.zero(inst.nvars)
        for (_, gi), rho, u_hat in zip(member.excluded, rhos, u_hats):
            blocks[gi].append((rho, u_hat))
            phi = phi + inst.g[gi] * (u_hat * u_hat) * rho
        f_tilde = inst.f - phi
        if all(v > tol for v in _real_values(var, f_tilde).values()):
            return blocks, f_tilde
        return None

    return gram.escalate(16, round_at, attempt)


def _squares_from_factorization(ring, fact):
    out = []
    for w, vec in fact.square_vectors():
        poly = ring.from_vector([Fraction(v) for v in vec])
        if not poly.is_zero():
            out.append((w, poly))
    return out


def _assemble(inst, ring, blocks0, g_blocks):
    """Close the identity: the residual f minus the sums of squares lies in
    the ideal by construction, and its exact cofactors complete it."""
    cert = Certificate("strict", [blocks0] + g_blocks, [])
    cof = quotient.cofactor_reduce(ring, inst.f - expansion(inst, cert))
    if not cof.remainder.is_zero():
        raise IdentityBroken("residual is not in the ideal")
    cert.cofactors = [pj * Fraction(1, cof.nu) for pj in cof.p_j]
    return cert


def certify_strict(inst, ring=None):
    """Strict-positivity certificate of f on S."""
    if ring is None:
        ring = build_ring(inst)
    if ring.D == 0:
        raise NotStrictlyPositiveOnS("trivial ideal: empty variety")
    if not ring.is_radical:
        return certify_strict_nonradical(inst, ring=ring)
    seed = inst.options.get("seed", 0)
    var = variety.solve_variety(ring, seed=seed)
    g_blocks, f_tilde = perturb(inst, ring, var)
    start = inst.options.get("precision_start", 32)
    _, fact = gram.round_and_certify(ring, var, f_tilde, start_bits=start)
    blocks0 = _squares_from_factorization(ring, fact)
    return _assemble(inst, ring, blocks0, g_blocks)


def certify_nonneg(inst, ring=None):
    """Nonnegativity certificate via the coprimality witness: certify the
    strictly positive a, then use f = (1/gamma) a f^2 modulo I."""
    if ring is None:
        ring = build_ring(inst)
    a, b, gamma_val = quotient.coprimality_witness(ring, inst.f)
    inner = ProblemInstance(inst.var_names, a, inst.g, inst.h,
                            options=inst.options)
    cert_a = certify_strict(inner, ring=ring)
    f = inst.f
    blocks = []
    witnesses = []
    for i, block in enumerate(cert_a.blocks):
        new_block = []
        for w, qbar in block:
            q = ring.normal_form(qbar * f)
            if q.is_zero():
                continue
            new_block.append((w / gamma_val, q))
            if i == 0:
                witnesses.append(ring.normal_form(qbar))
        blocks.append(new_block)
    out = _assemble(inst, ring, blocks[0], blocks[1:])
    return Certificate("nonneg", out.blocks, out.cofactors,
                       witnesses=witnesses, gamma=gamma_val)


def hensel_sqrt(ring, theta):
    """Newton square-root lifting in ring = R/I of a theta that is 1 modulo
    the radical J: from t = sigma = 1 to the unique t = 1 mod J with
    t^2 = theta mod I (unique because 2 is a unit).

    Each level takes two Newton steps sigma <- sigma (2 - t sigma) for the
    inverse of t, then t <- (t + theta sigma) / 2; the level k iterate is
    right modulo J^(2^k).  J/I is nilpotent in an algebra of dimension D, so
    J^D lies in I and ceil(log2 D) + 1 levels always suffice."""
    theta = ring.normal_form(theta)
    t = sigma = Polynomial.constant(1, ring.nvars)
    for _ in range((ring.D - 1).bit_length() + 1):
        for _ in range(2):
            sigma = ring.normal_form(sigma * (2 - ring.normal_form(t * sigma)))
        t = ring.normal_form((t + theta * sigma) * Fraction(1, 2))
        if ring.normal_form(t * t - theta).is_zero():
            return t
    raise IdentityBroken("Hensel step does not square to theta")


def certify_strict_nonradical(inst, ring=None):
    """Strict certificate when the ideal has multiple points.  Over the
    radical J, certify f~ - eps = sum w q^2 mod J for a power of two eps
    below f~ at the real roots; then theta = (f~ - sum w q^2) / eps is 1
    modulo J, and its Hensel-lifted square root t gives
    f~ = sum w q^2 + eps t^2 modulo I."""
    if ring is None:
        ring = build_ring(inst)
    ring_j = ring.radical_ring
    var_j = variety.solve_variety(ring_j, seed=inst.options.get("seed", 0))
    g_blocks, f_tilde = perturb(inst, ring_j, var_j)
    # eps is the largest power of two <= min(1, low / 2), or 1 without real roots
    low = min(_real_values(var_j, f_tilde).values(), default=2.0)
    if low <= 0:
        raise NonPositiveAtRealRoot(f"p = {low:.3e} at a real root")
    eps = Fraction(2) ** min(0, math.frexp(low / 2)[1] - 1)
    _, fact = gram.round_and_certify(ring_j, var_j, f_tilde - eps,
                                     start_bits=inst.options.get("precision_start", 32))
    blocks0 = _squares_from_factorization(ring_j, fact)
    theta = (f_tilde - sum((q * q * w for w, q in blocks0), Polynomial.zero(inst.nvars))) / eps
    blocks0.append((eps, hensel_sqrt(ring, theta)))
    return _assemble(inst, ring, blocks0, g_blocks)


# the values of the mode and engine options, in files and on the command line
OPTION_CHOICES = {"mode": ("strict", "nonneg"), "engine": ("constructive", "sdp")}


def certify(inst, ring=None):
    """Dispatch on the engine and mode options.  The SDP engine returns a
    strict-mode certificate in either mode (it proves nonnegativity too);
    the witness structure of the constructive nonneg route is not produced
    there."""
    if inst.options.get("engine") == "sdp":
        from . import sdp_backend

        return sdp_backend.algorithm1_certify(inst, ring)
    if inst.options.get("mode") == "nonneg":
        return certify_nonneg(inst, ring)
    return certify_strict(inst, ring)
