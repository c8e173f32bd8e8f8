"""Orchestration of the certification pipelines.

Four routes produce a Certificate: strict positivity on the real variety
(radical ideals), strict positivity on S via inequality perturbation,
nonnegativity through the (a, b, gamma) witness, and non-radical ideals.
A non-radical ideal I gets the radical route's own Gram certificate of
f~ - eps over its radical J, plus eps t^2 with t the square root, 1 mod J,
of theta = 1 mod J, a finite binomial series in R/I; no ring but R/I and
R/J is built.  Every product in R/I reads the ring's product table.
Both strict routes solve roots on a radical ring and judge the sign of f
at the points of S by one rule, in `perturb`.  The Gram routes (radical,
Hensel, SDP) close their identity through the one Gram step
(`gram.gram_squares`): it returns the LDL^t squares of a Gram matrix Q0 of
f~ with the rest f~ - B^t Q0 B.  Each route, the SDP engine's too, hands
its blocks and rest to `_assemble`, which finds the rest's cofactors.
Squares that no Gram matrix carries are expanded by the verifier's
`verify_bounds.residual`.  The data types come from `problem_io`, so
`verify` and `bounds` never load this module or an engine.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import gram, quotient, sdp_backend, variety, verify_bounds
from .errors import IdentityBroken, NotStrictlyPositiveOnS, PrecisionExceeded
from .polyring import evaluate, round_scaled
from .problem_io import Certificate, ProblemInstance


def _real_values(var, p):
    return [evaluate(p, xi) for xi in var.real]


def perturb(inst, ring, var):
    """phi = sum rho_xi u_xi^2 g_{i_xi} over the excluded points xi of
    `var.real`, with rational data, such that f - phi > 0 at every real
    point; u_xi is xi's column of `var.real_idem`, rounded.

    This is the one sign rule of both strict routes at the points of S:
    f < -tol means no certificate exists (NotStrictlyPositiveOnS); f <= 0,
    or f <= tol when points are excluded, means float64 cannot show the
    margin (PrecisionExceeded).  phi >= 0 on S, so no rounding lifts
    f - phi above tol where f is not.

    Returns (per-constraint blocks of (weight, square), f - phi)."""
    member = variety.membership(var, inst.g)
    f_vals = _real_values(var, inst.f)
    tol = var.decision_tol
    for i in member.s_indices:
        if f_vals[i] < -tol:
            raise NotStrictlyPositiveOnS(f"f = {f_vals[i]:.3e} at a point of S")
    floor = tol if member.excluded else 0.0
    for i in member.s_indices:
        if f_vals[i] <= floor:
            within = f", within the perturbation tolerance {tol:.1e}" if floor else ""
            raise PrecisionExceeded(f"float64 margin used up: f = {f_vals[i]:.3e} at a point "
                                    f"of S{within}")
    if not member.excluded:
        return [[] for _ in inst.g], inst.f
    rhos = []
    for idx, gi in member.excluded:
        g_val = evaluate(inst.g[gi], var.real[idx])
        rho = Fraction(1)
        while f_vals[idx] - float(rho) * g_val <= max(1.0, abs(f_vals[idx])):
            rho *= 2
        rhos.append(rho)

    def round_at(bits):
        return [ring.from_vector([round_scaled(c, bits) for c in var.real_idem[:, idx].tolist()],
                                 1 << bits)
                for idx, _ in member.excluded]

    def attempt(u_hats):
        blocks = [[] for _ in inst.g]
        for (_, gi), rho, u_hat in zip(member.excluded, rhos, u_hats):
            blocks[gi].append((rho, u_hat))
        f_tilde = verify_bounds.residual(inst, Certificate("strict", [[]] + blocks, []))
        if all(v > tol for v in _real_values(var, f_tilde)):
            return blocks, f_tilde
        return None

    return gram.escalate(16, round_at, attempt)


def _assemble(ring, blocks, rest):
    """Close the identity f = sum of the blocks' squares + sum p_j h_j.
    `rest` is f minus the squares; it lies in the ideal by construction, and
    its exact cofactors complete the certificate.  The Gram routes take it
    from the Gram step (`gram.gram_squares`), which reads it off the Gram
    matrix whose LDL^t form their squares are, and expand no square:
    `verify_bounds.residual` stays the verifier's expansion, which the CLI
    runs on every certificate it writes."""
    cof = quotient.cofactor_reduce(ring, rest)
    if not cof.remainder.is_zero():
        raise IdentityBroken("residual is not in the ideal")
    return Certificate("strict", blocks, cof.p_j)


def certify_strict(inst, ring=None):
    """Strict-positivity certificate of f on S, for a ring with D >= 1
    (`certify` handles the empty variety)."""
    if ring is None:
        ring = quotient.build_ring(inst.h)
    if not ring.is_radical:
        return certify_strict_nonradical(inst, ring=ring)
    seed = inst.options.get("seed", 0)
    var = variety.solve_variety(ring, seed=seed)
    return _assemble(ring, *_strict_squares(inst, ring, var))


def _strict_squares(inst, ring, var):
    """The blocks of `certify_strict` on a radical ring, from its points
    var, and the rest f~ - B^t Q0 B that `_assemble` closes."""
    g_blocks, f_tilde = perturb(inst, ring, var)
    squares, rest = gram.round_and_certify(ring, var, f_tilde)
    return [squares] + g_blocks, rest


def certify_nonneg(inst, ring=None):
    """Nonnegativity certificate via the coprimality witness: take the
    squares of a strict certificate of the positive a, from the witness's
    roots of R/J, then close f = (1/gamma) a f^2 modulo I."""
    if ring is None:
        ring = quotient.build_ring(inst.h)
    seed = inst.options.get("seed", 0)
    roots = functools.cache(lambda: variety.solve_variety(ring.radical_ring, seed=seed))
    a, b, gamma_val = quotient.coprimality_witness(ring, inst.f, roots=roots)
    inner = ProblemInstance(inst.var_names, a, inst.g, inst.h,
                            options=inst.options)
    try:
        squares = _strict_squares if ring.is_radical else _hensel_squares
        # only f's identity is closed: a's rest is dropped
        squares_of_a, _ = squares(inner, ring, roots())
    except NotStrictlyPositiveOnS as exc:
        # a = gamma / f wherever f != 0, and a > 0 where f = 0: a < 0 at a
        # point of S is f < 0 there, while the inner message gives a's value
        raise NotStrictlyPositiveOnS("f < 0 at a point of S") from exc
    nf_f = ring.nf_vector(inst.f)
    blocks = []
    witnesses = []
    for i, block in enumerate(squares_of_a):
        new_block = []
        for w, qbar in block:
            q = ring.from_vector(*ring.mul(ring.nf_vector(qbar), nf_f))
            if q.is_zero():
                continue
            new_block.append((w / gamma_val, q))
            if i == 0:
                witnesses.append(qbar)
        blocks.append(new_block)
    out = _assemble(ring, blocks, verify_bounds.residual(inst, Certificate("strict", blocks, [])))
    return Certificate("nonneg", out.blocks, out.cofactors,
                       witnesses=witnesses, gamma=gamma_val)


def hensel_sqrt(ring, theta):
    """The square root t = 1 mod the radical J of a theta that is 1 mod J,
    in ring = R/I: unique, since 2 is a unit, so it is what Newton's
    (Hensel's) lift from t = 1 converges to.

    With n = theta - 1 in J/I, t is the binomial series
    sum_k C(1/2, k) n^k.  J/I is nilpotent in an algebra of dimension D, so
    n^D = 0 and the series ends within D - 1 products in R/I."""
    theta = ring.nf_vector(theta)
    n = quotient.combine([(1, *theta), (-1, *ring.unit)], ring.D)
    terms, power = [(Fraction(1), *ring.unit)], ring.unit
    for k in range(1, ring.D):
        power = ring.mul(power, n)
        if not any(power[0]):
            break
        # C(1/2, k) = C(1/2, k - 1) (1/2 - (k - 1)) / k
        terms.append((terms[-1][0] * (Fraction(3, 2) - k) / k, *power))
    t = quotient.combine(terms, ring.D)
    if ring.mul(t, t) != theta:
        raise IdentityBroken("Hensel step does not square to theta")
    return ring.from_vector(*t)


def certify_strict_nonradical(inst, ring=None):
    """Strict certificate when the ideal has multiple points.  Over the
    radical J, certify f~ - eps = sum w q^2 mod J for a power of two eps
    below f~ at the real roots; then theta = (f~ - sum w q^2) / eps is 1
    modulo J, and its Hensel-lifted square root t gives
    f~ = sum w q^2 + eps t^2 modulo I."""
    if ring is None:
        ring = quotient.build_ring(inst.h)
    var_j = variety.solve_variety(ring.radical_ring, seed=inst.options.get("seed", 0))
    return _assemble(ring, *_hensel_squares(inst, ring, var_j))


def _hensel_squares(inst, ring, var_j):
    """The blocks of `certify_strict_nonradical`, from the points of R/J,
    and the rest eps theta - eps t^2 that `_assemble` closes."""
    ring_j = ring.radical_ring
    g_blocks, f_tilde = perturb(inst, ring_j, var_j)
    # eps is the largest power of two <= min(1, low / 2), or 1 without real
    # roots; perturb has made low > 0
    low = min(_real_values(var_j, f_tilde), default=2.0)
    eps = Fraction(2) ** min(0, math.frexp(low / 2)[1] - 1)
    squares, rest = gram.round_and_certify(ring_j, var_j, f_tilde - eps)
    # eps theta = f~ - B_J^t Q0 B_J = rest + eps; eps t^2 = B^t (eps c c^t) B
    # for t = B^t c
    eps_theta = rest + eps
    t = hensel_sqrt(ring, eps_theta / eps)
    c, den = ring.nf_vector(t)
    eps_t2 = gram.SymmetricMatrix([[eps.numerator * x * y for y in c] for x in c],
                                  eps.denominator * den * den)
    return [squares + [(eps, t)]] + g_blocks, gram.gram_rest(eps_theta, ring.basis, eps_t2)


def certify(inst, ring=None):
    """Dispatch on the engine and mode options.  The SDP engine returns a
    strict-mode certificate in either mode (it proves nonnegativity too);
    the witness structure of the constructive nonneg route is not produced
    there.  An empty variety (1 in I) needs no squares at all: f lies in I,
    and its cofactors alone are the certificate, in every mode and engine."""
    if ring is None:
        ring = quotient.build_ring(inst.h)
    if ring.D == 0:
        return _assemble(ring, [[] for _ in range(len(inst.g) + 1)], inst.f)
    if inst.options.get("engine") == "sdp":
        return _assemble(ring, *sdp_backend.algorithm1_certify(inst, ring))
    if inst.options.get("mode") == "nonneg":
        return certify_nonneg(inst, ring)
    return certify_strict(inst, ring)
