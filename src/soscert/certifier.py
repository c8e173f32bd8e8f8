"""Orchestration of the certification pipelines.

Four routes produce a Certificate: strict positivity on the real variety
(radical ideals), strict positivity on S via inequality perturbation,
nonnegativity through the (a, b, gamma) witness, and non-radical ideals.
A non-radical ideal I gets the radical route's own Gram certificate of
f~ - eps over its radical J, plus eps t^2 with t the square root, 1 mod J,
of theta = 1 mod J, a finite binomial series in R/I; no ring but R/I and
R/J is built.  Every product in R/I reads the ring's product table.
Both strict routes solve roots on a radical ring and judge the sign of f
at the points of S by one rule, in `perturb`.  `residual` is the one
expansion of a certificate identity, for the verifier as for the routes.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from . import gram, quotient, variety
from .errors import IdentityBroken, NotStrictlyPositiveOnS, PrecisionExceeded
from .polyring import Monomial, Polynomial, evaluate, integral, round_binary


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


def _add_product(acc, a, b, scale):
    """acc += scale * a * b on integer polynomials keyed by exponent tuples."""
    for e1, c1 in a.items():
        c1 *= scale
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2


def _add_square(acc, a, scale):
    """acc += scale * a^2, each cross term taken once."""
    items = list(a.items())
    for i, (e1, c1) in enumerate(items):
        s1 = scale * c1
        e = tuple(map(operator.add, e1, e1))
        acc[e] = acc.get(e, 0) + s1 * c1
        s1 += s1
        for e2, c2 in items[i + 1:]:
            e = tuple(map(operator.add, e1, e2))
            acc[e] = acc.get(e, 0) + s1 * c2


def residual(inst, cert):
    """f - sum_i m_i sum_k w_{i,k} q_{i,k}^2 - sum_j p_j h_j, with m_0 = 1
    and m_i = g_i: the certificate identity expanded exactly, in integers
    over one common denominator lcd.  Each factor is an integer polynomial
    over its own lcm denominator; only the nonzero residual terms become
    Fractions c / lcd."""
    n = inst.nvars
    f, f_den = integral(inst.f)
    mults = [({(0,) * n: 1}, 1)] + [integral(g) for g in inst.g]
    blocks = [[(w, *integral(q)) for w, q in block] for block in cert.blocks]
    products = [(integral(p), integral(h)) for p, h in zip(cert.cofactors, inst.h)]
    lcd = math.lcm(f_den,
                   *(w.denominator * d * d * m_den
                     for (_, m_den), block in zip(mults, blocks) for w, _, d in block),
                   *(dp * dh for (_, dp), (_, dh) in products))
    acc = {e: c * (lcd // f_den) for e, c in f.items()}
    for (m, m_den), block in zip(mults, blocks):
        # one product by m_i for the whole block
        inner = {}
        for w, q, d in block:
            _add_square(inner, q, -w.numerator * (lcd // (w.denominator * d * d * m_den)))
        _add_product(acc, m, inner, 1)
    for (p, dp), (h, dh) in products:
        _add_product(acc, p, h, -(lcd // (dp * dh)))
    return Polynomial({Monomial(e): Fraction(c, lcd) for e, c in acc.items() if c}, n)


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
    # float(): a constant p evaluates to a Fraction even at a float point
    return {i: float(evaluate(p, [z.real for z in pt.coordinates]))
            for i, pt in enumerate(var.points) if pt.kind == "real"}


def perturb(inst, ring, var):
    """phi = sum rho_xi u_xi^2 g_{i_xi} over excluded real points, with
    rational data, such that f - phi > 0 at every real root.

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
        coords = [z.real for z in var.points[idx].coordinates]
        g_val = evaluate(inst.g[gi], coords)
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
        for (_, gi), rho, u_hat in zip(member.excluded, rhos, u_hats):
            blocks[gi].append((rho, u_hat))
        f_tilde = residual(inst, Certificate("strict", [[]] + blocks, []))
        if all(v > tol for v in _real_values(var, f_tilde).values()):
            return blocks, f_tilde
        return None

    return gram.escalate(16, round_at, attempt)


def _squares_from_factorization(ring, fact):
    out = []
    for w, vec in fact.square_vectors():
        poly = ring.from_vector(vec)
        if not poly.is_zero():
            out.append((w, poly))
    return out


def _assemble(inst, ring, blocks0, g_blocks):
    """Close the identity: the residual f minus the sums of squares lies in
    the ideal by construction, and its exact cofactors complete it."""
    cert = Certificate("strict", [blocks0] + g_blocks, [])
    cof = quotient.cofactor_reduce(ring, residual(inst, cert))
    if not cof.remainder.is_zero():
        raise IdentityBroken("residual is not in the ideal")
    cert.cofactors = cof.p_j
    return cert


def certify_strict(inst, ring=None):
    """Strict-positivity certificate of f on S, for a ring with D >= 1
    (`certify` handles the empty variety)."""
    if ring is None:
        ring = build_ring(inst)
    if not ring.is_radical:
        return certify_strict_nonradical(inst, ring=ring)
    seed = inst.options.get("seed", 0)
    var = variety.solve_variety(ring, seed=seed)
    return _assemble(inst, ring, *_strict_squares(inst, ring, var))


def _strict_squares(inst, ring, var):
    """Block 0 and the g blocks of `certify_strict` on a radical ring, from
    its points var, before `_assemble` closes the identity."""
    g_blocks, f_tilde = perturb(inst, ring, var)
    _, fact = gram.round_and_certify(ring, var, f_tilde)
    return _squares_from_factorization(ring, fact), g_blocks


def certify_nonneg(inst, ring=None):
    """Nonnegativity certificate via the coprimality witness: take the
    squares of a strict certificate of the positive a, from the witness's
    roots of R/J, then close f = (1/gamma) a f^2 modulo I."""
    if ring is None:
        ring = build_ring(inst)
    seed = inst.options.get("seed", 0)
    roots = functools.cache(lambda: variety.solve_variety(ring.radical_ring, seed=seed))
    a, b, gamma_val = quotient.coprimality_witness(ring, inst.f, roots=roots)
    inner = ProblemInstance(inst.var_names, a, inst.g, inst.h,
                            options=inst.options)
    try:
        squares = _strict_squares if ring.is_radical else _hensel_squares
        blocks0, g_blocks = squares(inner, ring, roots())
    except NotStrictlyPositiveOnS as exc:
        # a = gamma / f wherever f != 0, and a > 0 where f = 0: a < 0 at a
        # point of S is f < 0 there, while the inner message gives a's value
        raise NotStrictlyPositiveOnS("f < 0 at a point of S") from exc
    nf_f = ring.nf_vector(inst.f)
    blocks = []
    witnesses = []
    for i, block in enumerate([blocks0] + g_blocks):
        new_block = []
        for w, qbar in block:
            q = ring.from_vector(*ring.mul(ring.nf_vector(qbar), nf_f))
            if q.is_zero():
                continue
            new_block.append((w / gamma_val, q))
            if i == 0:
                witnesses.append(qbar)
        blocks.append(new_block)
    out = _assemble(inst, ring, blocks[0], blocks[1:])
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
        ring = build_ring(inst)
    var_j = variety.solve_variety(ring.radical_ring, seed=inst.options.get("seed", 0))
    return _assemble(inst, ring, *_hensel_squares(inst, ring, var_j))


def _hensel_squares(inst, ring, var_j):
    """The squares of `certify_strict_nonradical`, from the points of R/J."""
    ring_j = ring.radical_ring
    g_blocks, f_tilde = perturb(inst, ring_j, var_j)
    # eps is the largest power of two <= min(1, low / 2), or 1 without real
    # roots; perturb has made low > 0
    low = min(_real_values(var_j, f_tilde).values(), default=2.0)
    eps = Fraction(2) ** min(0, math.frexp(low / 2)[1] - 1)
    _, fact = gram.round_and_certify(ring_j, var_j, f_tilde - eps)
    blocks0 = _squares_from_factorization(ring_j, fact)
    theta = residual(inst, Certificate("strict", [blocks0] + g_blocks, [])) / eps
    blocks0.append((eps, hensel_sqrt(ring, theta)))
    return blocks0, g_blocks


# the values of the mode and engine options, in files and on the command line
OPTION_CHOICES = {"mode": ("strict", "nonneg"), "engine": ("constructive", "sdp")}


def certify(inst, ring=None):
    """Dispatch on the engine and mode options.  The SDP engine returns a
    strict-mode certificate in either mode (it proves nonnegativity too);
    the witness structure of the constructive nonneg route is not produced
    there.  An empty variety (1 in I) needs no squares at all: f lies in I,
    and its cofactors alone are the certificate, in every mode and engine."""
    if ring is None:
        ring = build_ring(inst)
    if ring.D == 0:
        return _assemble(inst, ring, [], [[] for _ in inst.g])
    if inst.options.get("engine") == "sdp":
        from . import sdp_backend

        return sdp_backend.algorithm1_certify(inst, ring)
    if inst.options.get("mode") == "nonneg":
        return certify_nonneg(inst, ring)
    return certify_strict(inst, ring)
