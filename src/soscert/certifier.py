"""Orchestration of the certification pipelines.

`certify` dispatches on the engine and the mode, and `_strict_blocks` is
the one strict route dispatch of both modes: of f in strict mode, of the
positive a of the (a, b, gamma) witness in nonneg mode.  It has two
stages.  On a radical ring whose reduced Gröbner basis is one polynomial
per variable, each with only rational roots (`variety.rational_grid`),
the first stage is the paper's idempotent certificate
f = sum_xi f(xi) e_xi^2 mod I (`_idempotent_step`): e_xi is a product of
univariate Lagrange polynomials, every sign is decided in Q, and there is
no root solve, no Gram matrix and no rounding.  On every other ring it is
one Gram step over R/J, J the radical of I (J = I when I is radical), of
f~ or, on a non-radical ring, of f~ - eps.  With no g and only real points
on J it is exact (`_exact_gram_step`): the trace-form Gram matrices of
R/J, with no root, whose LDL^t judges the sign of f.  Otherwise it is
float (`_float_gram_step`): `perturb` on the points of R/J, the one sign
rule at the points of S on `VarietyData.signs`, then the rounded Gram step
`gram.round_and_certify`, on NF_J(f) when lifting.  The second stage, on a
non-radical ring alone, is one Hensel lift (`certify_strict_nonradical`):
eps t^2, with t the square root, 1 mod J, of theta = 1 mod J, a finite
binomial series in R/I, closes f~ modulo I.  No ring but R/I and R/J is
built, and every product in R/I reads the nonzero entries of the ring's
product table.
Each Gram step factors a Gram matrix Q0 of f~ into LDL^t squares and the
rest f~ - B^t Q0 B (`gram.factor_gram`), the float ones (strict and SDP)
in the one rounded Gram step (`gram.gram_squares`), and the blocks and
rest go to `_assemble`, which finds the rest's cofactors.  Squares that no
Gram matrix carries, the idempotent squares among them, are expanded by
the verifier's `verify_bounds.residual`.  `certify` solves the points of
R/J at most once per call.  The data types come from `problem_io`, so
`verify` and `bounds` never load this module or an engine.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import exactla, gram, quotient, sdp_backend, variety, verify_bounds
from .errors import IdentityBroken, NotPD, NotStrictlyPositiveOnS, PrecisionExceeded
from .polyring import round_scaled
from .problem_io import Certificate, ProblemInstance


def perturb(inst, ring, var):
    """phi = sum rho_xi u_xi^2 g_{i_xi} over the excluded points xi of
    `var.real`, with rational data, such that f - phi > 0 at every real
    point; u_xi is xi's column of `var.real_idem`, rounded.

    This is the one sign rule of the float Gram step at the points of S, on
    `var.signs`: sign -1 means no certificate exists (NotStrictlyPositiveOnS);
    sign 0 when points are excluded, or f <= 0 when none is, means float64
    cannot show the margin (PrecisionExceeded).  phi >= 0 on S, so no
    rounding lifts f - phi to sign +1 where f is not.

    Returns (per-constraint blocks of (weight, square), f - phi)."""
    member = variety.membership(var, inst.g)
    f_signs = var.signs(inst.f)
    for i in member.s_indices:
        if f_signs[i][0] < 0:
            raise NotStrictlyPositiveOnS(f"f = {f_signs[i][1]:.3e} at a point of S")
    for i in member.s_indices:
        sign, v = f_signs[i]
        if (sign == 0) if member.excluded else (v <= 0):
            within = (f", within the perturbation tolerance {var.decision_tol:.1e}"
                      if member.excluded else "")
            raise PrecisionExceeded(f"float64 margin used up: f = {v:.3e} at a point "
                                    f"of S{within}")
    if not member.excluded:
        return [[] for _ in inst.g], inst.f
    g_vals = {gi: var.values(inst.g[gi]) for _, gi in member.excluded}
    rhos = []
    for idx, gi in member.excluded:
        f_val = f_signs[idx][1]
        rho = Fraction(1)
        while f_val - float(rho) * g_vals[gi][idx] <= max(1.0, abs(f_val)):
            rho *= 2
        rhos.append(rho)

    def round_at(bits):
        # (block, weight, square) of each excluded point; a column rounded
        # to zero adds no square
        cols = [(gi, rho, [round_scaled(c, bits) for c in var.real_idem[:, idx].tolist()])
                for (idx, gi), rho in zip(member.excluded, rhos)]
        return [(gi, *ring.square(rho, u, 1 << bits)) for gi, rho, u in cols if any(u)]

    def attempt(squares):
        blocks = [[] for _ in inst.g]
        for gi, w, q in squares:
            blocks[gi].append((w, q))
        f_tilde = verify_bounds.residual(inst, Certificate("strict", [[]] + blocks, []))
        if all(sign > 0 for sign, _ in var.signs(f_tilde)):
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


def _all_real(ring):
    """Every point of V(I), I radical, is real, decided in integers.  On a
    precheck ring the Sturm chains that proved its univariates squarefree
    have counted their real roots, which hold every coordinate
    (`QuotientRing.univariates`); on every other ring `ldlt` of the trace
    form decides, whose signature counts the real points."""
    if ring.univariates is not None:
        return all(ring.univariates)
    try:
        gram.ldlt(gram.SymmetricMatrix(ring.trace_form[0]))
    except NotPD:
        return False
    return True


def _trace_grams(ring, *vectors):
    """The trace-form Gram matrix G(p) = M_p H1^-1 = H1^-1 M_p^t of a radical
    ring for each ring vector p, from one fraction-free solve of
    [h1 | A_p^t ...], A_p / d_p = M_p: G(p) = V^-1 diag(p(xi)) V^-t, V the
    Vandermonde matrix of B, is in the Gram set of p (B^t G B = p at every
    xi), and, all points xi real, positive definite exactly when every
    p(xi) > 0."""
    h1, den = ring.trace_form
    mats = [ring.mult_matrix(v) for v in vectors]
    cols = [exactla.transpose(a) for a, _ in mats]
    red, _, p = exactla.rref([row + [x for col in cols for x in col[i]]
                              for i, row in enumerate(h1)], ring.D)
    return [gram.SymmetricMatrix([[den * x for x in row[k * ring.D:(k + 1) * ring.D]]
                                  for row in red], p * d) for k, (_, d) in enumerate(mats, 1)]


def certify_nonneg(inst, ring, roots):
    """Nonnegativity certificate via the coprimality witness: take the
    squares of a strict certificate of the positive a, on the route
    `_strict_blocks` picks for a as it would for f, then close
    f = (1/gamma) a f^2 modulo I.  The witness reads the points `roots()`
    of R/J only when f has a zero on V, to shift a there."""
    a, b, gamma_val = quotient.coprimality_witness(ring, inst.f, roots=roots)
    inner = ProblemInstance(inst.var_names, a, inst.g, inst.h,
                            options=inst.options)
    try:
        # only f's identity is closed: a's rest is dropped
        squares_of_a, _ = _strict_blocks(inner, ring, roots)
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
            v, den = ring.mul(ring.nf_vector(qbar), nf_f)
            if not any(v):
                continue
            # the square v / g is NF(qbar f) den / g: its witness is qbar den / g
            new_block.append(ring.square(w / gamma_val, v, den))
            if i == 0:
                witnesses.append(qbar * Fraction(den, quotient.content(v)))
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
    n^D = 0 and the series ends within D - 1 products in R/I.  t is returned
    as its ring vector (ints, den)."""
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
    return t


def _exact_gram_step(inst, ring_j, lift):
    """The Gram step of the exact route, when every point xi of R/J is real
    and there is no g: (no g blocks, squares, rest, eps) of the trace-form
    Gram matrix G(f - eps) (`_trace_grams`), with no root.  f > 0 at every
    xi exactly when G(f) is positive definite.  eps is 0 unless `lift`;
    then it is the largest power of two <= 1 with G(f - eps) =
    G(f) - eps G(1) positive definite, that is, eps < min f: the exponent k
    of eps = 2^-k doubles until G(f - eps) is positive definite, then a
    bisection finds the least such k."""
    # G(1) only when lifting, from the same solve as G(f)
    g_f, *g_1 = _trace_grams(ring_j, ring_j.nf_vector(inst.f), *([ring_j.unit] if lift else []))
    try:
        if not lift:
            return [], *gram.factor_gram(ring_j, inst.f, g_f), 0
        gram.ldlt(g_f)
    except NotPD as exc:
        raise NotStrictlyPositiveOnS("f <= 0 at a real point of V = S") from exc
    g_1, = g_1

    def attempt(k):
        # G(f - 2^-k) = G(f) - 2^-k G(1), integers over nu_f nu_1 2^k: its
        # squares and rest, or None when it is not positive definite
        shifted = gram.SymmetricMatrix(
            [[(x << k) * g_1.nu - y * g_f.nu for x, y in zip(row_f, row_1)]
             for row_f, row_1 in zip(g_f.mat, g_1.mat)], g_f.nu * g_1.nu << k)
        try:
            return gram.factor_gram(ring_j, inst.f - Fraction(1, 1 << k), shifted)
        except NotPD:
            return None

    low, high = -1, 0  # the least k with G(f - 2^-k) positive definite is in (low, high]
    while (found := attempt(high)) is None:
        low, high = high, max(1, 2 * high)
    while high - low > 1:
        mid = (low + high) // 2
        if (result := attempt(mid)) is None:
            low = mid
        else:
            high, found = mid, result
    return [], *found, Fraction(1, 1 << high)


def _float_gram_step(inst, ring_j, var_j, lift):
    """The Gram step of the float route on the points var_j of R/J:
    (g blocks, squares, rest, eps) of f~ - eps, f~ = f - phi from `perturb`.
    eps is 0 unless `lift`; then it is the largest power of two
    <= min(1, low / 2), low the least value of f~ at the real points (perturb
    has made it positive), or 1 without real points.  When lifting, every
    float value is read off NF_J(f), whose coefficients are those of R/J,
    not off f's R/I form, and f - NF_J(f), which lies in J, goes back into
    the rest."""
    f = inst.f
    if lift:
        inst = ProblemInstance(inst.var_names, ring_j.from_vector(*ring_j.nf_vector(f)),
                               inst.g, inst.h, options=inst.options)
    g_blocks, p = perturb(inst, ring_j, var_j)
    eps = 0
    if lift:
        low = min(var_j.values(p), default=2.0)
        eps = Fraction(2) ** min(0, math.frexp(low / 2)[1] - 1)
        p -= eps
    squares, rest = gram.round_and_certify(ring_j, var_j, p)
    return g_blocks, squares, rest + (f - inst.f), eps


def _idempotent_step(inst, ring, grid):
    """The first stage on a radical ring whose points are the rational
    `grid`: the paper's f = sum_xi f(xi) e_xi^2 mod I, with no root solve
    and no Gram matrix.  Every sign is exact.  At a point of S,
    f(xi) > 0 (else NotStrictlyPositiveOnS) weighs e_xi^2 in block 0.  At
    an excluded point, with g_i the first g negative there, e_xi^2 goes to
    block 0 with weight f(xi) when f(xi) > 0, to block i with weight
    f(xi) / g_i(xi) when f(xi) < 0, and nowhere when f(xi) = 0.  Each
    square, e_xi^2 = e_xi mod I, adds f(xi) e_xi, and sum_xi e_xi = 1, so
    the rest, expanded by `verify_bounds.residual`, lies in I.  Returns
    (g blocks, squares, rest, eps = 0)."""
    f_vals = grid.values(inst.f)
    g_vals = [grid.values(g) for g in inst.g]
    blocks = [[] for _ in range(len(inst.g) + 1)]
    for k, (fv, (e, den)) in enumerate(zip(f_vals, grid.idempotents)):
        i = next((i for i, gv in enumerate(g_vals, 1) if gv[k] < 0), 0)
        if i == 0 and fv <= 0:
            point = ", ".join(map(str, grid.points[k]))
            raise NotStrictlyPositiveOnS(f"f = {fv} at the point ({point}) of S")
        if fv > 0:
            blocks[0].append(ring.square(fv, e, den))
        elif fv < 0:
            blocks[i].append(ring.square(fv / g_vals[i - 1][k], e, den))
    return blocks[1:], blocks[0], verify_bounds.residual(inst, Certificate("strict", blocks, [])), 0


def certify_strict_nonradical(ring, squares, rest, eps):
    """The Hensel lift of a Gram certificate over R/J to R/I: block 0 and
    the rest, from the squares of f~ - eps over R/J and its rest
    f~ - eps - B_J^t Q0 B_J.  eps theta = f~ - B_J^t Q0 B_J = rest + eps is
    1 mod J times eps, and its Hensel-lifted square root t gives the last
    square eps t^2 and the rest eps theta - eps t^2, which lies in I."""
    eps_theta = rest + eps
    c, den = hensel_sqrt(ring, eps_theta / eps)
    t = ring.from_vector(c, den)
    return squares + [ring.square(eps, c, den)], eps_theta - t * t * eps


def certify(inst, ring=None):
    """The dispatch on the engine and mode options and the ring.  The SDP
    engine returns a strict-mode certificate in either mode (it proves
    nonnegativity too), with no witnesses.  An empty variety (1 in I)
    needs no squares at all: f lies in I, and its cofactors alone are the
    certificate, in every mode and engine.  Otherwise both modes take the
    strict route of `_strict_blocks`, strict mode for f and nonneg mode for
    its witness a, and solve the points of R/J once, when first read."""
    if ring is None:
        ring = quotient.build_ring(inst.h)
    if ring.D == 0:
        return _assemble(ring, [[] for _ in range(len(inst.g) + 1)], inst.f)
    if inst.options.get("engine") == "sdp":
        return _assemble(ring, *sdp_backend.algorithm1_certify(inst, ring))
    seed = inst.options.get("seed", 0)
    roots = functools.cache(lambda: variety.solve_variety(ring.radical_ring, seed=seed))
    if inst.options.get("mode") == "nonneg":
        return certify_nonneg(inst, ring, roots)
    return _assemble(ring, *_strict_blocks(inst, ring, roots))


def _strict_blocks(inst, ring, roots):
    """The blocks and rest of a certificate of inst.f > 0 on S, the one
    strict route dispatch of both modes, in two stages.  First, on a
    radical ring whose points are a rational grid, the idempotent split,
    with no root and no Gram matrix; on every other ring one Gram step over
    R/J (J = I when I is radical), of f~ or, on a non-radical ring, of
    f~ - eps: exact, with no root, when there is no g and every point of
    R/J is real, else float, on the points `roots()` of R/J.  Then, on a
    non-radical ring, one Hensel lift to R/I."""
    ring_j, lift = ring.radical_ring, not ring.is_radical
    grid = None if lift else variety.rational_grid(ring)
    if grid is not None:
        g_blocks, squares, rest, eps = _idempotent_step(inst, ring, grid)
    elif not inst.g and _all_real(ring_j):
        g_blocks, squares, rest, eps = _exact_gram_step(inst, ring_j, lift)
    else:
        g_blocks, squares, rest, eps = _float_gram_step(inst, ring_j, roots(), lift)
    if lift:
        squares, rest = certify_strict_nonradical(ring, squares, rest, eps)
    return [squares] + g_blocks, rest
