"""The points of the variety of a radical zero-dimensional ideal: exact
on a product ring of rational real roots, numerical on every other ring.

On a product ring, Seidenberg's univariates p_k with D = prod_k deg p_k,
the points are the grid of the roots of the p_k.  When every real root is
rational and p_k = r_k q_k, r_k holding its real roots and q_k 1 or a
quadratic with no real root (`rational_grid`), the real roots are found
from float candidates that each pass an exact test in integers, or, where
those fall short of the Sturm count, by exact bisection on the Sturm
chain.  A `RationalGrid` holds the real points with their exact
idempotents, products of univariate Lagrange polynomials that vanish at
the complex points too, and the squares that make -1 a sum of squares at
the complex points.  Every other ring is solved in floats
(`solve_variety`).

Coordinates come from an eigendecomposition C = V diag(c) V^-1 of a random
(seeded) linear combination C of the multiplication matrices M_j.  The D
eigenvalues of C are generically distinct, so its eigenvectors are shared by
the M_j, which commute with C: the k-th diagonal entry of V^-1 M_j V is the
j-th coordinate of point k.  Multiplicity is handled exactly, before any
float step: callers solve the quotient by the radical
(`QuotientRing.radical_ring`), whose D points are distinct, so each
eigenvalue is one point.  The idempotent coefficients are the inverse
transpose of the Vandermonde matrix of the basis at the points.

This is the one module that tells real points from complex ones.  The
certificate reads a real point xi through p(xi) u_xi^2 and a conjugate pair
through one of its points, so `solve_variety` hands out the real points and
one point per pair, each with its idempotent, and no caller classifies a
point again.  Nor does any evaluate at the points or compare a value with
the tolerance: `VarietyData.values`, `pair_values` and `signs` do, and
`RationalGrid`'s, whose values are exact and need no tolerance.

The solver is array code over all points at once, and its floats are bit
for bit those of a loop over the points: the row products inv[k] M_j are
one-row matmuls, each finished by its own dot with the strided column
V[:, k], since a full inv @ M_j, einsum or a contiguous dot rounds apart.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np

from . import exactla, quotient
from .errors import BoundaryAmbiguity, ClusterAmbiguity, SingularVandermonde
from .polyring import evaluate


class VarietyData:
    """The points of V(I) split as the certificate uses them: `real` holds
    the float coordinates of the real points and `pairs` the complex
    coordinates of the first point of each conjugate pair, both in
    eigenvalue order; `real_idem` (float) and `pair_idem` (complex) hold
    their idempotents u over B, one column per point; `values` and
    `pair_values` evaluate each polynomial object once."""

    def __init__(self, real, pairs, real_idem, pair_idem, tol):
        self.real, self.pairs = real, pairs
        self.real_idem, self.pair_idem = real_idem, pair_idem
        # the tolerance of `signs`, the one float decision on a value at a
        # root: membership in S and the sign of f there both rest on it
        self.decision_tol = max(tol * 1e6, 1e-9)
        self._values = {}  # (id(p), id(points)) -> (p, values): an equal p may sum in another order

    def _evaluate(self, p, points):
        key = id(p), id(points)
        if key not in self._values:
            self._values[key] = p, tuple(evaluate(p, points=points))
        return list(self._values[key][1])

    def values(self, p):
        """The float values of p at the real points, as a new list."""
        return self._evaluate(p, self.real)

    def pair_values(self, p):
        """The complex values of p at the first point of each pair, as a new list."""
        return self._evaluate(p, self.pairs)

    def signs(self, p):
        """(sign, value) of p at each real point: the sign is +1 above
        decision_tol, -1 below -decision_tol, and 0, undecided, between."""
        tol = self.decision_tol
        return [((v > tol) - (v < -tol), v) for v in self.values(p)]


# the seeded coefficients of the combination C, per (seed, nvars): default_rng costs 40 us
_combination = functools.cache(
    lambda seed, n: tuple(np.random.default_rng(seed).uniform(0.5, 1.5, size=n).tolist()))


def solve_variety(ring, seed=0):
    """Points of the variety of a radical ring, via the eigenvalue method.

    The ring has D distinct points, one per eigenvalue, so nothing is
    clustered; pass `ring.radical_ring` for a non-radical ideal.  A
    non-radical ring is refused by the exact test, since its repeated
    eigenvalues can split by about 1e-8, which no float test of the
    Vandermonde matrix is sure to see."""
    if not ring.is_radical:
        raise SingularVandermonde("the ring is not radical: its points are multiple")
    mats = np.array([[[x / d for x in row] for row in rows] for rows, d in ring.mult_matrices])
    combo = sum(c * m for c, m in zip(_combination(seed, ring.nvars), mats))
    vecs = np.linalg.eig(combo.astype(complex))[1]
    try:
        inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError as exc:
        raise SingularVandermonde(f"eigenvector matrix numerically singular: {exc}") from exc
    # raw[k, j] = inv[k] M_j vecs[:, k]: one-row products, one dot per point
    rows = np.matmul(inv[None, :, None, :], mats[:, None])[:, :, 0]
    raw = np.array([[r @ vecs[:, k] for r in rows[:, k]] for k in range(ring.D)])

    tol = 2.0 ** -40 * (1.0 + float(np.abs(raw).max()))
    is_real = np.abs(raw.imag).max(axis=1) <= 1e4 * tol
    points = np.where(is_real[:, None], raw.real, raw)
    firsts = _pair_conjugates(points, np.flatnonzero(~is_real))
    u = idempotents(ring, points)

    if len(raw) > 1:
        sep = separation(raw)
        if sep < 10 * tol:
            raise ClusterAmbiguity(f"point separation {sep:.3e} below 10*tol")
    return VarietyData(points[is_real].real.tolist(), points[firsts].tolist(),
                       u[:, is_real].real, u[:, firsts], tol)


def separation(r):
    """The smallest max-norm distance between two of the rows of r (at
    least two points, one per row)."""
    return float(np.abs(r[:, None] - r[None]).max(axis=2)[np.triu_indices(len(r), 1)].min())


def _pair_conjugates(points, unpaired):
    """Pair each complex point, in eigenvalue order, with the nearest
    conjugate of a later one, and make that partner's row of `points` the
    exact conjugate.  Returns the first index of each pair."""
    z = points[unpaired]
    dist = np.abs(z.conj()[:, None] - z[None]).max(axis=2)  # dist[a, b] = |conj(z_a) - z_b|
    left = list(range(len(unpaired)))
    firsts = []
    while left:
        a = left.pop(0)
        if not left:
            raise ClusterAmbiguity("unpaired complex point (conjugation symmetry broken)")
        b = min(left, key=dist[a].__getitem__)
        left.remove(b)
        points[unpaired[b]] = points[unpaired[a]].conj()
        firsts.append(unpaired[a])
    return firsts


def _eval_basis(ring, coords):
    """b_i at one point (coordinates in the last axis) or at an array of
    points: an array of the points' shape with the last axis over B."""
    z = np.asarray(coords, dtype=complex)
    return np.prod(z[..., None, :] ** np.array(ring.basis), axis=-1)


def idempotents(ring, points):
    """U = (V^T)^{-1} with V the Vandermonde of B at the points: column j
    is the idempotent of point j over B."""
    vt = _eval_basis(ring, points)  # V^T[j, i] = b_i(zeta_j)
    try:
        u = np.linalg.inv(vt)
    except np.linalg.LinAlgError as exc:
        raise SingularVandermonde(f"Vandermonde numerically singular: {exc}") from exc
    if not np.all(np.isfinite(u)) or np.linalg.cond(vt) > 1e12:
        raise SingularVandermonde("Vandermonde numerically singular")
    return u


class RationalGrid:
    """The real points of a product ring, the grid of the rational roots of
    its p_k = r_k q_k (q_k = 1, or a quadratic with no real root), with
    their idempotents e_xi = prod_k L_k(x_k), L_k the Lagrange polynomial
    of xi_k among the roots of p_k, one per point in the order of `points`:
    q_k is a factor of L_k, so e_xi vanishes at the complex points too.  B
    is every x^b with b_k < deg p_k, so e_xi is the ring vector of the
    prod_k L_k[b_k].  `values` and `signs` are exact, and an integer root is
    an int, so an integer grid evaluates in integers.

    `rest` is what the complex points need: E = 1 - sum e_xi, their
    idempotent, is sum_k F_k, F_k = P_1 ... P_{k-1} (1 - P_k) with P_k the
    sum of x_k's L_k, and each q_k = c2 x^2 + c1 x + c0 gives
    u_k = 2 c2 x_k + c1 with u_k^2 = -d_k mod q_k, d_k = 4 c0 c2 - c1^2 > 0.
    It holds (the ring vector of F_k u_k, d_k) for each quadratic q_k, so
    -E = sum_k F_k u_k^2 / d_k mod I; it is empty when every point is
    rational."""

    decision_tol = 0  # exact values: `signs` is VarietyData's rule with no tolerance
    signs = VarietyData.signs

    def __init__(self, ring, polys, roots):
        self.points = list(itertools.product(*roots))
        quadratics = [_deflate(p, rs) for p, rs in zip(polys, roots)]
        lagrange = [[_lagrange(rs, r, q) for r in rs] for rs, q in zip(roots, quadratics)]
        # entry b of every e_xi at once, in the order of `points`: the
        # Kronecker product over k of the L_k[b_k] of x_k's roots
        rows = [[1]] * ring.D
        for k, factors in enumerate(lagrange):
            rows = [[x * u[b[k]] for x in row for u, _ in factors] for row, b in zip(rows, ring.basis)]
        dens = [math.prod(d for _, d in factors) for factors in itertools.product(*lagrange)]
        self.idempotents = [exactla.lowest(list(col), d) for col, d in zip(zip(*rows), dens)]
        # P_k, and 1 after x_k in F_k, as integers over x_k^i, i < deg p_k, and a den
        sums = [quotient.combine([(1, *u) for u in factors], max(p))
                for p, factors in zip(polys, lagrange)]
        ones = [([1] + [0] * (max(p) - 1), 1) for p in polys]
        self.rest = []
        for k, (p, q) in enumerate(zip(polys, quadratics)):
            if len(q) == 3:
                (c0, c1, c2), top, (v, den) = q, max(p), sums[k]
                w = [den * (i == 0) - x for i, x in enumerate(v)] + [0]  # (1 - P_k) den
                w = [c1 * x + 2 * c2 * y for x, y in zip(w, [0] + w)]  # times u_k
                w = [p[top] * x - w[top] * p.get(i, 0) for i, x in enumerate(w[:top])]  # mod p_k
                self.rest.append((_tensor(ring, sums[:k] + [(w, den * p[top])] + ones[k + 1:]),
                                  4 * c0 * c2 - c1 * c1))

    def values(self, p):
        """The exact values of p at the points, in their order."""
        return evaluate(p, points=self.points)


def _tensor(ring, factors):
    """The ring vector of prod_k w_k(x_k) on a product ring, each w_k a pair
    (integers over x_k^i, i < deg p_k, den): entry b is prod_k w_k[b_k]."""
    return exactla.lowest([math.prod(w[i] for (w, _), i in zip(factors, b)) for b in ring.basis],
                          math.prod(d for _, d in factors))


def _deflate(p, roots):
    """p / prod_r (b x - a), r = a / b over `roots`, as primitive integers,
    constant first, with a positive leading coefficient: [1], or p's
    quadratic factor with no real root.  The division is exact in integers
    (Gauss's lemma), top term first."""
    q = [p.get(i, 0) for i in range(max(p) + 1)]
    for r in roots:
        a, b = r.as_integer_ratio()
        s = [0]
        for c in reversed(q[1:]):  # q = s (b x - a): s_(i-1) = (q_i + a s_i) / b
            s.append((c + a * s[-1]) // b)
        q = s[:0:-1]
    return [c // quotient.content(q) for c in q]


def _lagrange(roots, r, q):
    """q (integers, constant first, q(r) != 0) times the Lagrange
    polynomial of the root r among `roots`, scaled to 1 at r: 0 at the
    other roots and at those of q, as (integer coefficients, constant
    first, den)."""
    num = q
    for s in roots:
        if s != r:  # num *= (b x - a) for s = a / b
            a, b = s.as_integer_ratio()
            num = [b * y - a * x for x, y in zip(num + [0], [0] + num)]
    at_r = Fraction(sum(c * r ** i for i, c in enumerate(num)))
    return [c * at_r.denominator for c in num], at_r.numerator


def _rational_roots(coeffs, count):
    """The `count` real roots of a squarefree p = sum_i c_i x^i ({i: c_i},
    integers) when every one of them is rational, sorted, as ints where
    they are integers; else None.  A rational root's reduced denominator
    divides L = |c_deg|, so it is m / L for an integer m, kept only if
    p(m / L) L^deg = 0 holds in integers.  The candidates m are the real
    parts of p's float roots times L, rounded, with p scaled by 2^-s (s the
    largest coefficient bit length, so that no coefficient overflows).
    Only when they find fewer than `count` roots (float64 cannot separate
    1 +- 2^-50, a scaled coefficient underflows, or the companion matrix
    overflows) does `_isolate` try every m that an exact bisection leaves.
    Warns nothing."""
    deg = max(coeffs)
    lead = abs(coeffs[deg])

    def is_root(m):
        return not sum(c * m ** i * lead ** (deg - i) for i, c in coeffs.items())

    shift = max(abs(c).bit_length() for c in coeffs.values())
    try:
        with np.errstate(all="ignore"):
            z = np.roots([coeffs.get(i, 0) / (1 << shift) for i in range(deg, -1, -1)])
    except np.linalg.LinAlgError:
        z = np.zeros(0)
    found = set()
    for x in z.real[np.isfinite(z.real)].tolist():
        n, d = x.as_integer_ratio()
        m = (2 * n * lead + d) // (2 * d)  # the integer nearest x L
        if is_root(m):
            found.add(m)
    if len(found) < count:
        found = set(filter(is_root, _isolate(coeffs, lead)))
    if len(found) < count:
        return None
    return [int(r) if r.denominator == 1 else r for r in sorted(Fraction(m, lead) for m in found)]


def _isolate(coeffs, lead):
    """The integers m such that (m - 1, m] / L holds a real root of the
    squarefree p, by bisection on its Sturm chain over (-c, c], c = L plus
    the largest |c_i| (Cauchy's bound on |L x| at a root): an interval
    with a root is halved until it is (m - 1, m], whose one multiple of
    1 / L is m / L."""
    chain = quotient.sturm_chain(coeffs)

    def changes(m):
        return quotient.sign_changes(chain, m, lead)

    c = lead + max(map(abs, coeffs.values()))
    out, stack = [], [(-c, c, changes(-c), changes(c))]
    while stack:
        lo, hi, at_lo, at_hi = stack.pop()
        if at_lo == at_hi:  # no root in (lo, hi] / L
            continue
        if hi - lo == 1:
            out.append(hi)
            continue
        mid = (lo + hi) // 2
        at_mid = changes(mid)
        stack += [(lo, mid, at_lo, at_mid), (mid, hi, at_mid, at_hi)]
    return out


def rational_grid(ring):
    """The `RationalGrid` of a radical product ring, univariates p_k
    (`QuotientRing.univariates`) with D = prod_k deg p_k, on which each p_k
    has a real root, all of them rational, and deg p_k less their Sturm
    count is 0 or 2; else None.  A ring with no real point or more complex
    roots costs no float step: the Sturm counts have found them.  An
    irrational real root leaves the ring to the other routes."""
    found = ring.univariates
    if (found is None or ring.D != math.prod(max(p) for p, _ in found)
            or any(not count or max(p) - count not in (0, 2) for p, count in found)):
        return None
    roots = [_rational_roots(p, count) for p, count in found]
    return None if None in roots else RationalGrid(ring, [p for p, _ in found], roots)


class Membership:
    def __init__(self, s_indices, excluded):
        self.s_indices = s_indices  # real points where no g_i has sign -1
        self.excluded = excluded    # (real point index, first g_i with sign -1 there)


def membership(var, g_list):
    """Partition the real points into S and the excluded ones, each with
    its first g_i of sign -1; a point of S where some g_i has sign 0,
    undecided, warns BoundaryAmbiguity."""
    signs = [[s for s, _ in var.signs(g)] for g in g_list]
    at_points = [[s[i] for s in signs] for i in range(len(var.real))]
    s_indices = [i for i, at in enumerate(at_points) if -1 not in at]
    for i in s_indices:
        if 0 in at_points[i]:
            warnings.warn(f"constraint value within tolerance at real point {i}; "
                          "provisionally in S", BoundaryAmbiguity)
    excluded = [(i, at.index(-1)) for i, at in enumerate(at_points) if -1 in at]
    return Membership(s_indices, excluded)
