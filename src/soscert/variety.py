"""The points of the variety of a radical zero-dimensional ideal: exact
on a product ring of rational roots, numerical on every other ring.

On a ring whose reduced Gröbner basis is one polynomial per variable, the
points are the grid of each variable's roots.  When all of those are
rational (`rational_grid`), they are found from float candidates that each
pass an exact test in integers, and a `RationalGrid` holds them with their
exact idempotents, products of univariate Lagrange polynomials, and
evaluates polynomials at them exactly.  Every other ring is solved in
floats (`solve_variety`).

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
`RationalGrid.values`, whose values are exact and need no tolerance.

The solver is array code over all points at once, and its floats are bit
for bit those of a loop over the points: the row products inv[k] M_j are
one-row matmuls, each finished by its own dot with the strided column
V[:, k], since a full inv @ M_j, einsum or a contiguous dot rounds apart.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from fractions import Fraction

import numpy as np

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
    """The points of a `QuotientRing.grid` ring whose every coordinate is
    rational: the product of each variable's roots, with their idempotents
    e_xi = prod_k L_k(x_k), L_k the Lagrange polynomial of xi_k among x_k's
    roots, as ring vectors (`QuotientRing.grid_vector`), one per point in
    the order of `points`.  `values` evaluates exactly.  A root that is an
    integer is an int, so an integer grid evaluates in integers."""

    def __init__(self, ring, roots):
        self.points = list(itertools.product(*roots))
        lagrange = [[_lagrange(rs, r) for r in rs] for rs in roots]
        self.idempotents = [ring.grid_vector(factors)
                            for factors in itertools.product(*lagrange)]

    def values(self, p):
        """The exact values of p at the points, in their order."""
        return evaluate(p, points=self.points)


def _lagrange(roots, r):
    """The Lagrange polynomial of the root r among `roots`, 1 at r and 0 at
    the others, as (integer coefficients, constant first, den)."""
    num = [1]
    for s in roots:
        if s != r:  # num *= (b x - a) for s = a / b
            a, b = s.as_integer_ratio()
            num = [b * y - a * x for x, y in zip(num + [0], [0] + num)]
    at_r = Fraction(sum(c * r ** i for i, c in enumerate(num)))
    return [c * at_r.denominator for c in num], at_r.numerator


def _rational_roots(coeffs):
    """The roots of p = sum_i c_i x^i ({i: c_i}, integers) when it has deg p
    distinct rational ones, sorted, as ints where they are integers; else
    None.  A rational root's reduced denominator divides L = |c_deg|, so it
    is m / L for an integer m.  The candidates m are the real parts of p's
    float roots times L, rounded, with p scaled by 2^-s (s the largest
    coefficient bit length, so that no coefficient overflows); one is kept
    only if p(m / L) L^deg = 0 holds in integers.  A float failure, such as
    a leading coefficient that underflows or a companion matrix that
    overflows, finds fewer or non-finite roots, so it gives None too, and
    warns nothing."""
    deg = max(coeffs)
    lead = abs(coeffs[deg])
    shift = max(abs(c).bit_length() for c in coeffs.values())
    try:
        with np.errstate(all="ignore"):
            z = np.roots([coeffs.get(i, 0) / (1 << shift) for i in range(deg, -1, -1)])
    except np.linalg.LinAlgError:
        return None
    if len(z) != deg or not np.all(np.isfinite(z)):
        return None
    found = set()
    for x in z.real.tolist():
        n, d = x.as_integer_ratio()
        m = (2 * n * lead + d) // (2 * d)  # the integer nearest x L
        if not sum(c * m ** i * lead ** (deg - i) for i, c in coeffs.items()):
            found.add(Fraction(m, lead))
    return (sorted(int(r) if r.denominator == 1 else r for r in found)
            if len(found) == deg else None)


def rational_grid(ring):
    """The `RationalGrid` of a radical ring whose reduced Gröbner basis is
    one polynomial per variable (`QuotientRing.grid`), each with only
    rational roots, or None: any complex or irrational root, or a float
    candidate that fails the exact test, leaves the ring to the other
    routes.  A complex root costs no float step: the Sturm counts of
    `QuotientRing.univariates` have found it."""
    if ring.grid is None or not all(ring.univariates or ()):
        return None
    roots = [_rational_roots(p) for p in ring.grid]
    return None if None in roots else RationalGrid(ring, roots)


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
