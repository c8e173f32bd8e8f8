"""Numerical solving of the complex variety of a radical zero-dimensional
ideal.

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
the tolerance: `VarietyData.values`, `pair_values` and `signs` do.
"""

from __future__ import annotations

import warnings

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


def solve_variety(ring, seed=0):
    """Points of the variety of a radical ring, via the eigenvalue method.

    The ring has D distinct points, one per eigenvalue, so nothing is
    clustered; pass `ring.radical_ring` for a non-radical ideal.  A
    non-radical ring is refused by the exact test, since its repeated
    eigenvalues can split by about 1e-8, which no float test of the
    Vandermonde matrix is sure to see."""
    if not ring.is_radical:
        raise SingularVandermonde("the ring is not radical: its points are multiple")
    D = ring.D
    n = ring.nvars
    mats = [np.array([[x / d for x in row] for row in rows]) for rows, d in ring.mult_matrices]
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.5, 1.5, size=n)
    combo = sum(c * m for c, m in zip(coeffs, mats))
    vecs = np.linalg.eig(combo.astype(complex))[1]
    try:
        inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError as exc:
        raise SingularVandermonde(f"eigenvector matrix numerically singular: {exc}") from exc
    raw = [np.array([inv[k] @ m @ vecs[:, k] for m in mats]) for k in range(D)]

    tol = 2.0 ** -40 * (1.0 + max((float(np.max(np.abs(r))) for r in raw), default=0.0))

    is_real = [float(np.max(np.abs(z.imag))) <= 1e4 * tol for z in raw]
    points = [[complex(c.real, 0.0) if r else complex(c) for c in z] for z, r in zip(raw, is_real)]
    reals = [k for k, r in enumerate(is_real) if r]
    firsts = _pair_conjugates(points, [k for k, r in enumerate(is_real) if not r])
    u = idempotents(ring, points)

    if len(raw) > 1:
        sep = separation(np.array(raw))
        if sep < 10 * tol:
            raise ClusterAmbiguity(f"point separation {sep:.3e} below 10*tol")
    return VarietyData([[z.real for z in points[k]] for k in reals], [points[k] for k in firsts],
                       u[:, reals].real, u[:, firsts], tol)


def separation(r):
    """The smallest max-norm distance between two of the rows of r (at
    least two points, one per row)."""
    return float(np.abs(r[:, None] - r[None]).max(axis=2)[np.triu_indices(len(r), 1)].min())


def _pair_conjugates(points, unpaired):
    """Pair each complex point, in eigenvalue order, with the nearest
    conjugate of a later one, and make that partner's coordinates the exact
    conjugate.  Returns the first index of each pair."""
    firsts = []
    while unpaired:
        i = unpaired.pop(0)
        if not unpaired:
            raise ClusterAmbiguity("unpaired complex point (conjugation symmetry broken)")
        zi = np.conj(np.array(points[i]))
        j = min(unpaired, key=lambda j: float(np.max(np.abs(zi - np.array(points[j])))))
        points[j] = [z.conjugate() for z in points[i]]
        unpaired.remove(j)
        firsts.append(i)
    return firsts


def _eval_basis(ring, coords):
    powers = [[z ** k for k in range(t + 1)] for z, t in zip(coords, map(max, zip(*ring.basis)))]
    vals = []
    for b in ring.basis:
        v = 1.0 + 0j
        for pw, e in zip(powers, b):
            if e:
                v *= pw[e]
        vals.append(v)
    return np.array(vals)


def idempotents(ring, points):
    """U = (V^T)^{-1} with V the Vandermonde of B at the points: column j
    is the idempotent of point j over B."""
    v = np.array([_eval_basis(ring, p) for p in points]).T  # V[i,j] = b_i(zeta_j)
    try:
        u = np.linalg.inv(v.T)
    except np.linalg.LinAlgError as exc:
        raise SingularVandermonde(f"Vandermonde numerically singular: {exc}") from exc
    if not np.all(np.isfinite(u)) or np.linalg.cond(v.T) > 1e12:
        raise SingularVandermonde("Vandermonde numerically singular")
    return u


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
