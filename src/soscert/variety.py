"""Numerical solving of the complex variety of a zero-dimensional ideal.

Coordinates come from a complex Schur decomposition of a random (seeded)
linear combination of the multiplication matrices; clustering recovers
multiplicities, guided by the exactly computed number of distinct points
(the dimension of the quotient by the radical).  For radical ideals the
idempotent coefficients are the inverse transpose of the Vandermonde
matrix of the basis at the points.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import schur

from .errors import BoundaryAmbiguity, ClusterAmbiguity, SingularVandermonde
from .polyring import Polynomial, evaluate


class RootPoint:
    def __init__(self, coordinates, kind, multiplicity, partner=None):
        self.coordinates = list(coordinates)
        self.kind = kind  # "real" or "complex"
        self.multiplicity = multiplicity
        self.partner = partner  # index of the conjugate point, complex kind

    def __repr__(self):
        return f"RootPoint({self.coordinates}, {self.kind}, mult={self.multiplicity})"


class VarietyData:
    def __init__(self, points, idempotents, tolerance, ring):
        self.points = points
        self.idempotents = idempotents  # complex array, column j = u_{zeta_j} over B
        self.tolerance = tolerance
        self.ring = ring

    @property
    def is_radical(self):
        return all(p.multiplicity == 1 for p in self.points)


def _distinct_point_count(ring):
    """Number of distinct points of the variety, computed exactly as the
    quotient dimension of the radical ideal."""
    return ring.D if ring.is_radical else ring.radical_ring.D


def solve_variety(ring, tol=None, seed=0):
    """Points of the variety, with multiplicities, via the eigenvalue method."""
    D = ring.D
    n = ring.nvars
    mats = [np.array([[float(x) for x in row] for row in m]) for m in ring.mult_matrices]
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.5, 1.5, size=n)
    combo = sum(c * m for c, m in zip(coeffs, mats))
    _, q = schur(combo.astype(complex), output="complex")
    triangs = [q.conj().T @ m @ q for m in mats]
    raw = [np.array([t[k, k] for t in triangs]) for k in range(D)]

    if tol is None:
        scale = max((float(np.max(np.abs(r))) for r in raw), default=0.0)
        tol = 2.0 ** -40 * (1.0 + scale)

    n_distinct = _distinct_point_count(ring)
    clusters = _cluster(raw, n_distinct)
    centers = [sum(raw[i] for i in c) / len(c) for c in clusters]

    # separation check between distinct clusters
    if len(centers) > 1:
        sep = min(float(np.max(np.abs(a - b)))
                  for i, a in enumerate(centers) for b in centers[i + 1:])
        if sep < 10 * tol:
            raise ClusterAmbiguity(f"cluster separation {sep:.3e} below 10*tol")

    points = []
    for c, center in zip(clusters, centers):
        imag = float(np.max(np.abs(center.imag))) if D else 0.0
        kind = "real" if imag <= 1e4 * tol else "complex"
        coords = [complex(z.real, 0.0) if kind == "real" else complex(z) for z in center]
        points.append(RootPoint(coords, kind, len(c)))

    _pair_conjugates(points, tol)

    idem = None
    if all(p.multiplicity == 1 for p in points):
        idem = idempotents(ring, points)
    return VarietyData(points, idem, tol, ring)


def _cluster(raw, n_clusters):
    """Single-linkage merge down to the exact number of distinct points."""
    clusters = [[i] for i in range(len(raw))]
    while len(clusters) > n_clusters:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = min(float(np.max(np.abs(raw[a] - raw[b])))
                        for a in clusters[i] for b in clusters[j])
                if best is None or d < best[0]:
                    best = (d, i, j)
        _, i, j = best
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    return clusters


def _pair_conjugates(points, tol):
    unpaired = [i for i, p in enumerate(points) if p.kind == "complex"]
    while unpaired:
        i = unpaired.pop(0)
        zi = np.array(points[i].coordinates)
        best = None
        for j in unpaired:
            d = float(np.max(np.abs(np.conj(zi) - np.array(points[j].coordinates))))
            if best is None or d < best[0]:
                best = (d, j)
        if best is None:
            raise ClusterAmbiguity("unpaired complex point (conjugation symmetry broken)")
        _, j = best
        points[i].partner = j
        points[j].partner = i
        # enforce exact mutual conjugation of the stored coordinates
        points[j].coordinates = [complex(z.conjugate()) for z in points[i].coordinates]
        unpaired.remove(j)


def _eval_basis(ring, coords):
    vals = []
    for m in ring.basis:
        v = 1.0 + 0j
        for z, e in zip(coords, m.exponents):
            if e:
                v *= z ** e
        vals.append(v)
    return np.array(vals)


def idempotents(ring, points):
    """U = (V^T)^{-1} with V the Vandermonde of B at the points."""
    if any(p.multiplicity != 1 for p in points):
        raise SingularVandermonde("multiple points: idempotents are undefined")
    v = np.array([_eval_basis(ring, p.coordinates) for p in points]).T  # V[i,j] = b_i(zeta_j)
    if v.shape[0] != v.shape[1]:
        raise SingularVandermonde("point count does not match quotient dimension")
    try:
        u = np.linalg.inv(v.T)
    except np.linalg.LinAlgError as exc:
        raise SingularVandermonde(str(exc)) from exc
    if not np.all(np.isfinite(u)) or np.linalg.cond(v.T) > 1e12:
        raise SingularVandermonde("Vandermonde numerically singular")
    # columns for real points are real in exact arithmetic
    for j, p in enumerate(points):
        if p.kind == "real":
            u[:, j] = u[:, j].real
    # conjugate columns for conjugate points, exactly as stored
    for j, p in enumerate(points):
        if p.kind == "complex" and p.partner is not None and p.partner < j:
            u[:, j] = np.conj(u[:, p.partner])
    return u


class Membership:
    def __init__(self, s_indices, excluded, complex_indices):
        self.s_indices = s_indices            # real points satisfying all g_i >= -tol
        self.excluded = excluded              # list of (point index, violated constraint index)
        self.complex_indices = complex_indices


def membership(var, g_list, tol=None):
    """Partition the variety into S, excluded real points (with a violated
    constraint index each), and complex points."""
    if tol is None:
        tol = max(var.tolerance * 1e6, 1e-9)
    s_indices = []
    excluded = []
    complex_indices = []
    for i, p in enumerate(var.points):
        if p.kind != "real":
            complex_indices.append(i)
            continue
        coords = [z.real for z in p.coordinates]
        violated = None
        ambiguous = False
        for gi, g in enumerate(g_list):
            val = evaluate(g.to_float(), coords)
            if val < -tol:
                violated = gi
                break
            if abs(val) <= tol:
                ambiguous = True
        if violated is None:
            if ambiguous:
                warnings.warn(
                    f"constraint value within tolerance at point {i}; provisionally in S",
                    BoundaryAmbiguity)
            s_indices.append(i)
        else:
            excluded.append((i, violated))
    return Membership(s_indices, excluded, complex_indices)


def interpolation_poly(var, j):
    """Lagrange-style product of linear factors: 1 at point j, 0 elsewhere."""
    ring = var.ring
    target = np.array(var.points[j].coordinates)
    phi = Polynomial.constant(1.0, ring.nvars)
    for i, p in enumerate(var.points):
        if i == j:
            continue
        other = np.array(p.coordinates)
        c = int(np.argmax(np.abs(target - other)))
        denom = target[c] - other[c]
        xc = Polynomial.variable(c, ring.nvars)
        factor = (xc - complex(other[c])) * (1.0 / complex(denom))
        phi = phi * factor
    if all(p.kind == "real" for p in var.points):
        phi = phi.real_part()
    return phi
