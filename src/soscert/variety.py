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
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import BoundaryAmbiguity, ClusterAmbiguity, SingularVandermonde
from .polyring import evaluate


class RootPoint:
    def __init__(self, coordinates, kind, partner=None):
        self.coordinates = list(coordinates)
        self.kind = kind  # "real" or "complex"
        self.partner = partner  # index of the conjugate point, complex kind

    def __repr__(self):
        return f"RootPoint({self.coordinates}, {self.kind})"


class VarietyData:
    def __init__(self, points, idempotents, tolerance, ring):
        self.points = points
        self.idempotents = idempotents  # complex array, column j = u_{zeta_j} over B
        self.tolerance = tolerance
        # the one tolerance of the float decisions on values at the roots:
        # membership in S and the sign of f there must agree on it
        self.decision_tol = max(tolerance * 1e6, 1e-9)
        self.ring = ring


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

    points = []
    for z in raw:
        kind = "real" if float(np.max(np.abs(z.imag))) <= 1e4 * tol else "complex"
        points.append(RootPoint([complex(c.real, 0.0) if kind == "real" else complex(c)
                                 for c in z], kind))
    _pair_conjugates(points, tol)
    idem = idempotents(ring, points)

    if len(raw) > 1:
        sep = separation(np.array(raw))
        if sep < 10 * tol:
            raise ClusterAmbiguity(f"point separation {sep:.3e} below 10*tol")
    return VarietyData(points, idem, tol, ring)


def separation(r):
    """The smallest max-norm distance between two of the rows of r (at
    least two points, one per row)."""
    return float(np.abs(r[:, None] - r[None]).max(axis=2)[np.triu_indices(len(r), 1)].min())


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
    for b in ring.basis:
        v = 1.0 + 0j
        for z, e in zip(coords, b):
            if e:
                v *= z ** e
        vals.append(v)
    return np.array(vals)


def idempotents(ring, points):
    """U = (V^T)^{-1} with V the Vandermonde of B at the points."""
    v = np.array([_eval_basis(ring, p.coordinates) for p in points]).T  # V[i,j] = b_i(zeta_j)
    try:
        u = np.linalg.inv(v.T)
    except np.linalg.LinAlgError as exc:
        raise SingularVandermonde(f"Vandermonde numerically singular: {exc}") from exc
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


def membership(var, g_list):
    """Partition the variety into S, excluded real points (with a violated
    constraint index each), and complex points."""
    tol = var.decision_tol
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
            val = evaluate(g, coords)
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

