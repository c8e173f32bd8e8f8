"""Exact certificate verification and degree/height bound calculators.

verify_certificate fully expands the claimed identity, exactly, over the
integers with one common denominator (`certifier.residual`, with which
the certifier also closes its identities); it reports rather than throws,
so callers can distinguish which clause of the certificate failed.  The
degree bound of the p_j h_j terms is checked only when the equations form
a graded basis (`quotient.IdealBasis.is_graded`, decided from their
top-degree forms with no cofactor solve); in nonnegative mode, block 0
must have exactly one witness per square.  The bound calculator evaluates
the degree bound for the cofactor products and the relaxation order at
which the hierarchy is exact.
"""

from __future__ import annotations

import math

from .certifier import build_ring, residual
from .polyring import height


class VerificationReport:
    def __init__(self, identity_ok, weights_ok, degree_bound_ok=None,
                 mode_ok=None, max_numerator_bits=0, max_denominator_bits=0,
                 shape_error=None):
        self.shape_error = shape_error
        self.identity_ok = identity_ok
        self.weights_ok = weights_ok
        self.degree_bound_ok = degree_bound_ok
        self.mode_ok = mode_ok
        self.max_numerator_bits = max_numerator_bits
        self.max_denominator_bits = max_denominator_bits

    @property
    def ok(self):
        """The certificate proves its claim: it fits the problem, the
        identity holds, the weights are nonnegative and the nonneg-mode
        witnesses check.  The degree bound is reported but decides nothing,
        since a valid identity with larger cofactors proves the same."""
        return (self.shape_error is None and self.identity_ok and self.weights_ok
                and self.mode_ok is not False)

    def first_failure(self):
        if self.shape_error is not None:
            return f"shape: {self.shape_error}"
        if not self.identity_ok:
            return "identity"
        if not self.weights_ok:
            return "weights"
        if self.mode_ok is False:
            return "mode-witness"
        return None

    def to_text(self):
        lines = [] if self.shape_error is None else [f"shape: FAILED ({self.shape_error})"]
        lines += [
            f"identity: {'ok' if self.identity_ok else 'FAILED'}",
            f"weights nonnegative: {'ok' if self.weights_ok else 'FAILED'}",
        ]
        if self.degree_bound_ok is not None:
            lines.append(f"degree bound: {'ok' if self.degree_bound_ok else 'FAILED'}")
        if self.mode_ok is not None:
            lines.append(f"mode witnesses: {'ok' if self.mode_ok else 'FAILED'}")
        lines.append(f"max numerator bits: {self.max_numerator_bits}")
        lines.append(f"max denominator bits: {self.max_denominator_bits}")
        return "\n".join(lines)


def verify_certificate(inst, cert, ring=None):
    """Exact verification of the certificate identity: its residual is zero.
    A certificate with more blocks than 1 + len(g) or more cofactors than
    len(h) does not fit the problem; its identity is not checked."""
    shape_error = None
    if len(cert.blocks) > 1 + len(inst.g):
        shape_error = (f"{len(cert.blocks)} blocks, but the problem has "
                       f"{1 + len(inst.g)} multipliers")
    elif len(cert.cofactors) > len(inst.h):
        shape_error = (f"{len(cert.cofactors)} cofactors, but the problem has "
                       f"{len(inst.h)} equations")
    weights_ok = all(w >= 0 for block in cert.blocks for w, _ in block)
    squares = [q for block in cert.blocks for _, q in block]
    heights = [height(p) for p in squares + cert.cofactors]
    num_bits = max((info.numerator_height for info in heights), default=0)
    den_bits = max((info.denominator_height for info in heights), default=0)
    identity_ok = shape_error is None and residual(inst, cert).is_zero()

    degree_bound_ok = None
    mode_ok = None
    if ring is None:
        ring = build_ring(inst)
    if ring.ideal.is_graded:
        bound = degree_bounds(inst, ring).cofactor_degree_bound
        degree_bound_ok = all(
            pj.is_zero() or hj.is_zero() or pj.degree + hj.degree <= bound
            for pj, hj in zip(cert.cofactors, inst.h))
    if cert.mode == "nonneg":
        # one witness r per square q of block 0, with q = f r modulo I
        nf_f = ring.nf_vector(inst.f)
        mode_ok = (cert.witnesses is not None and len(cert.witnesses) == len(cert.blocks[0])
                   and all(ring.nf_vector(q) == ring.mul(nf_f, ring.nf_vector(r))
                           for (w, q), r in zip(cert.blocks[0], cert.witnesses)))
    return VerificationReport(identity_ok, weights_ok, degree_bound_ok, mode_ok,
                              num_bits, den_bits, shape_error=shape_error)


class BoundReport:
    def __init__(self, **kw):
        self.__dict__.update(kw)

    def to_text(self):
        return "\n".join(f"{k} = {v}" for k, v in sorted(self.__dict__.items()))


def degree_bounds(inst, ring):
    """Degree bound for the cofactor products p_j h_j and the hierarchy
    order at which finite convergence is guaranteed."""
    deg_b = ring.degree_of_basis()
    deg_f = max(inst.f.degree, 0)
    terms = [deg_f, 2 * deg_b] + [g.degree + 2 * deg_b for g in inst.g]
    bound = max(terms)
    order = math.ceil(bound / 2)
    return BoundReport(cofactor_degree_bound=bound, hierarchy_order=order,
                       basis_degree=deg_b, quotient_dimension=ring.D)
