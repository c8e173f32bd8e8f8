"""Exact certificate verification and degree/height bound calculators.

`residual` is the one expansion of a certificate identity, exactly, over
the integers with one common denominator: verify_certificate's, and the
one the certifier uses for squares that no Gram matrix carries.
verify_certificate reports rather than throws, so callers can distinguish
which clause of the certificate failed.  The degree bound of the p_j h_j
terms is checked only when the equations form a graded basis
(`quotient.IdealBasis.is_graded`, decided from their top-degree forms with
no cofactor solve); in nonnegative mode, block 0 must have exactly one
witness per square.  The bound calculator evaluates the degree bound for
the cofactor products and the relaxation order at which the hierarchy is
exact.  Nothing here loads numpy or an engine: `verify` and `bounds` run
on `problem_io`, `quotient`, `exactla` and `polyring` alone.
"""

from __future__ import annotations

import math
import operator

from . import quotient
from .errors import NotZeroDimensional
from .polyring import Polynomial, height


def _add_product(acc, a, b, scale):
    """acc += scale * a * b on integer polynomials keyed by exponent tuples."""
    for e1, c1 in a.items():
        c1 *= scale
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2


def _add_block(acc, squares):
    """acc += sum_k s_k q_k^2 for pairs (s_k, q_k) of integers and integer polynomials,
    through G = sum_k s_k c_k c_k^t on their monomials in first-seen order: each
    monomial pair adds to acc once, in the order that square-by-square expansion gives."""
    index, gram = {}, {}
    for s, q in squares:
        row = [(index.setdefault(e, len(index)), c) for e, c in q.items()]
        for a, (i, ci) in enumerate(row):
            si = s * ci
            gram[i, i] = gram.get((i, i), 0) + si * ci
            si += si
            for j, cj in row[a + 1:]:
                key = (i, j) if i < j else (j, i)
                gram[key] = gram.get(key, 0) + si * cj
    monomials = list(index)
    for (i, j), x in gram.items():
        e = tuple(map(operator.add, monomials[i], monomials[j]))
        acc[e] = acc.get(e, 0) + x


def residual(inst, cert):
    """f - sum_i m_i sum_k w_{i,k} q_{i,k}^2 - sum_j p_j h_j, with m_0 = 1
    and m_i = g_i: the certificate identity expanded exactly, in integers
    over one common denominator lcd, from each factor's integers over its
    own denominator, block by block (`_add_block`), block i's sum times g_i."""
    f = inst.f
    mults = [Polynomial.constant(1, inst.nvars)] + inst.g
    lcd = math.lcm(f.den,
                   *(w.denominator * q.den ** 2 * m.den
                     for m, block in zip(mults, cert.blocks) for w, q in block),
                   *(p.den * h.den for p, h in zip(cert.cofactors, inst.h)))
    acc = {e: c * (lcd // f.den) for e, c in f.ints.items()}
    for i, (m, block) in enumerate(zip(mults, cert.blocks)):
        inner = {} if i else acc  # block 0 adds straight to acc
        _add_block(inner, [(-w.numerator * (lcd // (w.denominator * q.den ** 2 * m.den)), q.ints)
                           for w, q in block])
        if i:
            _add_product(acc, m.ints, inner, 1)
    for p, h in zip(cert.cofactors, inst.h):
        _add_product(acc, p.ints, h.ints, -(lcd // (p.den * h.den)))
    return Polynomial(acc, lcd, inst.nvars)


class VerificationReport:
    def __init__(self, identity_ok, weights_ok, degree_bound_ok=None,
                 mode_ok=None, max_numerator_bits=0, max_denominator_bits=0,
                 max_weight_bits=0, shape_error=None):
        self.shape_error = shape_error
        self.identity_ok = identity_ok
        self.weights_ok = weights_ok
        self.degree_bound_ok = degree_bound_ok
        self.mode_ok = mode_ok
        self.max_numerator_bits = max_numerator_bits
        self.max_denominator_bits = max_denominator_bits
        self.max_weight_bits = max_weight_bits

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
        identity = ("not checked" if self.shape_error is not None
                    else "ok" if self.identity_ok else "FAILED")
        lines += [
            f"identity: {identity}",
            f"weights nonnegative: {'ok' if self.weights_ok else 'FAILED'}",
        ]
        if self.degree_bound_ok is not None:
            lines.append(f"degree bound: {'ok' if self.degree_bound_ok else 'FAILED'}")
        if self.mode_ok is not None:
            lines.append(f"mode witnesses: {'ok' if self.mode_ok else 'FAILED'}")
        lines.append(f"max numerator bits: {self.max_numerator_bits}")
        lines.append(f"max denominator bits: {self.max_denominator_bits}")
        lines.append(f"max weight bits: {self.max_weight_bits}")
        return "\n".join(lines)


def verify_certificate(inst, cert, ring=None):
    """Exact verification of the certificate identity: its residual is zero.
    A certificate with more blocks than 1 + len(g) or more cofactors than
    len(h) does not fit the problem; its identity is not checked.  With no
    finite R/I, a strict certificate is decided with no degree bound, and a
    nonneg one, whose witnesses are checked in R/I, raises NotZeroDimensional."""
    shape_error = None
    if len(cert.blocks) > 1 + len(inst.g):
        shape_error = (f"{len(cert.blocks)} blocks, but the problem has "
                       f"{1 + len(inst.g)} multipliers")
    elif len(cert.cofactors) > len(inst.h):
        shape_error = (f"{len(cert.cofactors)} cofactors, but the problem has "
                       f"{len(inst.h)} equations")
    weights = [w for block in cert.blocks for w, _ in block]
    weights_ok = all(w >= 0 for w in weights)
    weight_bits = max((x.bit_length() for w in weights
                       for x in (w.numerator, w.denominator)), default=0)
    squares = [q for block in cert.blocks for _, q in block]
    heights = [height(p) for p in squares + cert.cofactors]
    num_bits = max((info.numerator_height for info in heights), default=0)
    den_bits = max((info.denominator_height for info in heights), default=0)
    identity_ok = shape_error is None and residual(inst, cert).is_zero()

    degree_bound_ok = None
    mode_ok = None
    if ring is None:
        try:
            ring = quotient.build_ring(inst.h)
        except NotZeroDimensional:
            if cert.mode == "nonneg":
                raise
    if ring is not None and ring.ideal.is_graded:
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
                              num_bits, den_bits, weight_bits, shape_error=shape_error)


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
