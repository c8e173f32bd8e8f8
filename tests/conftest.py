import functools
import heapq
import math
import operator
import os
import re
from fractions import Fraction

import numpy as np
import pytest

from soscert import gram, polyring, problem_io, quotient, sdp_backend, variety
from soscert.errors import ConditionFailed, DimensionMismatch, Infeasible, MaxIterations, NotPD, ParseError
from soscert.polyring import Polynomial, evaluate, format_polynomial, grevlex

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(DATA, name)


def load_problem(name):
    with open(data_path(name), encoding="utf-8") as fh:
        return problem_io.parse_problem(fh.read())


def load_certificate(name, expected_vars=None):
    with open(data_path(name), encoding="utf-8") as fh:
        cert, _ = problem_io.parse_certificate(fh.read(), expected_vars)
    return cert


def format_problem(inst):
    """The problem file text of an instance, one line per polynomial."""
    lines = ["variables " + " ".join(inst.var_names)]
    lines.append("f: " + format_polynomial(inst.f, inst.var_names))
    lines += ["g: " + format_polynomial(p, inst.var_names) for p in inst.g]
    lines += ["h: " + format_polynomial(p, inst.var_names) for p in inst.h]
    lines += [f"option {key} {inst.options[key]}" for key in sorted(inst.options)]
    return "\n".join(lines) + "\n"


def from_rational(rows):
    """The SymmetricMatrix of a matrix of rationals."""
    nu = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    return gram.SymmetricMatrix([[int(x * nu) for x in row] for row in rows], nu)


def rational(q):
    """The entries of a SymmetricMatrix as Fractions."""
    return [[Fraction(x, q.nu) for x in row] for row in q.mat]


def fractions(vector):
    """A ring vector (ints, den) as a list of Fractions."""
    ints, den = vector
    return [Fraction(x, den) for x in ints]


def mat_vec(a, v):
    """The product of a Fraction matrix and a vector."""
    return [sum((c * x for c, x in zip(row, v) if c), Fraction(0)) for row in a]


def reconstruct(squares):
    """The rational matrix sum_k w_k v_k v_k^t of the LDL^t squares (w_k, v_k)."""
    return [[sum((w * v[i] * v[j] for w, v in squares), Fraction(0))
             for j in range(len(squares))] for i in range(len(squares))]


def determinant(a):
    """Determinant of a square Fraction matrix, by Gaussian elimination."""
    m = [row[:] for row in a]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def reference_ldlt(q):
    """`gram.ldlt` as it was: the Bareiss update entry by entry, over both
    triangles of the matrix."""
    D = q.D
    m = [row[:] for row in q.mat]
    squares = []
    prev = 1
    for k in range(D):
        delta_k = m[k][k]
        if delta_k <= 0:
            raise NotPD(k + 1)
        squares.append((Fraction(1, q.nu * delta_k * prev),
                        [0] * k + [m[i][k] for i in range(k, D)]))
        for i in range(k + 1, D):
            for j in range(k + 1, D):
                m[i][j] = (m[i][j] * delta_k - m[i][k] * m[k][j]) // prev
        prev = delta_k
    return squares


def reference_residual(inst, cert):
    """`verify_bounds.residual` as it was: each square expanded on its own,
    with an exponent tuple for every cross term, and each block's sum, one
    polynomial, times its multiplier, the constant 1 for block 0."""

    def add_product(acc, a, b, scale):
        for e1, c1 in a.items():
            c1 *= scale
            for e2, c2 in b.items():
                e = tuple(map(operator.add, e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2

    def add_square(acc, a, scale):
        items = list(a.items())
        for i, (e1, c1) in enumerate(items):
            s1 = scale * c1
            e = tuple(map(operator.add, e1, e1))
            acc[e] = acc.get(e, 0) + s1 * c1
            s1 += s1
            for e2, c2 in items[i + 1:]:
                e = tuple(map(operator.add, e1, e2))
                acc[e] = acc.get(e, 0) + s1 * c2

    f = inst.f
    mults = [Polynomial.constant(1, inst.nvars)] + inst.g
    lcd = math.lcm(f.den,
                   *(w.denominator * q.den ** 2 * m.den
                     for m, block in zip(mults, cert.blocks) for w, q in block),
                   *(p.den * h.den for p, h in zip(cert.cofactors, inst.h)))
    acc = {e: c * (lcd // f.den) for e, c in f.ints.items()}
    for m, block in zip(mults, cert.blocks):
        inner = {}
        for w, q in block:
            add_square(inner, q.ints, -w.numerator * (lcd // (w.denominator * q.den ** 2 * m.den)))
        add_product(acc, m.ints, inner, 1)
    for p, h in zip(cert.cofactors, inst.h):
        add_product(acc, p.ints, h.ints, -(lcd // (p.den * h.den)))
    return Polynomial(acc, lcd, inst.nvars)


@functools.total_ordering
class Monomial(polyring.Monomial):
    """A power product x^alpha with the monomial algebra that the reference
    implementations use, ordered by `polyring.grevlex`.  As a
    `polyring.Monomial` it equals, and hashes like, the `Polynomial.terms`
    key of the same exponents."""

    __slots__ = ()

    def __init__(self, exponents):
        super().__init__(tuple(exponents))

    @classmethod
    def unit(cls, nvars):
        return cls((0,) * nvars)

    @classmethod
    def variable(cls, i, nvars):
        return cls(tuple(1 if j == i else 0 for j in range(nvars)))

    @property
    def degree(self):
        return sum(self.exponents)

    def __mul__(self, other):
        return Monomial(map(operator.add, self.exponents, other.exponents))

    def divides(self, other):
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __truediv__(self, other):
        return Monomial(map(operator.sub, self.exponents, other.exponents))

    def lcm(self, other):
        return Monomial(map(max, self.exponents, other.exponents))

    def grevlex_key(self):
        return grevlex(self.exponents)

    def __lt__(self, other):
        return self.grevlex_key() < other.grevlex_key()


def terms(p):
    """The `terms` view of p, {Monomial: Fraction}, keyed by the Monomial
    above, which has the algebra."""
    return {Monomial(m.exponents): c for m, c in p.terms.items()}


def polynomial(coeffs, nvars):
    """The Polynomial with the rational coefficients {exponents: c}."""
    den = math.lcm(*(Fraction(c).denominator for c in coeffs.values()))
    return Polynomial({e: int(c * den) for e, c in coeffs.items()}, den, nvars)


def divide(p, divisors):
    """`quotient._divide`, the package's division kernel, on polynomials:
    the integer forms of p and of the divisors go in, and the quotients and
    the remainder come back as polynomials, as `reference_divide` returns
    them."""
    triples = []
    for d in divisors:
        lead = d.leading_monomial()
        triples.append((lead, d.ints[lead], [(e, c) for e, c in d.ints.items() if e != lead]))
    quotients, remainder, scale = quotient._divide(dict(p.ints), triples)
    den = p.den * scale
    # divisor i is d_i / L_i for its integer form d_i: its quotient is L_i q_i
    return ([Polynomial({u: c * d.den for u, c in q.items()}, den, p.nvars)
             for q, d in zip(quotients, divisors)], Polynomial(remainder, den, p.nvars))


def reference_divide(p, divisors):
    """Multivariate division: p = sum(q_i * divisors[i]) + remainder, with no
    remainder monomial divisible by any divisor's leading monomial."""
    quotients = [Polynomial.zero(p.nvars) for _ in divisors]
    remainder = Polynomial.zero(p.nvars)
    lead = [(Monomial(d.leading_monomial()), d.leading_coefficient()) for d in divisors]
    work = p
    while not work.is_zero():
        t = Monomial(work.leading_monomial())
        c = work.terms[t]
        for i, (lm, lc) in enumerate(lead):
            if lm.divides(t):
                factor = polynomial({(t / lm).exponents: c / lc}, p.nvars)
                quotients[i] = quotients[i] + factor
                work = work - factor * divisors[i]
                break
        else:
            mono = polynomial({t.exponents: c}, p.nvars)
            remainder = remainder + mono
            work = work - mono
    return quotients, remainder


def reference_groebner(generators):
    """Buchberger completion in Fractions, with sugar-strategy pair
    selection, on monic polynomials reduced by `reference_divide`, followed
    by full inter-reduction: the monic reduced Gröbner basis, which
    `quotient.groebner(generators).gb` must equal."""
    def monic(p):
        return p * (Fraction(1) / p.leading_coefficient())

    gens = [p for p in generators if not p.is_zero()]
    nvars = gens[0].nvars
    basis = []
    sugars = []
    for p in gens:
        r = reference_divide(p, basis)[1] if basis else p
        if not r.is_zero():
            basis.append(monic(r))
            sugars.append(r.degree)
    lead = [Monomial(g.leading_monomial()) for g in basis]
    pairs = []  # heap of (sugar, grevlex key of the lcm, i, j), keyed once

    def add_pairs(k):
        for i in range(k):
            lcm = lead[i].lcm(lead[k])
            sugar = max(sugars[i] + lcm.degree - lead[i].degree,
                        sugars[k] + lcm.degree - lead[k].degree)
            heapq.heappush(pairs, (sugar, lcm.grevlex_key(), i, k))

    for k in range(1, len(basis)):
        add_pairs(k)
    while pairs:
        sugar, _, i, j = heapq.heappop(pairs)
        lm_i, lm_j = lead[i], lead[j]
        lcm = lm_i.lcm(lm_j)
        if lcm.degree == lm_i.degree + lm_j.degree:
            continue  # coprime leading terms: S-polynomial reduces to zero
        s = (polynomial({(lcm / lm_i).exponents: Fraction(1)}, nvars) * basis[i]
             - polynomial({(lcm / lm_j).exponents: Fraction(1)}, nvars) * basis[j])
        r = reference_divide(s, basis)[1]
        if not r.is_zero():
            basis.append(monic(r))
            lead.append(Monomial(r.leading_monomial()))
            sugars.append(sugar)
            add_pairs(len(basis) - 1)

    # inter-reduce: drop redundant elements, then tail-reduce each survivor
    keep = []
    for i, lm in enumerate(lead):
        redundant = any(j != i and lead[j].divides(lm) and (lead[j] != lm or j < i)
                        for j in range(len(basis)))
        if not redundant:
            keep.append(i)
    minimal = [basis[i] for i in keep]
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        reduced.append(monic(reference_divide(g, others)[1]) if others else monic(g))
    reduced.sort(key=lambda g: grevlex(g.leading_monomial()))
    return reduced


def normal_form(ring, p):
    """The normal form of p in span(B), as a polynomial."""
    return ring.from_vector(*ring.nf_vector(p))


def cofactor_polys(ideal):
    """`IdealBasis.gb_cofactors` as polynomials: row k is the r_j with
    gb[k] = sum_j r_j h_j."""
    return [[Polynomial(r, den, ideal.nvars) for r in rows]
            for rows, den in ideal.gb_cofactors]


def reference_rref(matrix, ncols=None):
    """Reduced row echelon form by Gauss-Jordan elimination in Fractions,
    each pivot row normalized: `exactla.rref`'s (R, pivots, p) must give
    the same (R / p, pivots)."""
    a = [row[:] for row in matrix]
    nrows = len(a)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def reference_solve(a, b):
    """One solution of A x = b, free variables 0, or None if inconsistent,
    from `reference_rref`."""
    n = len(a)
    m = len(a[0]) if a else 0
    aug = [list(a[i]) + [Fraction(b[i])] for i in range(n)]
    red, pivots = reference_rref(aug, ncols=m)
    for row in red:
        if all(x == 0 for x in row[:m]) and row[m] != 0:
            return None
    x = [Fraction(0)] * m
    for r, c in enumerate(pivots):
        x[c] = red[r][m]
    return x


def reference_nullspace(a):
    """Basis of the right nullspace of A, from `reference_rref`."""
    m = len(a[0]) if a else 0
    red, pivots = reference_rref(a)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][fc]
        basis.append(v)
    return basis


def primitive(v):
    """The rational vector v scaled by a positive rational to integers with
    gcd 1."""
    v = [Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g else ints


def reference_mult_matrices(ring):
    """`QuotientRing.mult_matrices` with each column NF(x_k b) reduced by
    division by the Gröbner basis: (integer rows of A_k, d_k), d_k the lcm
    of the denominators of the columns."""
    mats = []
    for k in range(ring.nvars):
        cols = []
        for b in ring.basis:
            nf = reference_divide(polynomial({b[:k] + (b[k] + 1,) + b[k + 1:]: 1}, ring.nvars),
                                  ring.ideal.gb)[1]
            cols.append([nf.terms.get(Monomial(m), Fraction(0)) for m in ring.basis])
        d_k = math.lcm(*(x.denominator for col in cols for x in col))
        mats.append(([[int(x * d_k) for x in row] for row in zip(*cols)], d_k))
    return mats


def reference_express_in_generators(g, generators, start_caps):
    """`quotient._express_in_generators` from the dense Fraction system: one
    row per monomial of degree up to the largest in the system, one column
    m h_j per generator and monomial m of degree <= cap_j (grevlex
    ascending), the caps raised by one until `reference_solve` finds a
    solution."""
    nvars = g.nvars
    caps = list(start_caps)
    while True:
        cols = []
        col_polys = []
        support_deg = max([g.degree] + [c + h.degree for c, h in zip(caps, generators) if c >= 0])
        support = quotient.monomials_upto(nvars, support_deg)
        index = {m: i for i, m in enumerate(support)}
        for j, h in enumerate(generators):
            if caps[j] < 0:
                continue
            for m in quotient.monomials_upto(nvars, caps[j]):
                prod = polynomial({m: Fraction(1)}, nvars) * h
                col = [Fraction(0)] * len(support)
                for mm, c in prod.terms.items():
                    col[index[mm.exponents]] = c
                cols.append(col)
                col_polys.append((j, m))
        rhs = [Fraction(0)] * len(support)
        for mm, c in g.terms.items():
            rhs[index[mm.exponents]] = c
        a = [list(row) for row in zip(*cols)] if cols else [[] for _ in support]
        sol = reference_solve(a, rhs) if cols else (rhs if all(x == 0 for x in rhs) else None)
        if sol is not None:
            result = [Polynomial.zero(nvars) for _ in generators]
            if cols:
                for x, (j, m) in zip(sol, col_polys):
                    if x:
                        result[j] = result[j] + polynomial({m: x}, nvars)
            return result
        caps = [c + 1 for c in caps]


def nonneg(inst):
    """The problem inst in nonnegative mode, with its other options."""
    return problem_io.ProblemInstance(inst.var_names, inst.f, inst.g, inst.h,
                                      options={**inst.options, "mode": "nonneg"})


def radical_roots(ring, seed=0):
    """The `roots` argument of `quotient.coprimality_witness`: solves the
    points of ring.radical_ring when called."""
    return lambda: variety.solve_variety(ring.radical_ring, seed=seed)


def reference_solve_variety(ring, seed=0):
    """`variety.solve_variety` point by point: one row product inv[k] M_j
    and one dot per (point, M_j), each point classified on its own, the
    conjugate pairs found by pairwise distances, and the basis evaluated
    at one point at a time with Python complex powers.  The array form
    must give the same floats, bit for bit."""
    D, n = ring.D, ring.nvars
    mats = [np.array([[x / d for x in row] for row in rows]) for rows, d in ring.mult_matrices]
    coeffs = np.random.default_rng(seed).uniform(0.5, 1.5, size=n)
    combo = sum(c * m for c, m in zip(coeffs, mats))
    vecs = np.linalg.eig(combo.astype(complex))[1]
    inv = np.linalg.inv(vecs)
    raw = [np.array([inv[k] @ m @ vecs[:, k] for m in mats]) for k in range(D)]
    tol = 2.0 ** -40 * (1.0 + max((float(np.max(np.abs(r))) for r in raw), default=0.0))
    is_real = [float(np.max(np.abs(z.imag))) <= 1e4 * tol for z in raw]
    points = [[complex(c.real, 0.0) if r else complex(c) for c in z] for z, r in zip(raw, is_real)]
    reals = [k for k, r in enumerate(is_real) if r]
    unpaired = [k for k, r in enumerate(is_real) if not r]
    firsts = []
    while unpaired:
        i = unpaired.pop(0)
        zi = np.conj(np.array(points[i]))
        j = min(unpaired, key=lambda j: float(np.max(np.abs(zi - np.array(points[j])))))
        points[j] = [z.conjugate() for z in points[i]]
        unpaired.remove(j)
        firsts.append(i)

    def basis_values(coords):
        powers = [[z ** k for k in range(t + 1)]
                  for z, t in zip(coords, map(max, zip(*ring.basis)))]
        vals = []
        for b in ring.basis:
            v = 1.0 + 0j
            for pw, e in zip(powers, b):
                if e:
                    v *= pw[e]
            vals.append(v)
        return np.array(vals)

    u = np.linalg.inv(np.array([basis_values(p) for p in points]))
    return variety.VarietyData([[z.real for z in points[k]] for k in reals],
                               [points[k] for k in firsts], u[:, reals].real, u[:, firsts], tol)


def reference_witness(ring, f, seed=0):
    """The coprimality witness from the 2D x 2D block system a f + b = 1,
    b f = 0 over the quotient basis, with the coefficients of a, then of b,
    as unknowns; then the shift of a at the zeros of f and the common
    denominator gamma.  `quotient.coprimality_witness` must return the same
    (a, b, gamma) from its one D x D solve of a f^2 = f."""
    D = ring.D
    cols = [fractions(ring.nf_vector(f * polynomial({b: 1}, ring.nvars))) for b in ring.basis]
    m_f = [list(row) for row in zip(*cols)]
    zero = [Fraction(0)] * D
    rows = [m_f[r] + [Fraction(int(k == r)) for k in range(D)] for r in range(D)]
    rows += [zero + m_f[r] for r in range(D)]
    sol = reference_solve(rows, fractions(ring.nf_vector(Polynomial.constant(1, ring.nvars)))
                          + zero)
    if sol is None:
        raise ConditionFailed("(I : f) + (f) is not the unit ideal")
    a, b = (polynomial(dict(zip(ring.basis, part)), ring.nvars) for part in (sol[:D], sol[D:]))
    if not b.is_zero():
        var = variety.solve_variety(ring.radical_ring, seed=seed)
        vals = [evaluate(a, xi) for xi in var.real if evaluate(b, xi) > 0.5]
        if vals and min(vals) <= var.decision_tol:
            rho = 1
            while rho <= max(abs(v) for v in vals) + 1:
                rho *= 2
            a = a + b * rho
    nu = math.lcm(a.den, b.den)
    return a * nu, b * nu, nu


def _reference_max_step(p, dp):
    """Largest alpha with p + alpha dp still positive semidefinite (inf when
    every alpha keeps it so), for positive definite p."""
    inv_l = np.linalg.inv(np.linalg.cholesky(p))
    low = np.linalg.eigvalsh(inv_l @ dp @ inv_l.T)[0]
    return -1.0 / low if low < 0 else math.inf


def reference_maximize_lambda(prob, iterations=100):
    """The interior-point solve as a loop over the blocks, one numpy call
    per block and step, with the Cholesky factors of X_k and S_k taken
    again for each direction: `sdp_backend.maximize_lambda` must return the
    same SolverResult bit for bit, or raise the same exception with the
    same message."""
    ring = prob.ring
    d = ring.D
    slices = [prob.A[:, k * d * d:(k + 1) * d * d] for k in range(len(prob.block_sizes))]
    eye = np.eye(d)
    a = slices[0] @ eye.reshape(-1)
    # a = NF(sum_p b_p^2) is exactly 0 only without real points (it is at
    # least 1 at a real point); lam then leaves the constraints and is held
    # at 1
    held = not any(ring.nf_vector(polynomial({tuple(2 * e for e in b): 1 for b in ring.basis},
                                             ring.nvars))[0])
    b = prob.b
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    n = d * len(slices)
    xs = [eye.copy() for _ in slices]
    ss = [eye.copy() for _ in slices]
    y = np.zeros(d)
    lam = 1.0 if held else 0.0
    for it in range(iterations):
        r_p = b - sum(ak @ xk.reshape(-1) for ak, xk in zip(slices, xs)) - lam * a
        r_d = [sk - (ak.T @ y).reshape(d, d) for ak, sk in zip(slices, ss)]
        r_lam = 1.0 - float(a @ y)
        p_res = float(np.max(np.abs(r_p), initial=0.0)) / scale
        d_res = max(abs(r_lam), max(float(np.max(np.abs(r))) for r in r_d))
        # b^t y bounds lam* only when the dual is feasible; at or below the
        # float resolution of b it proves that lam* is not positive
        bound = float(b @ y) if d_res < 1e-8 else None
        if bound is not None and bound <= np.finfo(float).eps * scale:
            raise Infeasible(bound)
        known = lam >= 1 or (bound is not None and bound <= 1.5 * lam)
        if lam > 0 and p_res <= 1e-3 * lam and known:
            blocks = [xs[0] + lam * eye] + xs[1:]
            return sdp_backend.SolverResult(blocks, lam, prob.residual(blocks), bound, it)
        try:
            s_inv = [np.linalg.inv(sk) for sk in ss]
            m = sum(ak @ np.kron(si, xk) @ ak.T for ak, si, xk in zip(slices, s_inv, xs))
            bordered = np.block([[m, a[:, None]], [a[None, :], np.zeros((1, 1))]])

            def step_blocks(dy, targets):
                dss = [(ak.T @ dy).reshape(d, d) - rk for ak, rk in zip(slices, r_d)]
                dxs = [gk - xk @ dsk @ si for gk, xk, dsk, si in zip(targets, xs, dss, s_inv)]
                return [(dxk + dxk.T) / 2.0 for dxk in dxs], dss

            def direction(targets):
                # dX_k = G_k - X_k dS_k S_k^-1 with dS_k = A_k^*(dy) - R_k, so
                # the primal equation A(dX) + dlam a = r_p and a^t dy = r_lam
                # read M dy - dlam a = A(G + X R S^-1) - r_p.  One solve and
                # one refinement against the computed dX keep the step's
                # primal residual at float level as M grows ill-conditioned.
                dy, dlam = np.zeros(d), 0.0
                for _ in range(2):
                    dxs, dss = step_blocks(dy, targets)
                    e_p = r_p - dlam * a - sum(ak @ dxk.reshape(-1)
                                               for ak, dxk in zip(slices, dxs))
                    if held:
                        dy = dy - np.linalg.solve(m, e_p)
                    else:
                        sol = np.linalg.solve(bordered, np.append(-e_p, r_lam - a @ dy))
                        dy, dlam = dy + sol[:d], dlam - sol[d]
                dxs, dss = step_blocks(dy, targets)
                alpha_p = min([1.0] + [_reference_max_step(xk, dxk) for xk, dxk in zip(xs, dxs)])
                alpha_d = min([1.0] + [_reference_max_step(sk, dsk) for sk, dsk in zip(ss, dss)])
                return dxs, dy, dss, dlam, alpha_p, alpha_d

            mu = sum(float(np.vdot(xk, sk)) for xk, sk in zip(xs, ss)) / n
            dxs, _, dss, _, alpha_p, alpha_d = direction([-xk for xk in xs])
            mu_aff = sum(float(np.vdot(xk + alpha_p * dxk, sk + alpha_d * dsk))
                         for xk, dxk, sk, dsk in zip(xs, dxs, ss, dss)) / n
            sigma = (mu_aff / mu) ** 3
            targets = [sigma * mu * si - xk - dxk @ dsk @ si
                       for si, xk, dxk, dsk in zip(s_inv, xs, dxs, dss)]
            dxs, dy, dss, dlam, alpha_p, alpha_d = direction(targets)
        except np.linalg.LinAlgError as exc:
            raise MaxIterations(f"interior point broke down at iteration {it} ({exc}): "
                                f"primal residual {p_res:.3e}, dual residual {d_res:.3e}, "
                                f"lambda {lam:.3e}") from exc
        alpha_p, alpha_d = 0.95 * alpha_p, 0.95 * alpha_d
        xs = [xk + alpha_p * dxk for xk, dxk in zip(xs, dxs)]
        lam += alpha_p * dlam
        y = y + alpha_d * dy
        ss = [sk + alpha_d * dsk for sk, dsk in zip(ss, dss)]
    raise MaxIterations(f"interior point: {iterations} iterations, primal residual "
                        f"{p_res:.3e}, dual residual {d_res:.3e}, lambda {lam:.3e}")


_REFERENCE_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                              r"|(?P<op>\*\*|[*^+-]))")


def reference_parse_polynomial(text, var_names):
    """The polynomial grammar parsed in two passes, a tokenizer that matches
    one token at a time and a term loop over (kind, value) tokens: the
    reference that `polyring.parse_polynomial` must agree with."""
    nvars = len(var_names)
    index = {name: i for i, name in enumerate(var_names)}
    pos = 0
    tokens = []
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r} in polynomial")
            break
        pos = m.end()
        num = m.group("num")
        if num:
            top, _, bottom = num.partition("/")
            tokens.append(("num", Fraction(int(top), int(bottom)) if bottom else int(top)))
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op))

    terms = {}
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i] == ("op", "+") or i < n and tokens[i] == ("op", "-"):
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ParseError("dangling sign in polynomial")
        coeff = sign
        exps = [0] * nvars
        expect_factor = True
        while i < n:
            kind, val = tokens[i]
            if kind == "op" and val in "+-":
                break
            if kind == "op" and val == "*":
                if expect_factor:
                    raise ParseError("missing factor before '*'")
                i += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise ParseError("missing operator between factors")
            if kind == "num":
                coeff *= val
                i += 1
            elif kind == "name":
                if val not in index:
                    raise ParseError(f"unknown variable {val!r}")
                power = 1
                i += 1
                if i < n and tokens[i] == ("op", "^"):
                    i += 1
                    if i >= n or tokens[i][0] != "num" or not isinstance(tokens[i][1], int):
                        raise ParseError("exponent must be a nonnegative integer")
                    power = int(tokens[i][1])
                    i += 1
                exps[index[val]] += power
            else:
                raise ParseError(f"unexpected operator {val!r}")
            expect_factor = False
        if expect_factor:
            raise ParseError("empty term in polynomial")
        m = tuple(exps)
        terms[m] = terms.get(m, 0) + coeff
    return polynomial(terms, nvars)


class ReferencePolynomial:
    """The Fraction polynomial that `polyring.Polynomial` replaced, kept as
    the reference for its integer form: a finite map Monomial -> Fraction,
    zero coefficients never stored."""

    __slots__ = ("terms", "nvars")

    def __init__(self, terms, nvars):
        self.nvars = nvars
        self.terms = {m: c if type(c) is Fraction else Fraction(c)
                      for m, c in terms.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls({}, nvars)

    @classmethod
    def constant(cls, c, nvars):
        return cls({Monomial.unit(nvars): c}, nvars)

    @classmethod
    def variable(cls, i, nvars):
        return cls({Monomial.variable(i, nvars): Fraction(1)}, nvars)

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.degree for m in self.terms)

    def leading_monomial(self):
        return max(self.terms, key=Monomial.grevlex_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def sorted_terms(self, reverse=True):
        return sorted(self.terms.items(), key=lambda t: t[0].grevlex_key(), reverse=reverse)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other):
        if not isinstance(other, ReferencePolynomial):
            other = ReferencePolynomial.constant(other, self.nvars)
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        return ReferencePolynomial(acc, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return ReferencePolynomial({m: -c for m, c in self.terms.items()}, self.nvars)

    def __sub__(self, other):
        if not isinstance(other, ReferencePolynomial):
            other = ReferencePolynomial.constant(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return ReferencePolynomial.constant(other, self.nvars) - self

    def __mul__(self, other):
        if not isinstance(other, ReferencePolynomial):
            if other == 0:
                return ReferencePolynomial.zero(self.nvars)
            return ReferencePolynomial({m: c * other for m, c in self.terms.items()}, self.nvars)
        self._check(other)
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                acc[m] = acc.get(m, 0) + c1 * c2
        return ReferencePolynomial(acc, self.nvars)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / scalar)

    def __pow__(self, k):
        result = ReferencePolynomial.constant(Fraction(1), self.nvars)
        base = self
        k = int(k)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, ReferencePolynomial):
            return (self - ReferencePolynomial.constant(other, self.nvars)).is_zero()
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"ReferencePolynomial({reference_format(self)})"


def reference_evaluate(p, point):
    """`polyring.evaluate` on a ReferencePolynomial, as it was: float(c) of
    each Fraction coefficient at a float or complex point."""
    inexact = any(isinstance(x, (float, complex)) for x in point)
    total = 0.0 if inexact else 0
    for m, c in p.terms.items():
        v = float(c) if inexact else c
        for x, e in zip(point, m.exponents):
            if e:
                v = v * x ** e
        total = total + v
    return total


def reference_height(p):
    """(numerator bits, denominator bits) of a ReferencePolynomial over the
    lcm of its denominators, as `polyring.height` computed them."""
    if p.is_zero():
        return 0, 0
    nu = math.lcm(*(c.denominator for c in p.terms.values()))
    top = max(abs(c.numerator * (nu // c.denominator)) for c in p.terms.values())
    return top.bit_length(), nu.bit_length() if nu > 1 else 0


def reference_format(p, var_names=None):
    """`polyring.format_polynomial` on a ReferencePolynomial, as it was."""
    if var_names is None:
        var_names = [f"x{i + 1}" for i in range(p.nvars)]
    if p.is_zero():
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        factors = []
        for name, e in zip(var_names, m.exponents):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        negative = c < 0
        mag = -c if negative else c
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not parts:
            parts.append(f"-{text}" if negative else text)
        else:
            parts.append(f"- {text}" if negative else f"+ {text}")
    return " ".join(parts)


@pytest.fixture
def four_points():
    return load_problem("four_points.prob")


@pytest.fixture
def cusp_circle():
    return load_problem("cusp_circle.prob")


@pytest.fixture
def cusp_circle_shifted():
    return load_problem("cusp_circle_shifted.prob")


@pytest.fixture
def double_origin():
    return load_problem("double_origin.prob")
