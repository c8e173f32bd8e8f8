"""Zero-dimensional ideal machinery.

Gröbner bases (Buchberger, sugar selection), the monomial basis of the
quotient ring with multiplication matrices, normal forms, degree-aware
cofactor reduction against the *original* generators, the coprimality
witness (a, b, gamma) for the nonnegativity pipeline, and the quotient by
the radical on which the Hensel route certifies before its lift.

Normal forms come from one linear map over the quotient basis B (see
`QuotientRing`); full division by the Gröbner basis is left to what needs
its quotients or runs before the ring exists: Gröbner completion,
`cofactor_reduce` and the multiplication matrices of `monomial_basis`.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from fractions import Fraction

from . import exactla
from .errors import ConditionFailed, NotInvertible, NotZeroDimensional
from .polyring import Monomial, Polynomial, common_denominator, evaluate


def monomials_upto(nvars, max_degree):
    """All monomials of total degree <= max_degree, grevlex ascending."""
    out = []
    for degree in range(max_degree + 1):
        for bars in itertools.combinations(range(degree + nvars - 1), nvars - 1) if nvars > 1 else [()]:
            if nvars == 1:
                out.append(Monomial((degree,)))
                break
            exps = []
            prev = -1
            for b in bars:
                exps.append(b - prev - 1)
                prev = b
            exps.append(degree + nvars - 2 - prev)
            out.append(Monomial(exps))
    out.sort(key=Monomial.grevlex_key)
    return out


def _monic(p):
    return p * (Fraction(1) / p.leading_coefficient())


def divide(p, divisors):
    """Multivariate division: p = sum(q_i * divisors[i]) + remainder, with no
    remainder monomial divisible by any divisor's leading monomial."""
    quotients = [Polynomial.zero(p.nvars) for _ in divisors]
    remainder = Polynomial.zero(p.nvars)
    lead = [(d.leading_monomial(), d.leading_coefficient()) for d in divisors]
    work = p
    while not work.is_zero():
        t = work.leading_monomial()
        c = work.terms[t]
        for i, (lm, lc) in enumerate(lead):
            if lm.divides(t):
                factor = Polynomial({t / lm: c / lc}, p.nvars)
                quotients[i] = quotients[i] + factor
                work = work - factor * divisors[i]
                break
        else:
            mono = Polynomial({t: c}, p.nvars)
            remainder = remainder + mono
            work = work - mono
    return quotients, remainder


def _reduce(p, basis):
    return divide(p, basis)[1]


class IdealBasis:
    """Original generators h_j plus a Gröbner basis for the same ideal.

    `gb_cofactors[k][j]` expresses the k-th Gröbner element as
    sum_j gb_cofactors[k][j] * generators[j]; when `is_graded`, each of
    those products has degree <= the element's degree.  Both come from one
    dense solve per Gröbner element, done the first time either is read:
    only `cofactor_reduce` and the degree bound need them, so the radical
    and the ideal powers of the Hensel lift never pay for it.
    """

    def __init__(self, generators, gb, nvars):
        self.generators = generators
        self.gb = gb
        self.nvars = nvars

    @functools.cached_property
    def _cofactor_data(self):
        graded = True
        cofs = []
        for g in self.gb:
            start = [g.degree - h.degree for h in self.generators]
            r_j, caps = _express_in_generators(g, self.generators, start)
            graded = graded and caps == start
            cofs.append(r_j)
        return graded, cofs

    @property
    def is_graded(self):
        return self._cofactor_data[0]

    @property
    def gb_cofactors(self):
        return self._cofactor_data[1]

    def reduce(self, p):
        return _reduce(p, self.gb)

    def contains(self, other):
        """Membership of a polynomial, or containment of another ideal
        (every generator reduces to zero modulo self)."""
        if isinstance(other, Polynomial):
            return self.reduce(other).is_zero()
        return all(self.reduce(g).is_zero() for g in other.generators)


def _express_in_generators(g, generators, start_caps):
    """Solve g = sum r_j h_j with deg(r_j) <= cap_j, escalating the caps
    until the coefficient-matching system becomes feasible."""
    nvars = g.nvars
    caps = list(start_caps)
    while True:
        cols = []
        col_polys = []
        support_deg = max([g.degree] + [c + h.degree for c, h in zip(caps, generators) if c >= 0])
        support = monomials_upto(nvars, support_deg)
        index = {m: i for i, m in enumerate(support)}
        for j, h in enumerate(generators):
            if caps[j] < 0:
                continue
            for m in monomials_upto(nvars, caps[j]):
                prod = Polynomial({m: Fraction(1)}, nvars) * h
                col = [Fraction(0)] * len(support)
                for mm, c in prod.terms.items():
                    col[index[mm]] = c
                cols.append(col)
                col_polys.append((j, m))
        rhs = [Fraction(0)] * len(support)
        for mm, c in g.terms.items():
            rhs[index[mm]] = c
        a = exactla.transpose(cols) if cols else [[] for _ in support]
        sol = exactla.solve(a, rhs) if cols else (rhs if all(x == 0 for x in rhs) else None)
        if sol is not None:
            result = [Polynomial.zero(nvars) for _ in generators]
            if cols:
                for x, (j, m) in zip(sol, col_polys):
                    if x:
                        result[j] = result[j] + Polynomial({m: x}, nvars)
            return result, caps
        caps = [c + 1 for c in caps]


def groebner(generators):
    """Buchberger completion with sugar-strategy pair selection, followed by
    full inter-reduction.  The cofactors of the Gröbner elements over the
    original generators are left to `IdealBasis`, which computes them on
    first read."""
    gens = [p for p in generators if not p.is_zero()]
    if not gens:
        raise ValueError("empty generating set")
    nvars = gens[0].nvars
    basis = []
    sugars = []
    for p in gens:
        r = _reduce(p, basis) if basis else p
        if not r.is_zero():
            basis.append(_monic(r))
            sugars.append(r.degree)
    lead = [g.leading_monomial() for g in basis]
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
        s = (Polynomial({lcm / lm_i: Fraction(1)}, nvars) * basis[i]
             - Polynomial({lcm / lm_j: Fraction(1)}, nvars) * basis[j])
        r = _reduce(s, basis)
        if not r.is_zero():
            basis.append(_monic(r))
            lead.append(r.leading_monomial())
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
        reduced.append(_monic(_reduce(g, others)) if others else _monic(g))
    reduced.sort(key=lambda g: g.leading_monomial().grevlex_key())

    return IdealBasis(gens, reduced, nvars)


class Cofactors:
    """Exact identity nu * p = sum p_j h_j + nu * remainder with integer p_j."""

    def __init__(self, p_j, remainder, nu):
        self.p_j = p_j
        self.remainder = remainder
        self.nu = nu


class QuotientRing:
    """Finite-dimensional quotient by a zero-dimensional ideal.

    Every reduction modulo I goes through one linear map over the basis B:
    NF(p) = sum_m c_m NF(m), with NF(m) cached as a coefficient vector over
    B.  The cache starts from B's unit vectors and the border NF(x_k b) that
    `monomial_basis` reduces by division to build M_k; every other monomial
    follows from NF(x_k m) = M_k NF(m).  The map is the same for exact, float
    and complex coefficients.
    """

    def __init__(self, ideal, basis, mult_matrices):
        self.ideal = ideal
        self.basis = basis
        self.D = len(basis)
        self.mult_matrices = mult_matrices
        self.nvars = ideal.nvars
        self._index = {m: i for i, m in enumerate(basis)}
        self._nf_vectors = {m: self._unit(i) for i, m in enumerate(basis)}
        # 1 lies in B unless I is the unit ideal, where every vector is empty
        self._nf_vectors.setdefault(Monomial.unit(self.nvars), [])

    # -- normal forms -------------------------------------------------

    def _nf_monomial(self, m):
        path = []  # divide down to a cached monomial, then multiply back up
        while m not in self._nf_vectors:
            k = next(i for i, e in enumerate(m.exponents) if e)
            path.append((m, k))
            m = m / Monomial.variable(k, self.nvars)
        v = self._nf_vectors[m]
        for m, k in reversed(path):
            v = self._nf_vectors[m] = exactla.mat_vec(self.mult_matrices[k], v)
        return v

    def nf_vector(self, p):
        """Coefficient vector over B of the normal form of p."""
        acc = [Fraction(0)] * self.D
        for m, c in p.terms.items():
            for i, x in enumerate(self._nf_monomial(m)):
                if x:
                    acc[i] += c * x
        return acc

    def normal_form(self, p):
        """Normal form in span(B)."""
        return self.from_vector(self.nf_vector(p))

    def from_vector(self, v):
        return Polynomial({m: c for m, c in zip(self.basis, v)}, self.nvars)

    def mult_matrix(self, f):
        """Matrix of multiplication by f on the quotient, columns over B."""
        cols = [self.nf_vector(f * Polynomial({b: Fraction(1)}, self.nvars))
                for b in self.basis]
        return exactla.transpose(cols)

    def _unit(self, k):
        return [Fraction(1) if i == k else Fraction(0) for i in range(self.D)]

    def degree_of_basis(self):
        return max((m.degree for m in self.basis), default=0)

    @functools.cached_property
    def radical(self):
        """Generators of the radical ideal, computed once per ring."""
        return radical_generators(self)

    @functools.cached_property
    def is_radical(self):
        return not any(x for g in self.radical for x in self.nf_vector(g))

    @functools.cached_property
    def radical_ring(self):
        """The quotient by the radical, built once per ring; it is radical
        (Seidenberg's lemma), so it never computes a radical of its own."""
        ring = monomial_basis(groebner(self.radical))
        ring.is_radical = True
        return ring


def monomial_basis(ideal):
    """Standard monomials of the ideal, with multiplication matrices.

    The columns of M_k are NF(x_k b) for b in B, reduced here by division;
    they seed the ring's normal-form cache, so this is the ring's only
    reduction by division.  Raises NotZeroDimensional unless every variable
    has a pure power among the Gröbner leading monomials (the classical
    finiteness criterion).
    """
    nvars = ideal.nvars
    lead = [g.leading_monomial() for g in ideal.gb]
    if any(m.degree == 0 for m in lead):
        return QuotientRing(ideal, [], [[] for _ in range(nvars)])
    for i in range(nvars):
        if not any(all(e == 0 for k, e in enumerate(m.exponents) if k != i) for m in lead):
            raise NotZeroDimensional(f"no pure power of variable {i + 1} among leading terms")
    standard = []
    seen = set()
    queue = [Monomial.unit(nvars)]
    while queue:
        m = queue.pop()
        if m in seen:
            continue
        seen.add(m)
        if any(lm.divides(m) for lm in lead):
            continue
        standard.append(m)
        for i in range(nvars):
            queue.append(m * Monomial.variable(i, nvars))
    standard.sort(key=Monomial.grevlex_key)
    ring = QuotientRing(ideal, standard, None)
    cache = ring._nf_vectors
    mats = []
    for i in range(nvars):
        cols = []
        for b in standard:
            m = b * Monomial.variable(i, nvars)
            if m not in cache:
                nf = ideal.reduce(Polynomial({m: Fraction(1)}, nvars))
                cache[m] = [nf.coefficient(b2) for b2 in standard]
            cols.append(cache[m])
        mats.append(exactla.transpose(cols))
    ring.mult_matrices = mats
    return ring


def cofactor_reduce(ring, p):
    """Write nu*p = sum p_j h_j + nu*N(p) against the original generators.

    Division by the Gröbner basis gives degree-controlled quotients (the
    term order is degree-compatible); each Gröbner element is then replaced
    by its stored cofactors over the generators, so in the graded case
    deg(p_j) <= deg(p) - deg(h_j).
    """
    ideal = ring.ideal
    quotients, remainder = divide(p, ideal.gb)
    gens = ideal.generators
    rational = [Polynomial.zero(ring.nvars) for _ in gens]
    for q_g, cof in zip(quotients, ideal.gb_cofactors):
        if q_g.is_zero():
            continue
        for j, r_j in enumerate(cof):
            if not r_j.is_zero():
                rational[j] = rational[j] + q_g * r_j
    nu = common_denominator(c for poly in rational + [remainder] for c in poly.terms.values())
    return Cofactors([poly * nu for poly in rational], remainder, nu)


def coprimality_witness(ring, f):
    """Integer-scaled (a, b, gamma) with b*f = 0 and a*f + b = gamma mod I.

    Infeasibility of the underlying linear system means (I : f) + (f) is a
    proper ideal, i.e. no nonnegativity certificate of this shape exists.
    When `a` fails to be strictly positive at the roots where f vanishes,
    it is shifted by a power-of-two multiple of b (which equals gamma at
    those roots and 0 elsewhere on the variety).
    """
    D = ring.D
    if f.is_zero():
        if D == 0:
            return (Polynomial.zero(ring.nvars), Polynomial.zero(ring.nvars), 1)
        raise ConditionFailed("f = 0 admits no witness unless the ideal is trivial")
    nf = ring.normal_form(f)
    if D == 0:
        raise ConditionFailed("trivial quotient ring")
    m_f = ring.mult_matrix(nf)
    # unknowns: alpha (coefficients of a over B), then beta (of b)
    rows = []
    rhs = []
    const_index = ring._index[Monomial.unit(ring.nvars)]
    for r in range(D):
        row = [m_f[r][k] for k in range(D)]
        row += [Fraction(1) if k == r else Fraction(0) for k in range(D)]
        rows.append(row)
        rhs.append(Fraction(1) if r == const_index else Fraction(0))
    for r in range(D):
        row = [Fraction(0)] * D + [m_f[r][k] for k in range(D)]
        rows.append(row)
        rhs.append(Fraction(0))
    sol = exactla.solve(rows, rhs)
    if sol is None:
        raise ConditionFailed("(I : f) + (f) is not the unit ideal")
    a = ring.from_vector(sol[:D])
    b = ring.from_vector(sol[D:])

    # positivity of a where f vanishes on the variety
    if not a.is_zero() or not b.is_zero():
        from . import variety as _variety

        var = _variety.solve_variety(ring)
        f_float = f.to_float()
        a_float = a.to_float()
        zero_pts = []
        for pt in var.points:
            if pt.kind != "real":
                continue
            coords = [z.real for z in pt.coordinates]
            if abs(evaluate(f_float, coords)) <= var.tolerance * 100:
                zero_pts.append(coords)
        if zero_pts:
            vals = [evaluate(a_float, pt) for pt in zero_pts]
            if min(vals) <= 0:
                bound = max(abs(v) for v in vals) + 1
                rho = 1
                while rho <= bound:
                    rho *= 2
                a = a + b * rho

    # clear denominators into gamma
    nu = common_denominator(c for poly in (a, b) for c in poly.terms.values())
    return (a * nu, b * nu, nu)


def inverse_mod(ring, theta):
    """sigma with theta * sigma = 1 modulo the ideal, via an exact solve.

    Nothing in the pipeline calls this: the Hensel lift starts from the
    inverse 1 of 1.  Like `ideal_power_chain`, it is kept as the tests'
    reference and because the benchmark's tracer wraps it by name."""
    m = ring.mult_matrix(ring.normal_form(theta))
    one = [Fraction(0)] * ring.D
    one[ring._index[Monomial.unit(ring.nvars)]] = Fraction(1)
    sol = exactla.solve(m, one)
    if sol is None:
        raise NotInvertible("polynomial vanishes at a root of the ideal")
    return ring.from_vector(sol)


def ideal_power_chain(radical, target):
    """Quotient rings of J^2, J^4, ... up to the first power inside I.

    `radical` and `target` are IdealBasis values (J and I).  An empty chain
    means J itself is already contained in I (the radical case).  Nothing
    in the pipeline calls this: the Hensel lift runs in R/I itself.  It is
    kept as the reference the tests check that lift against, and because
    the benchmark's tracer wraps it by name.
    """
    if target.contains(radical):
        return []
    chain = []
    current_gens = list(radical.generators)
    while True:
        squared = []
        for i, g1 in enumerate(current_gens):
            for g2 in current_gens[i:]:
                squared.append(g1 * g2)
        ideal = groebner(squared)
        chain.append(monomial_basis(ideal))
        if target.contains(ideal):
            return chain
        current_gens = ideal.gb


# -- radical computation (univariate per variable) -------------------------


def _char_poly(m):
    """Characteristic polynomial coefficients (monic, high to low) of an
    exact matrix, by the Faddeev-LeVerrier recurrence."""
    d = len(m)
    coeffs = [Fraction(1)]
    n_mat = exactla.identity(d)
    for k in range(1, d + 1):
        mn = exactla.mat_mul(m, n_mat)
        c = -sum(mn[i][i] for i in range(d)) / k
        coeffs.append(c)
        for i in range(d):
            mn[i][i] += c
        n_mat = mn
    return coeffs


def _poly_gcd(a, b):
    """Monic gcd of univariate polynomials given as high-to-low Fraction lists."""

    def strip(p):
        i = 0
        while i < len(p) and p[i] == 0:
            i += 1
        return p[i:]

    def rem(p, q):
        p = p[:]
        while len(p) >= len(q) and p:
            f = p[0] / q[0]
            for i in range(len(q)):
                p[i] -= f * q[i]
            p = strip(p[1:] if p[0] == 0 else p)
            if p and p[0] == 0:
                p = strip(p)
        return p

    a, b = strip(a), strip(b)
    while b:
        a, b = b, rem(a, b)
    if not a:
        return []
    return [c / a[0] for c in a]


def _squarefree_part(coeffs):
    """Squarefree part of a monic univariate polynomial (high-to-low list)."""
    d = len(coeffs) - 1
    deriv = [coeffs[i] * (d - i) for i in range(d)]
    g = _poly_gcd(coeffs, deriv)
    if len(g) <= 1:
        return coeffs
    # exact division coeffs / g
    q = []
    r = coeffs[:]
    while len(r) >= len(g):
        f = r[0] / g[0]
        q.append(f)
        for i in range(len(g)):
            r[i] -= f * g[i]
        r = r[1:]
    return q


def radical_generators(ring):
    """Generators of the radical: the ideal plus the squarefree part of the
    characteristic polynomial of each multiplication matrix (Seidenberg's
    lemma).  Callers use the cached `QuotientRing.radical`."""
    gens = list(ring.ideal.generators)
    for i in range(ring.nvars):
        coeffs = _squarefree_part(_char_poly(ring.mult_matrices[i]))
        d = len(coeffs) - 1
        xi = Polynomial.variable(i, ring.nvars)
        p = Polynomial.zero(ring.nvars)
        for k, c in enumerate(coeffs):
            if c:
                p = p + Polynomial.constant(c, ring.nvars) * xi ** (d - k)
        gens.append(p)
    return gens
