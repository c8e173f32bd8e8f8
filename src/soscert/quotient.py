"""Zero-dimensional ideal machinery.

Gröbner bases (Buchberger, sugar selection), the quotient ring on the
monomial basis, which builds its tables (multiplication matrices, normal
forms, products, radical) on first read, degree-aware cofactor reduction
against the *original* generators, the coprimality witness (a, b, gamma)
for the nonnegativity pipeline, and the quotient by the radical J on
which the Hensel route certifies before its lift.

J is read off the trace form H1[i][j] = Tr(M_{b_i b_j}) of R/I: its
kernel is the nilradical (`radical_generators`).  H1 is first eliminated
modulo a 61-bit prime, where full rank proves I radical with no rational
arithmetic; only when that test fails, as it does on every non-radical
ring, does one exact nullspace give J.  Every float step (root solving, the
witness's roots, the Gram matrix) sees only R/J, where each root is simple.

A ring vector, the coefficients over the quotient basis B of a normal
form, has one form: a pair (ints, den) of integers over one positive
denominator, in lowest terms.  Normal forms, the product table and the
multiplication matrices all use it; only the solutions that `exactla`
returns are in Fractions.  Every product of two elements of R/I is read
off the product table (`QuotientRing.mul`), and so is the matrix of
multiplication by one (`QuotientRing.mult_matrix`).  Normal forms come
from one linear map over B (see `QuotientRing`), whose border the tails of
the reduced Gröbner basis give; full division by the Gröbner basis
(`divide`, on a heap of exponent tuples) is left to what needs its
quotients or runs before the ring exists: Gröbner completion and
`cofactor_reduce`.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from fractions import Fraction

from . import exactla
from .errors import ConditionFailed, NotInvertible, NotZeroDimensional
from .polyring import Monomial, Polynomial, common_denominator, evaluate, integral


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
    remainder monomial divisible by any divisor's leading monomial.

    The working polynomial is a dict keyed by exponent tuples, changed in
    place.  Its leading term comes off a heap keyed (-degree, exponents),
    which is grevlex-descending (see `Monomial.grevlex_key`); each monomial
    is queued at most once, and one whose coefficient cancelled is skipped
    when it is popped.  A popped monomial never comes back, since every
    term a step adds is below the leading term it removes."""
    nvars = p.nvars
    quotients = [{} for _ in divisors]
    split = []  # (leading exponents, leading coefficient, tail terms, quotient)
    for d, q in zip(divisors, quotients):
        lm = d.leading_monomial()
        split.append((lm.exponents, d.terms[lm],
                      [(m.exponents, c) for m, c in d.terms.items() if m != lm], q))
    work = {m.exponents: c for m, c in p.terms.items()}
    heap = [(-sum(e), e) for e in work]
    heapq.heapify(heap)
    queued = set(work)
    remainder = {}
    while heap:
        t = heapq.heappop(heap)[1]
        queued.remove(t)
        c = work.pop(t, None)
        if c is None:
            continue
        for lead, lc, tail, q in split:
            if all(a <= b for a, b in zip(lead, t)):
                shift = tuple(b - a for a, b in zip(lead, t))
                factor = c if lc == 1 else c / lc
                q[shift] = factor
                for e, dc in tail:
                    m = tuple(a + b for a, b in zip(e, shift))
                    v = work.get(m, 0) - factor * dc
                    if v:
                        work[m] = v
                        if m not in queued:
                            queued.add(m)
                            heapq.heappush(heap, (-sum(m), m))
                    else:
                        del work[m]
                break
        else:
            remainder[t] = c
    return ([Polynomial({Monomial(e): c for e, c in q.items()}, nvars) for q in quotients],
            Polynomial({Monomial(e): c for e, c in remainder.items()}, nvars))


def _reduce(p, basis):
    return divide(p, basis)[1]


class IdealBasis:
    """Original generators h_j plus a Gröbner basis for the same ideal.

    `is_graded` holds when the generators form a graded basis (an H-basis):
    every p in the ideal is sum_j r_j h_j with deg(r_j h_j) <= deg(p).  That
    holds exactly when the top-degree forms top(h_j) generate top(I), the
    ideal of the top-degree forms of all of I.  Grevlex is
    degree-compatible, so in(top(I)) = in(I), and since (top(h_j)) lies in
    top(I), the two are equal exactly when every leading monomial of the
    Gröbner basis is divisible by one of a Gröbner basis of the top forms.

    `gb_cofactors[k][j]` expresses the k-th Gröbner element as
    sum_j gb_cofactors[k][j] * generators[j], with degrees bounded as above
    when `is_graded`.  It costs one integer solve per Gröbner element (see
    `_express_in_generators`), done the first time it is read: only
    `cofactor_reduce` needs it, so neither `verify` nor the ring of the
    radical pays for it.
    """

    def __init__(self, generators, gb, nvars):
        self.generators = generators
        self.gb = gb
        self.nvars = nvars

    @functools.cached_property
    def is_graded(self):
        tops = [Polynomial({m: c for m, c in h.terms.items() if m.degree == h.degree}, self.nvars)
                for h in self.generators]
        top_lead = [g.leading_monomial() for g in groebner(tops).gb]
        return all(any(t.divides(g.leading_monomial()) for t in top_lead) for g in self.gb)

    @functools.cached_property
    def gb_cofactors(self):
        return [_express_in_generators(g, self.generators,
                                       [g.degree - h.degree for h in self.generators])
                for g in self.gb]

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
    until the coefficient-matching system becomes feasible.

    The system is in integers.  Each h_j, scaled to integer coefficients
    L_j h_j, is shifted by the monomials u of degree <= cap_j (grevlex
    ascending): the columns are the u L_j h_j, by j and then by u, the
    right-hand side is L_g g, and there is one row per monomial that occurs.
    A solution y of that system gives r_j = sum_u y_(j,u) (L_j / L_g) u."""
    nvars = g.nvars
    target, target_den = integral(g)
    scaled = [integral(h) for h in generators]
    caps = list(start_caps)
    while True:
        cols = [(j, u.exponents) for j, cap in enumerate(caps) for u in monomials_upto(nvars, cap)]
        index = {e: i for i, e in enumerate(target)}  # row of each monomial
        entries = [(index.setdefault(tuple(map(operator.add, e, u)), len(index)), col, c)
                   for col, (j, u) in enumerate(cols) for e, c in scaled[j][0].items()]
        a = [[0] * len(cols) for _ in index]
        for r, col, c in entries:
            a[r][col] = c
        sol = exactla.solve(a, list(target.values()) + [0] * (len(index) - len(target)))
        if sol is not None:
            terms = [{} for _ in generators]
            for x, (j, u) in zip(sol, cols):
                if x:
                    terms[j][Monomial(u)] = x * Fraction(scaled[j][1], target_den)
            return [Polynomial(t, nvars) for t in terms]
        caps = [c + 1 for c in caps]


def groebner(generators):
    """Buchberger completion with sugar-strategy pair selection, followed by
    full inter-reduction.  The cofactors of the Gröbner elements over the
    original generators are left to `IdealBasis`, which computes them on
    first read."""
    gens = [p for p in generators if not p.is_zero()]
    if not gens:
        raise NotZeroDimensional("every equation is 0: the ideal (0) has infinitely many zeros")
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
    """Exact identity p = sum p_j h_j + remainder."""

    def __init__(self, p_j, remainder):
        self.p_j = p_j
        self.remainder = remainder


class QuotientRing:
    """Finite-dimensional quotient by a zero-dimensional ideal.

    Every reduction modulo I goes through one linear map over the basis B:
    NF(p) = sum_m c_m NF(m), with NF(m) cached as a ring vector (ints, den)
    over B, keyed by the exponents of m.  The cache starts from B's unit
    vectors; the first monomial outside B builds `mult_matrices`, whose
    border NF(x_k b) comes from the tails of the reduced Gröbner basis, and
    every other monomial follows from NF(x_k m) = M_k NF(m), computed as
    A_k NF(m) / d_k with M_k = A_k / d_k in integers.  A product of two
    ring vectors (`mul`) reads the table `products` of the NF(b_i b_j).
    """

    def __init__(self, ideal, basis):
        self.ideal = ideal
        self.basis = basis
        self.D = len(basis)
        self.nvars = ideal.nvars
        self._nf_vectors = {m.exponents: ([int(i == k) for i in range(self.D)], 1)
                            for k, m in enumerate(basis)}
        # NF(1): 1 lies in B unless I is the unit ideal, where every vector is empty
        self.unit = self._nf_vectors.setdefault((0,) * self.nvars, ([], 1))

    # -- normal forms -------------------------------------------------

    def _nf_monomial(self, e):
        """NF of the monomial with exponents e."""
        path = []  # divide down to a cached monomial, then multiply back up
        while e not in self._nf_vectors:
            k = next(i for i, x in enumerate(e) if x)
            path.append((e, k))
            e = e[:k] + (e[k] - 1,) + e[k + 1:]
        v = self._nf_vectors[e]
        for e, k in reversed(path):
            rows, d = self.mult_matrices[k]
            v = self._nf_vectors[e] = _lowest([sum(map(operator.mul, row, v[0])) for row in rows],
                                              v[1] * d)
        return v

    def _nf_from_tails(self, e, reducers):
        """NF of the monomial with exponents e, with no division: for
        x^e = x^u lm(g), g monic in the reduced Gröbner basis,
        NF(x^e) = -sum_t c_t NF(x^u t) over the tail terms c_t t of g.  Each
        x^u t is below x^e in grevlex, so the stack, which computes them
        first, empties.  `reducers` holds each (lm(g), [(t, -c_t)]) by
        exponents; any g whose lm divides x^e gives the same normal form."""
        cache = self._nf_vectors
        stack = [e]
        while stack:
            top = stack[-1]
            if top in cache:
                stack.pop()
                continue
            lead, tail = next(r for r in reducers if all(map(operator.le, r[0], top)))
            shift = tuple(map(operator.sub, top, lead))
            below = [tuple(map(operator.add, t, shift)) for t, _ in tail]
            missing = [m for m in below if m not in cache]
            if missing:
                stack += missing
            else:
                cache[top] = combine([(c, *cache[m]) for (_, c), m in zip(tail, below)], self.D)
                stack.pop()
        return cache[e]

    def nf_vector(self, p):
        """The normal form of p as a ring vector (ints, den) over B."""
        return combine([(c, *self._nf_monomial(m.exponents)) for m, c in p.terms.items()], self.D)

    def normal_form(self, p):
        """Normal form in span(B)."""
        return self.from_vector(*self.nf_vector(p))

    def from_vector(self, v, den=1):
        """The polynomial sum_i (v_i / den) b_i."""
        return Polynomial({m: Fraction(x, den) for m, x in zip(self.basis, v) if x}, self.nvars)

    def mul(self, u, v):
        """The product of the ring vectors u and v, sum_ij u_i v_j NF(b_i b_j)
        from the product table."""
        (us, ud), (vs, vd) = u, v
        table = self.products
        ints, den = combine([(x * y, *table[i][j]) for i, x in enumerate(us) if x
                             for j, y in enumerate(vs) if y], self.D)
        return _lowest(ints, den * ud * vd)

    def mult_matrix(self, v):
        """Multiplication by the ring vector v, as (integer rows of A, d)
        with M_v = A / d: column j is v b_j = sum_i v_i NF(b_i b_j)."""
        return _matrix(self.mul(v, self._nf_vectors[b.exponents]) for b in self.basis)

    def degree_of_basis(self):
        return max((m.degree for m in self.basis), default=0)

    @functools.cached_property
    def mult_matrices(self):
        """M_k, multiplication by x_k, as (integer rows of A_k, d_k) with
        M_k = A_k / d_k, d_k the lcm of the denominators of its columns
        NF(x_k b).  On first read, each border monomial x_k b outside B gets
        its normal form from the Gröbner tails (`_nf_from_tails`)."""
        reducers = []
        for g in self.ideal.gb:
            lm = g.leading_monomial()
            reducers.append((lm.exponents, [(m.exponents, -c) for m, c in g.terms.items() if m != lm]))
        mats = []
        for k in range(self.nvars):
            x_k = Monomial.variable(k, self.nvars)
            mats.append(_matrix(self._nf_from_tails((b * x_k).exponents, reducers)
                                for b in self.basis))
        return mats

    @functools.cached_property
    def products(self):
        """products[i][j] = NF(b_i b_j), a ring vector over B: the product
        table that the radical, the Gram set and the SDP constraints read."""
        return [[self._nf_monomial((bi * bj).exponents) for bj in self.basis] for bi in self.basis]

    @functools.cached_property
    def radical(self):
        """Generators of the radical ideal, computed once per ring."""
        return radical_generators(self)

    @functools.cached_property
    def is_radical(self):
        """Exact: the radical adds a generator unless the kernel is empty."""
        return len(self.radical) == len(self.ideal.generators)

    @functools.cached_property
    def radical_ring(self):
        """The quotient by the radical, built once per ring: the ring itself
        when I is radical.  J is radical, so its ring never computes a
        radical of its own."""
        if self.is_radical:
            return self
        ring = monomial_basis(groebner(self.radical))
        ring.is_radical = True
        return ring


def combine(terms, size):
    """The ring vector sum_t c_t v_t / d_t of the rationals c_t and the ring
    vectors (v_t, d_t) of the terms (c_t, v_t, d_t), each of length size."""
    den = math.lcm(*(c.denominator * d for c, _, d in terms))
    acc = [0] * size
    for c, v, d in terms:
        s = c.numerator * (den // (c.denominator * d))
        acc = [a + s * x if x else a for a, x in zip(acc, v)]
    return _lowest(acc, den)


def _matrix(cols):
    """(integer rows of A, d) with A / d the matrix whose columns are the
    ring vectors cols, d the lcm of their denominators."""
    cols = list(cols)
    d = math.lcm(*(den for _, den in cols))
    return exactla.transpose([[x * (d // den) for x in ints] for ints, den in cols]), d


def _lowest(ints, den):
    """The ring vector ints / den in lowest terms."""
    g = math.gcd(den, *ints)
    if g > 1:
        return [x // g for x in ints], den // g
    return ints, den


def monomial_basis(ideal):
    """The quotient ring on the standard monomials of the ideal, which
    builds its multiplication matrices on first read.  Raises
    NotZeroDimensional unless every variable has a pure power among the
    Gröbner leading monomials (the classical finiteness criterion); the
    unit ideal has 1 as a leading monomial, so its basis is empty.
    """
    nvars = ideal.nvars
    lead = [g.leading_monomial() for g in ideal.gb]
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
        queue.extend(m * Monomial.variable(i, nvars) for i in range(nvars))
    standard.sort(key=Monomial.grevlex_key)
    return QuotientRing(ideal, standard)


def cofactor_reduce(ring, p):
    """Write p = sum p_j h_j + N(p) against the original generators.

    Division by the Gröbner basis gives degree-controlled quotients (the
    term order is degree-compatible); each Gröbner element is then replaced
    by its stored cofactors over the generators, so in the graded case
    deg(p_j) <= deg(p) - deg(h_j).
    """
    ideal = ring.ideal
    quotients, remainder = divide(p, ideal.gb)
    gens = ideal.generators
    p_j = [Polynomial.zero(ring.nvars) for _ in gens]
    for q_g, cof in zip(quotients, ideal.gb_cofactors):
        if q_g.is_zero():
            continue
        for j, r_j in enumerate(cof):
            if not r_j.is_zero():
                p_j[j] = p_j[j] + q_g * r_j
    return Cofactors(p_j, remainder)


def coprimality_witness(ring, f, roots):
    """Integer-scaled (a, b, gamma) with b*f = 0 and a*f + b = gamma mod I.

    Before denominators are cleared, a f + b = 1 and b f = 0 is one D x D
    solve: it holds exactly when a f^2 = f and b = 1 - a f.  No solution
    means (I : f) + (f) is a proper ideal, so no nonnegativity certificate
    of this shape exists; f = 0 gives a = 0, b = 1.  As b^2 = b mod I, b is
    exactly 1 at the zeros of f on the variety and 0 elsewhere: the real
    zeros of f are the real roots where b > 1/2, from `roots()` (the points
    of ring.radical_ring) only when b != 0; where `a` is not strictly
    positive at those zeros, it is shifted by a power-of-two multiple of b.
    """
    nf = ring.nf_vector(f)
    rows, d = ring.mult_matrix(ring.mul(nf, nf))
    sol = exactla.solve(rows, [Fraction(d * x, nf[1]) for x in nf[0]])
    if sol is None:
        raise ConditionFailed("(I : f) + (f) is not the unit ideal")
    den = common_denominator(sol)
    a_vec = [x.numerator * (den // x.denominator) for x in sol], den
    a = ring.from_vector(*a_vec)
    b = ring.from_vector(*combine([(1, *ring.unit), (-1, *ring.mul(a_vec, nf))], ring.D))

    # positivity of a where f vanishes on the variety
    if not b.is_zero():
        var = roots()
        reals = ([z.real for z in pt.coordinates] for pt in var.points if pt.kind == "real")
        zero_pts = [coords for coords in reals if evaluate(b, coords) > 0.5]
        if zero_pts:
            vals = [evaluate(a, pt) for pt in zero_pts]
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

    Nothing in the pipeline calls this: the Hensel lift is a series with no
    inverse.  Like `ideal_power_chain`, it is kept as the tests' reference,
    forming each theta b_j as a Polynomial product, and because the
    benchmark's tracer wraps it by name."""
    rows, d = _matrix(ring.nf_vector(theta * Polynomial({b: 1}, ring.nvars)) for b in ring.basis)
    sol = exactla.solve(rows, [d * x for x in ring.unit[0]])
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


# -- radical computation (kernel of the trace form) ------------------------

# A Mersenne prime: H1 of full rank modulo it has det H1 != 0 over Q.
PRIME = (1 << 61) - 1


def radical_generators(ring):
    """Generators of the radical J: the ideal plus sum_i c_i b_i for a basis
    c of the kernel of the trace form H1[i][j] = Tr(M_{b_i b_j}).  In
    characteristic 0 that kernel is the nilradical of R/I (Becker-Woermann;
    Pedersen-Roy-Szpirglas), so I is radical exactly when it is empty.
    Tr(M_p) = t . NF(p) with t_k = Tr(M_{b_k}) = sum_i NF(b_k b_i)[i], and
    every NF(b_i b_j) comes from the ring's product table.  H1 is first
    eliminated modulo PRIME: full rank there proves the kernel empty, and
    only otherwise is the rational kernel computed.  Callers use the cached
    `QuotientRing.radical`."""
    products = ring.products
    if _nonsingular_mod_p(products):
        return list(ring.ideal.generators)
    t = [sum(Fraction(v[i], d) for i, (v, d) in enumerate(row)) for row in products]
    h1 = [[Fraction(sum(x * y for x, y in zip(v, t) if x), d) for v, d in row] for row in products]
    return list(ring.ideal.generators) + [ring.from_vector(c) for c in exactla.nullspace(h1)]


def _nonsingular_mod_p(products):
    """True when H1 = (NF(b_i b_j) . t) has full rank modulo PRIME, so that
    det H1 != 0 over Q.  False when the rank there falls short, or when a
    denominator of the table is 0 modulo PRIME, so that H1 has no
    reduction modulo PRIME: neither proves anything."""
    p = PRIME
    distinct = {id(e): e for row in products for e in row}  # equal b_i b_j share one
    try:
        inverse = {key: pow(d, -1, p) for key, (_, d) in distinct.items()}
    except ValueError:  # pow found a denominator that is 0 modulo PRIME
        return False
    t_p = [sum(e[0][i] * inverse[id(e)] for i, e in enumerate(row)) % p for row in products]
    traces = {key: sum(x * y for x, y in zip(v, t_p) if x) * inverse[key] % p
              for key, (v, _) in distinct.items()}
    h1 = [[traces[id(e)] for e in row] for row in products]
    for c in range(len(h1)):
        r = next((r for r in range(c, len(h1)) if h1[r][c]), None)
        if r is None:
            return False
        h1[c], h1[r] = h1[r], h1[c]
        pivot = h1[c]
        inv = pow(pivot[c], -1, p)
        for row in h1[c + 1:]:
            if row[c]:
                f = row[c] * inv % p
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], pivot[c:])]
    return True
