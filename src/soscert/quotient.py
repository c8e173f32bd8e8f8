"""Zero-dimensional ideal machinery.

Gröbner bases (Buchberger, sugar selection), the quotient ring on the
monomial basis, which builds its tables (multiplication matrices, normal
forms, products, radical) on first read, degree-aware cofactor reduction
against the *original* generators, the coprimality witness (a, b, gamma)
for the nonnegativity pipeline, and the quotient by the radical J on
which a non-radical ring's strict route takes its Gram step before the
Hensel lift.

Two exact tests give J (`radical_generators`).  When I holds a squarefree
polynomial in each variable alone, as every grid and cube ideal does, I
is radical (Seidenberg's lemma), and neither the product table nor H1 is
read: one integer Sturm chain per such polynomial (`sturm`) proves it
squarefree and counts its real roots, so it also decides whether every
point is real.  On every other ring J is I plus the exact kernel of the
trace form H1[i][j] = Tr(M_{b_i b_j}) of R/I, the nilradical; H1 is built
once (`QuotientRing.trace_form`), as an integer matrix over one positive
denominator, and its signature counts the real points.  Every float step
(root solving, the witness's roots, the Gram matrix) sees only R/J, where
each root is simple.  When the reduced Gröbner basis is one polynomial in
each variable alone (`QuotientRing.grid`), B is a grid of exponents, and a
product of univariate polynomials is read onto it with no reduction
(`QuotientRing.grid_vector`): the idempotents of rational points.

A ring vector, the coefficients over the quotient basis B of a normal
form, has one form: a pair (ints, den) of integers over one positive
denominator, in lowest terms.  Normal forms, the product table, the
multiplication matrices and the solutions of `exactla` all use it.  Every
product of two elements of R/I is read off the nonzero entries of the
product table (`QuotientRing.mul`), and so is the matrix of multiplication
by one (`QuotientRing.mult_matrix`).  Normal forms come
from one linear map over B (see `QuotientRing`), and the normal form of
each monomial from the tails of the reduced Gröbner basis only; the
multiplication matrices by the variables are read off those normal forms
for the root solver alone.  Full division by a Gröbner basis is left to
what needs its quotients or runs before the ring exists, Gröbner
completion, `IdealBasis.contains` and `cofactor_reduce`, and it runs in
integers: one kernel (`_divide`) divides integer polynomials keyed by
exponent tuples, `polyring.add_product` multiplies them, and Buchberger
keeps its basis as primitive integer polynomials.  A polynomial is itself
integers over one denominator (see `polyring`), so every reduction takes
its input as it is and hands out its remainder and cofactors p_j in that
form: none makes a Fraction.
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
from .polyring import Polynomial, add_product, grevlex


def _order_ideal(nvars, inside):
    """The exponent tuples e with inside(e), grevlex ascending, for a
    predicate that holds at finitely many tuples and, with any tuple, at
    all of its divisors.  The search reaches each tuple once, from e / x_k
    with x_k the last variable that divides e."""
    zero = (0,) * nvars
    out = []
    stack = [(zero, 0)] if inside(zero) else []
    while stack:
        e, first = stack.pop()
        out.append(e)
        for k in range(first, nvars):
            up = e[:k] + (e[k] + 1,) + e[k + 1:]
            if inside(up):
                stack.append((up, k))
    out.sort(key=grevlex)
    return out


def monomials_upto(nvars, max_degree):
    """The exponent tuples of total degree <= max_degree, grevlex ascending."""
    return _order_ideal(nvars, lambda e: sum(e) <= max_degree)


def _divide(work, reducers):
    """Multivariate division in integers: scale * work = sum_i q_i r_i +
    remainder, with no remainder monomial divisible by the leading
    monomial of any reducer r_i, an integer polynomial given as the triple
    (leading exponents, leading coefficient, tail terms).  `work` is
    {exponents: int}, changed in place.  Returns the integer quotients q_i,
    the integer remainder and the positive integer scale.

    The leading term comes off a heap keyed (-degree, exponents), which is
    grevlex-descending (see `polyring.grevlex`), so the remainder's
    first key is its leading monomial.  Each monomial is queued at most
    once, one whose coefficient cancelled is skipped when popped, and a
    popped one never comes back: every term a step adds is below the term
    it removes.  The first reducer whose leading monomial divides the term
    removes it; when its leading coefficient lc does not divide the term's
    coefficient c, the working polynomial is first multiplied by
    lc / gcd(c, lc).  Quotient and remainder terms are kept with the scale
    they were written at and brought to the final scale at the end."""
    split = [(lead, lc, tail, {}) for lead, lc, tail in reducers]
    heap = [(-sum(e), e) for e in work]
    heapq.heapify(heap)
    queued = set(work)
    remainder = {}
    scale = 1
    while heap:
        t = heapq.heappop(heap)[1]
        queued.remove(t)
        c = work.pop(t, None)
        if c is None:
            continue
        for lead, lc, tail, q in split:
            if all(map(operator.le, lead, t)):
                if c % lc:
                    m = abs(lc) // math.gcd(c, lc)
                    scale *= m
                    c *= m
                    for e in work:
                        work[e] *= m
                factor = c // lc
                shift = tuple(map(operator.sub, t, lead))
                q[shift] = factor, scale
                for e, dc in tail:
                    m = tuple(map(operator.add, e, shift))
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
            remainder[t] = c, scale

    def rescaled(terms):
        return {e: c * (scale // s) for e, (c, s) in terms.items()}
    return [rescaled(q) for *_, q in split], rescaled(remainder), scale


class IdealBasis:
    """Original generators h_j, zeros kept, plus a Gröbner basis for the same ideal.

    The basis has one form, `reducers`: the reduced Gröbner basis as
    primitive integer polynomials (leading coefficient positive), as the
    triples of `_divide`.  `cofactor_reduce` and `contains` divide by
    those, `QuotientRing` reads the normal forms of monomials off their
    tails, and the standard monomials, `is_graded` and `gb_cofactors` read
    their leading exponents.  `gb`, the same basis as monic polynomials,
    is made on first read, for the tests and `ideal_power_chain` alone.

    `is_graded` holds when the generators form a graded basis (an H-basis):
    every p in the ideal is sum_j r_j h_j with deg(r_j h_j) <= deg(p).  That
    holds exactly when the top-degree forms top(h_j) generate top(I), the
    ideal of the top-degree forms of all of I.  Grevlex is
    degree-compatible, so in(top(I)) = in(I), and since (top(h_j)) lies in
    top(I), the two are equal exactly when every leading monomial of the
    Gröbner basis is divisible by one of a Gröbner basis of the top forms.

    `gb_cofactors[k]` is (rows, den), with the k-th Gröbner element equal
    to sum_j rows[j] * generators[j] / den, each rows[j] an integer
    polynomial {exponents: int}, with degrees bounded as above when
    `is_graded`.  An element that is a scalar multiple of a generator,
    g = h_j / lc(h_j), has that scalar as its row; each other element
    costs one integer solve (see `_express_in_generators`).  The rows are
    built the first time they are read: only `cofactor_reduce` needs them,
    so neither `verify` nor the ring of the radical pays for them.
    """

    def __init__(self, generators, nvars, reducers):
        self.generators = generators
        self.nvars = nvars
        self.reducers = reducers

    @functools.cached_property
    def gb(self):
        return [Polynomial({lead: lc, **dict(tail)}, lc, self.nvars)
                for lead, lc, tail in self.reducers]

    @functools.cached_property
    def is_graded(self):
        tops = [Polynomial({e: c for e, c in h.ints.items() if sum(e) == h.degree}, h.den,
                           self.nvars) for h in self.generators]
        top_lead = [lead for lead, _, _ in groebner(tops).reducers]
        return all(any(all(map(operator.le, t, lead)) for t in top_lead)
                   for lead, _, _ in self.reducers)

    @functools.cached_property
    def gb_cofactors(self):
        rows = []
        for reducer in self.reducers:
            lead, lc, tail = reducer
            j = next((j for j, h in enumerate(self.generators)
                      if len(h.ints) == len(tail) + 1 and lead in h.ints
                      and all(h.ints.get(e, 0) * lc == c * h.ints[lead] for e, c in tail)), None)
            if j is None:
                rows.append(_express_in_generators(
                    reducer, self.generators, [sum(lead) - h.degree for h in self.generators]))
                continue
            # h_j = H / L_j, H its integers, is a multiple of g: g = h_j L_j / H[lead]
            h = self.generators[j]
            row = [{} for _ in self.generators]
            row[j] = {(0,) * self.nvars: h.den if h.ints[lead] > 0 else -h.den}
            rows.append((row, abs(h.ints[lead])))
        return rows

    def contains(self, other):
        """Membership of a polynomial, or containment of another ideal
        (every generator reduces to zero modulo self)."""
        polys = [other] if isinstance(other, Polynomial) else other.generators
        return not any(_divide(dict(p.ints), self.reducers)[1] for p in polys)


def _express_in_generators(reducer, generators, start_caps):
    """Solve g = sum r_j h_j with deg(r_j) <= cap_j for the monic Gröbner
    element g = r / lc of the integer `reducer` r, escalating the caps until
    the coefficient-matching system becomes feasible; returns the r_j as a
    `gb_cofactors` row (rows, den), r_j = rows[j] / den.

    The system is in integers.  Each h_j, scaled to integer coefficients
    L_j h_j, is shifted by the monomials u of degree <= cap_j (grevlex
    ascending): the columns are the u L_j h_j, by j and then by u, the
    right-hand side is r = lc g, and there is one row per monomial that
    occurs.  A solution y = ys / den of that system gives
    r_j = sum_u ys_(j,u) L_j / (den lc) u."""
    lead, target_den, tail = reducer
    nvars = len(lead)
    target = {lead: target_den, **dict(tail)}
    caps = list(start_caps)
    while True:
        cols = [(j, u) for j, cap in enumerate(caps) for u in monomials_upto(nvars, cap)]
        index = {e: i for i, e in enumerate(target)}  # row of each monomial
        entries = [(index.setdefault(tuple(map(operator.add, e, u)), len(index)), col, c)
                   for col, (j, u) in enumerate(cols) for e, c in generators[j].ints.items()]
        a = [[0] * len(cols) for _ in index]
        for r, col, c in entries:
            a[r][col] = c
        sol = exactla.solve(a, list(target.values()) + [0] * (len(index) - len(target)))
        if sol is not None:
            xs, den = sol
            rows = [{} for _ in generators]
            for x, (j, u) in zip(xs, cols):
                if x:
                    rows[j][u] = x * generators[j].den
            return rows, den * target_den
        caps = [c + 1 for c in caps]


def _primitive_remainder(terms, basis):
    """The remainder of the integer polynomial `terms` by `basis`, made
    primitive with a positive leading coefficient, as a `_divide`
    triple, or None when it is zero."""
    remainder = _divide(terms, basis)[1]
    if not remainder:
        return None
    lead, lc = next(iter(remainder.items()))  # `_divide` writes the leading term first
    content = math.gcd(*remainder.values()) * (1 if lc > 0 else -1)
    return lead, lc // content, [(e, c // content) for e, c in remainder.items() if e != lead]


def groebner(generators):
    """Buchberger completion with sugar-strategy pair selection, followed by
    full inter-reduction, on primitive integer polynomials: an integer
    remainder is a positive multiple of the Fraction one, so every step
    matches Buchberger on monic polynomials, and the reduced basis, which
    is unique, is kept with each element made primitive.  The cofactors of
    the Gröbner elements over the original generators are left to
    `IdealBasis`, which computes them on first read."""
    gens = [p for p in generators if not p.is_zero()]  # a zero adds nothing to the ideal
    if not gens:
        raise NotZeroDimensional("every equation is 0: the ideal (0) has infinitely many zeros")
    nvars = gens[0].nvars
    basis = []  # `_divide` triples
    sugars = []
    for p in gens:
        r = _primitive_remainder(dict(p.ints), basis)
        if r:
            basis.append(r)
            sugars.append(sum(r[0]))
    pairs = []  # heap of (sugar, grevlex key of the lcm, i, j), keyed once

    def add_pairs(k):
        lead_k = basis[k][0]
        for i in range(k):
            lead_i = basis[i][0]
            lcm = tuple(map(max, lead_i, lead_k))
            sugar = max(sugars[i] + sum(lcm) - sum(lead_i), sugars[k] + sum(lcm) - sum(lead_k))
            heapq.heappush(pairs, (sugar, grevlex(lcm), i, k))

    for k in range(1, len(basis)):
        add_pairs(k)
    while pairs:
        sugar, _, i, j = heapq.heappop(pairs)
        (lead_i, lc_i, tail_i), (lead_j, lc_j, tail_j) = basis[i], basis[j]
        lcm = tuple(map(max, lead_i, lead_j))
        if sum(lcm) == sum(lead_i) + sum(lead_j):
            continue  # coprime leading terms: S-polynomial reduces to zero
        # S = (lc_j / g) x^(lcm - lead_i) b_i - (lc_i / g) x^(lcm - lead_j) b_j
        g = math.gcd(lc_i, lc_j)
        s = {}
        for lead, tail, factor in ((lead_i, tail_i, lc_j // g), (lead_j, tail_j, -lc_i // g)):
            add_product(s, {tuple(map(operator.sub, lcm, lead)): factor}, dict(tail))
        r = _primitive_remainder({m: c for m, c in s.items() if c}, basis)
        if r:
            basis.append(r)
            sugars.append(sugar)
            add_pairs(len(basis) - 1)

    # inter-reduce: drop redundant elements, then tail-reduce each survivor
    leads = [b[0] for b in basis]
    minimal = [b for i, b in enumerate(basis)
               if not any(j != i and all(map(operator.le, leads[j], leads[i]))
                          and (leads[j] != leads[i] or j < i) for j in range(len(basis)))]
    reduced = [_primitive_remainder({lead: lc, **dict(tail)}, minimal[:i] + minimal[i + 1:])
               for i, (lead, lc, tail) in enumerate(minimal)]
    reduced.sort(key=lambda b: grevlex(b[0]))
    return IdealBasis(list(generators), nvars, reduced)


class Cofactors:
    """Exact identity p = sum p_j h_j + remainder."""

    def __init__(self, p_j, remainder):
        self.p_j = p_j
        self.remainder = remainder


class QuotientRing:
    """Finite-dimensional quotient by a zero-dimensional ideal.

    The basis B is a grevlex-ascending list of exponent tuples, the
    standard monomials.  Every reduction modulo I goes through one linear
    map over B: NF(p) = sum_m c_m NF(m), with NF(m) cached as a ring vector
    (ints, den) over B, keyed by the exponents of m.  The cache starts from
    B's unit vectors, and every other monomial gets its normal form by one
    algorithm, from the tails of the reduced Gröbner basis
    (`_nf_from_tails`): the border, the product table and any higher
    monomial alike.  A product of two ring vectors (`mul`) reads the table
    `products` of the NF(b_i b_j).
    """

    def __init__(self, ideal, basis):
        self.ideal = ideal
        self.basis = basis
        self.D = len(basis)
        self.nvars = ideal.nvars
        self._nf_vectors = {b: ([int(i == k) for i in range(self.D)], 1)
                            for k, b in enumerate(basis)}
        # NF(1): 1 lies in B unless I is the unit ideal, where every vector is empty
        self.unit = self._nf_vectors.setdefault((0,) * self.nvars, ([], 1))

    # -- normal forms -------------------------------------------------

    def _nf_from_tails(self, e):
        """NF of the monomial with exponents e, with no division: for
        x^e = x^u lm(g), g = lc lm(g) + sum_t c_t t in the integer reduced
        Gröbner basis (`IdealBasis.reducers`),
        NF(x^e) = -sum_t (c_t / lc) NF(x^u t).  Each x^u t is below x^e in
        grevlex, so the stack, which computes them first, empties.  Any g
        whose lm divides x^e gives the same normal form."""
        cache = self._nf_vectors
        reducers = self.ideal.reducers
        stack = [e]
        while stack:
            top = stack[-1]
            if top in cache:
                stack.pop()
                continue
            lead, lc, tail = next(r for r in reducers if all(map(operator.le, r[0], top)))
            shift = tuple(map(operator.sub, top, lead))
            below = [tuple(map(operator.add, t, shift)) for t, _ in tail]
            missing = [m for m in below if m not in cache]
            if missing:
                stack += missing
            else:
                cache[top] = combine([(-c, v, d * lc) for (_, c), (v, d)
                                      in zip(tail, map(cache.get, below))], self.D)
                stack.pop()
        return cache[e]

    def nf_vector(self, p):
        """The normal form of p as a ring vector (ints, den) over B."""
        return combine([(c, *(self._nf_vectors.get(e) or self._nf_from_tails(e)))
                        for e, c in p.ints.items()], self.D, p.den)

    def from_vector(self, v, den=1):
        """The polynomial sum_i (v_i / den) b_i of integers v_i."""
        return Polynomial(dict(zip(self.basis, v)), den, self.nvars)

    def square(self, w, v, den=1):
        """The weighted square w (sum_i v_i b_i / den)^2, v not zero, as
        (w (g / den)^2, q) with v = g q for the `content` g: q is a
        primitive integer polynomial, and its leading coefficient, the last
        nonzero entry (B ascends in grevlex), is positive."""
        g = content(v)
        return w * Fraction(g * g, den * den), self.from_vector(v, g)

    def mul(self, u, v):
        """The product of the ring vectors u and v, sum_ij u_i v_j NF(b_i b_j),
        in one pass over the nonzero entries of the product table."""
        (us, ud), (vs, vd) = u, v
        den, terms = self.product_terms
        acc = [0] * self.D
        for i, j, r, x in terms:
            s = us[i] * vs[j] + us[j] * vs[i] if i != j else us[i] * vs[i]
            if s:
                acc[r] += s * x
        return exactla.lowest(acc, den * ud * vd)

    def mult_matrix(self, v):
        """Multiplication by the ring vector v, as (integer rows of A, d)
        with M_v = A / d in lowest terms: column j is v b_j =
        sum_i v_i NF(b_i b_j), in one pass over the product table's nonzero
        entries.  d is the lcm of the columns' own denominators."""
        vs, vd = v
        den, terms = self.product_terms
        a = [[0] * self.D for _ in range(self.D)]
        for i, j, r, x in terms:
            a[r][j] += vs[i] * x
            if i != j:
                a[r][i] += vs[j] * x
        g = math.gcd(den * vd, *itertools.chain.from_iterable(a))
        return [[x // g for x in row] for row in a], den * vd // g

    def degree_of_basis(self):
        return max(map(sum, self.basis), default=0)

    @functools.cached_property
    def mult_matrices(self):
        """M_k, multiplication by x_k, as (integer rows of A_k, d_k) with
        M_k = A_k / d_k, d_k the lcm of the denominators of its columns
        NF(x_k b), read like every other normal form.  Only
        `variety.solve_variety` reads them: no normal form passes through
        them."""
        return [_matrix(self._nf_from_tails(b[:k] + (b[k] + 1,) + b[k + 1:]) for b in self.basis)
                for k in range(self.nvars)]

    @functools.cached_property
    def products(self):
        """products[i][j] = NF(b_i b_j), a ring vector over B: the product
        table that the radical, the Gram set and the SDP constraints read,
        one ring vector per i <= j (upper[i][j - i]), which (j, i) shares."""
        upper = [[self._nf_from_tails(tuple(map(operator.add, bi, bj))) for bj in self.basis[i:]]
                 for i, bi in enumerate(self.basis)]
        return [[upper[min(i, j)][abs(i - j)] for j in range(self.D)] for i in range(self.D)]

    @functools.cached_property
    def product_terms(self):
        """The product table's nonzero entries, which `mul`, `mult_matrix`,
        the Gram set and the trace form read: (L, [(i, j, r, x), ...]) over
        i <= j, row by row,
        with NF(b_i b_j) = sum x b_r / L over its entries."""
        den = math.lcm(*(d for row in self.products for _, d in row))
        return den, [(i, j, r, x * (den // d)) for i, row in enumerate(self.products)
                     for j, (v, d) in enumerate(row[i:], i) for r, x in enumerate(v) if x]

    @functools.cached_property
    def trace_form(self):
        """(h1, L^2), H1 = h1 / L^2 the trace form H1[i][j] = Tr(M_{b_i b_j})
        = t . NF(b_i b_j), t_k = Tr(M_{b_k}) = sum_i NF(b_k b_i)[i], over the
        L of `product_terms`."""
        den, terms = self.product_terms
        t = [sum(v[i] * (den // d) for i, (v, d) in enumerate(row)) for row in self.products]
        h1 = [[0] * self.D for _ in range(self.D)]
        for i, j, r, x in terms:
            h1[i][j] += x * t[r]
            h1[j][i] = h1[i][j]
        return h1, den * den

    @functools.cached_property
    def univariates(self):
        """Seidenberg's precheck: for each variable x_k, the first polynomial
        in x_k alone that `sturm` proves squarefree, a reduced Gröbner
        element (the minimal polynomial of x_k) before a generator; the list
        holds, per variable, whether all its roots are real.  None when some
        variable has no such polynomial."""
        found = {}
        for terms in [{lead: lc, **dict(tail)} for lead, lc, tail in self.ideal.reducers] + [
                h.ints for h in self.ideal.generators]:
            used = {k for e in terms for k, x in enumerate(e) if x}
            if len(used) == 1 and not used <= found.keys():
                count, squarefree = sturm(coeffs := {sum(e): c for e, c in terms.items()})
                if squarefree:
                    found[used.pop()] = count == max(coeffs)
        return [found[k] for k in range(self.nvars)] if len(found) == self.nvars else None

    @functools.cached_property
    def grid(self):
        """The reduced Gröbner basis as {i: c_i} of each p_k = sum_i c_i x_k^i,
        by variable, when it is exactly one integer polynomial p_k in each
        variable x_k alone; else None.  B is then every x^b with
        b_k < deg p_k, so a product of polynomials u_k(x_k) of degree below
        deg p_k is its own normal form (`grid_vector`)."""
        found = {}
        for lead, lc, tail in self.ideal.reducers:
            k = next((k for k, x in enumerate(lead) if x), None)
            terms = [(lead, lc), *tail]
            if k is None or k in found or any(sum(e) != e[k] for e, _ in terms):
                return None
            found[k] = {e[k]: c for e, c in terms}
        return [found[k] for k in range(self.nvars)] if len(found) == self.nvars else None

    def grid_vector(self, factors):
        """The ring vector of prod_k u_k(x_k) on a `grid` ring, for the
        factors u_k = (coefficients, den_k), the deg p_k integers of
        x_k^0, x_k^1, ... over den_k != 0: its coefficient at b is
        prod_k u_k[b_k] / prod_k den_k, read off the Kronecker product of
        the u_k at `_grid_index`."""
        kron, den = [1], 1
        for u, d in factors:
            kron = [x * y for x in kron for y in u]
            den *= d
        return exactla.lowest([kron[i] for i in self._grid_index], den)

    @functools.cached_property
    def _grid_index(self):
        """The place of each b of B in the Kronecker product of `grid_vector`,
        the first variable's index outermost."""
        out = []
        for b in self.basis:
            i = 0
            for bk, p in zip(b, self.grid):
                i = i * max(p) + bk
            out.append(i)
        return out

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
        ring = build_ring(self.radical)
        ring.is_radical = True
        return ring


def content(v):
    """gcd(v) of a nonzero integer vector, signed like its last nonzero entry."""
    g = math.gcd(*v)
    return g if next(x for x in reversed(v) if x) > 0 else -g


def combine(terms, size, den=1):
    """The ring vector sum_t c_t v_t / (d_t den) of the rationals c_t and the
    ring vectors (v_t, d_t) of the terms (c_t, v_t, d_t), each of length size."""
    lcd = math.lcm(*(c.denominator * d for c, _, d in terms))
    acc = [0] * size
    for c, v, d in terms:
        s = c.numerator * (lcd // (c.denominator * d))
        acc = [a + s * x if x else a for a, x in zip(acc, v)]
    return exactla.lowest(acc, lcd * den)


def _matrix(cols):
    """(integer rows of A, d) with A / d the matrix whose columns are the
    ring vectors cols, d the lcm of their denominators."""
    cols = list(cols)
    d = math.lcm(*(den for _, den in cols))
    return exactla.transpose([[x * (d // den) for x in ints] for ints, den in cols]), d


def monomial_basis(ideal):
    """The quotient ring on the standard monomials of the ideal, the
    exponent tuples that no Gröbner leading monomial divides, grevlex
    ascending; it builds its tables on first read.  Raises
    NotZeroDimensional unless every variable has a pure power among the
    Gröbner leading monomials (the classical finiteness criterion); the
    unit ideal has 1 as a leading monomial, so its basis is empty.
    """
    lead = [e for e, _, _ in ideal.reducers]
    for i in range(ideal.nvars):
        if not any(sum(e) == e[i] for e in lead):
            raise NotZeroDimensional(f"no pure power of variable {i + 1} among leading terms")

    def standard(m):
        return not any(all(map(operator.le, e, m)) for e in lead)
    return QuotientRing(ideal, _order_ideal(ideal.nvars, standard))


def build_ring(generators):
    """The quotient ring by the ideal of the generators."""
    return monomial_basis(groebner(generators))


def cofactor_reduce(ring, p):
    """Write p = sum p_j h_j + N(p) against the original generators.

    Division by the Gröbner basis gives degree-controlled quotients (the
    term order is degree-compatible); each Gröbner element is then replaced
    by its stored cofactors over the generators, so in the graded case
    deg(p_j) <= deg(p) - deg(h_j).  All of it runs in integers: the integer
    form of p is divided by the integer basis (`_divide`), and the
    quotients are multiplied by the integer rows of `gb_cofactors`; only
    the p_j and the remainder are made polynomials.
    """
    ideal = ring.ideal
    quotients, remainder, scale = _divide(dict(p.ints), ideal.reducers)
    den = p.den * scale
    # reducer k is lc_k g_k = lc_k sum_j rows_kj h_j / d_k; over the lcm L
    # of the d_k, p_j = sum_k q_k lc_k (L / d_k) rows_kj / (L den)
    used = [(q, lc, cof) for q, (_, lc, _), cof
            in zip(quotients, ideal.reducers, ideal.gb_cofactors) if q]
    common = math.lcm(*(d for *_, (_, d) in used))
    acc = [{} for _ in ideal.generators]
    for q, lc, (rows, d) in used:
        factor = lc * (common // d)
        for terms, row in zip(acc, rows):
            add_product(terms, row, q, factor)
    return Cofactors([Polynomial(terms, common * den, ring.nvars) for terms in acc],
                     Polynomial(remainder, den, ring.nvars))


def coprimality_witness(ring, f, roots):
    """Integer-scaled (a, b, gamma) with b*f = 0 and a*f + b = gamma mod I.

    Before denominators are cleared, a f + b = 1 and b f = 0 is one D x D
    solve: it holds exactly when a f^2 = f and b = 1 - a f.  No solution
    means (I : f) + (f) is a proper ideal, so no nonnegativity certificate
    of this shape exists; f = 0 gives a = 0, b = 1.  As b^2 = b mod I, b is
    exactly 1 at the zeros of f on the variety and 0 elsewhere: the real
    zeros of f are the real roots where b > 1/2, from `roots()` (the points
    of ring.radical_ring) only when b != 0; unless `a` has sign +1 at all
    of them (`VarietyData.signs`), it is shifted by a multiple 2^k b.
    """
    nf = ring.nf_vector(f)
    rows, d = ring.mult_matrix(ring.mul(nf, nf))
    sol = exactla.solve(rows, [d * x for x in nf[0]])
    if sol is None:
        raise ConditionFailed("(I : f) + (f) is not the unit ideal")
    a_vec = exactla.lowest(sol[0], sol[1] * nf[1])
    a = ring.from_vector(*a_vec)
    b = ring.from_vector(*combine([(1, *ring.unit), (-1, *ring.mul(a_vec, nf))], ring.D))

    # positivity of a where f vanishes on the variety
    if not b.is_zero():
        var = roots()
        at_zeros = [sv for sv, vb in zip(var.signs(a), var.values(b)) if vb > 0.5]
        if at_zeros and min(sign for sign, _ in at_zeros) <= 0:
            bound = max(abs(v) for _, v in at_zeros) + 1
            rho = 1
            while rho <= bound:
                rho *= 2
            a = a + b * rho

    # clear denominators into gamma
    nu = math.lcm(a.den, b.den)
    return (a * nu, b * nu, nu)


def inverse_mod(ring, theta):
    """sigma with theta * sigma = 1 modulo the ideal, via an exact solve.

    Nothing in the pipeline calls this: the Hensel lift is a series with no
    inverse.  Like `ideal_power_chain`, it is kept as the tests' reference,
    forming each theta b_j as a Polynomial product, and because the
    benchmark's tracer wraps it by name."""
    rows, d = _matrix(ring.nf_vector(theta * Polynomial({b: 1}, 1, ring.nvars))
                      for b in ring.basis)
    sol = exactla.solve(rows, [d * x for x in ring.unit[0]])
    if sol is None:
        raise NotInvertible("polynomial vanishes at a root of the ideal")
    return ring.from_vector(*sol)


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


# -- radical computation (Seidenberg's lemma, else the trace form) --------


def radical_generators(ring):
    """Generators of the radical J: I itself when, for every variable x_k,
    a generator or a reduced Gröbner element is squarefree in x_k alone
    (`QuotientRing.univariates`), as on grid and cube ideals, by
    Seidenberg's lemma (Kreuzer-Robbiano, Prop. 3.7.15); on every other
    ring, I plus the kernel of the trace form (`_trace_kernel`).  Callers
    use the cached `QuotientRing.radical`."""
    return list(ring.ideal.generators) + (_trace_kernel(ring) if ring.univariates is None else [])


def _trace_kernel(ring):
    """The polynomials sum_i c_i b_i for a basis c of the exact kernel of
    the trace form H1 (`QuotientRing.trace_form`), the nilradical of R/I
    (Becker-Woermann; Pedersen-Roy-Szpirglas): empty exactly when I is
    radical."""
    return [ring.from_vector(c) for c in exactla.nullspace(ring.trace_form[0])]


def sturm(coeffs):
    """(the number of distinct real roots, whether f is squarefree) for
    f = sum_i c_i x^i, {i: c_i} of positive degree.  The count is Sturm's
    theorem (Basu-Pollack-Roy, Thm. 2.50): the sign changes of f, f',
    -rem(f, f'), ... at -infinity less those at +infinity.  The chain ends
    at gcd(f, f') up to a factor, a constant exactly when f is squarefree.
    Each remainder is made in integers, times a power of |lc|, and divided
    by its content: positive factors, which keep every sign."""
    a = [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]  # constant first
    b, seq = [i * c for i, c in enumerate(a)][1:], [a]
    while b:
        seq.append(b)
        r = a
        while len(r) >= len(b):  # r = |lc| r - sign(lc) top(r) x^k b drops its top term
            k, q = len(r) - len(b), r[-1] if b[-1] > 0 else -r[-1]
            r = [abs(b[-1]) * x - (q * b[i - k] if i >= k else 0) for i, x in enumerate(r)]
            while r and not r[-1]:
                r.pop()
        g = math.gcd(*r)
        a, b = b, [-x // g for x in r]
    ends = [(p[-1] * (-1) ** (len(p) - 1), p[-1]) for p in seq]  # signs at -inf, +inf
    return (sum((x[0] * y[0] < 0) - (x[1] * y[1] < 0) for x, y in zip(ends, ends[1:])),
            len(seq[-1]) == 1)
