"""Exact linear algebra in integers: elimination, solving, nullspaces.

Matrices are lists of lists of ints, and every result is integer data over
one denominator.  The one kernel, `rref`, eliminates fraction-free (Bareiss
1968).  Its inputs are the D x D systems of the quotient ring (the trace
form, whose kernel is the nilradical on every ring that Seidenberg's
precheck in `quotient.radical_generators` does not cover; the exact Gram
step's matrices H1^-1 M_p^t, several in one solve; the coprimality
witness) and the systems of the cofactors of a Groebner basis.  The float
Gram step's matrices need no solve (see `gram`).
"""

from __future__ import annotations

import math


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def lowest(ints, den):
    """The vector ints / den in lowest terms, with den > 0."""
    g = math.gcd(den, *ints) if den > 0 else -math.gcd(den, *ints)
    if g == 1:
        return ints, den
    return [x // g for x in ints], den // g


def rref(matrix, ncols=None):
    """Reduced row echelon form over the first `ncols` columns of an
    integer matrix: (R, pivot column list, p), R integer and R / p what
    Fraction elimination, each pivot row normalized, gives.

    At the k-th pivot p_k every other row becomes (p_k row - row[c]
    pivot_row) / p_{k-1}, p_0 = 1: an exact division, after which each row
    is p_k times the row that Fraction elimination gives.  p is the last
    pivot, or 1 when there is none."""
    a = list(matrix)
    nrows = len(a)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        top = a[r]
        p = top[c]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                if f:
                    a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
                else:
                    a[i] = [p * x // prev for x in row]
        pivots.append(c)
        prev = p
    return a, pivots, prev


def solve(a, b):
    """One solution of A x = b as (xs, den), x = xs / den in lowest terms
    with den > 0, or None if inconsistent.

    Free variables are set to 0, so with columns ordered by preference the
    returned solution is supported on the earliest possible columns.
    """
    m = len(a[0]) if a else 0
    red, pivots, p = rref([list(row) + [rhs] for row, rhs in zip(a, b)], ncols=m)
    if any(row[m] for row in red[len(pivots):]):
        return None
    xs = [0] * m
    for row, c in zip(red, pivots):
        xs[c] = row[m]
    return lowest(xs, p)


def nullspace(a):
    """Basis of the right nullspace of A, one primitive integer vector per
    free column, positive there and 0 at every other free column."""
    m = len(a[0]) if a else 0
    red, pivots, p = rref(a)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * m
        v[fc] = p
        for row, c in zip(red, pivots):
            v[c] = -row[fc]
        basis.append(lowest(v, p)[0])
    return basis
