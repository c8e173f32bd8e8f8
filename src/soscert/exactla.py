"""Exact linear algebra over the rationals: elimination, solving, nullspaces.

Matrices are lists of lists of Fractions or ints.  The one kernel, `rref`,
eliminates fraction-free in integers (Bareiss 1968).  Its inputs are the
D x D systems of the quotient ring (the trace form, when
`quotient.radical_generators` cannot prove it nonsingular modulo a prime;
the coprimality witness) and the integer systems of the cofactors of a
Groebner basis.  The Gram matrix needs no solve (see `gram`).
"""

from __future__ import annotations

import math
from fractions import Fraction


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def rref(matrix, ncols=None):
    """Reduced row echelon form over the first `ncols` columns.  Returns
    (R, pivot column list), R in Fractions.

    Row i is scaled to integers by the lcm s_i of its denominators.  At the
    k-th pivot p_k every other row becomes (p_k row - row[c] pivot_row) /
    p_{k-1}, p_0 = 1: an exact division, after which each row is p_k times
    the row that Fraction elimination gives.  So R is each pivot row over
    the last pivot p, and each other row over p s_i."""
    a = []
    scales = []
    for row in matrix:
        s = math.lcm(*(x.denominator for x in row))
        a.append([x.numerator * (s // x.denominator) for x in row])
        scales.append(s)
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
        scales[r], scales[pivot_row] = scales[pivot_row], scales[r]
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
    rank = len(pivots)
    return ([[Fraction(x, prev) for x in row] for row in a[:rank]]
            + [[Fraction(x, prev * s) for x in row] for row, s in zip(a[rank:], scales[rank:])],
            pivots)


def solve(a, b):
    """One solution of A x = b, or None if inconsistent.

    Free variables are set to 0, so with columns ordered by preference the
    returned solution is supported on the earliest possible columns.
    """
    m = len(a[0]) if a else 0
    red, pivots = rref([list(row) + [rhs] for row, rhs in zip(a, b)], ncols=m)
    if any(row[m] for row in red[len(pivots):]):
        return None
    x = [Fraction(0)] * m
    for row, c in zip(red, pivots):
        x[c] = row[m]
    return x


def nullspace(a):
    """Basis of the right nullspace of A, as a list of vectors."""
    m = len(a[0]) if a else 0
    red, pivots = rref(a)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for row, c in zip(red, pivots):
            v[c] = -row[fc]
        basis.append(v)
    return basis
