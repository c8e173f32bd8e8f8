"""Exact linear algebra over Fraction: elimination, solving, nullspaces.

Matrices are plain lists of lists of Fraction, eliminated densely with exact
pivoting.  The inputs are D x D systems, D the quotient dimension: the
trace form, whose kernel gives the radical (eliminated here only when
`quotient.radical_generators` cannot prove it nonsingular modulo a prime),
the coprimality witness and inverses modulo I; and the cofactors of a
Groebner basis.  The Gram matrix needs no solve (see `gram`).
"""

from __future__ import annotations

from fractions import Fraction


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def rref(matrix, ncols=None):
    """Reduced row echelon form.  Returns (R, pivot column list)."""
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


def solve(a, b):
    """One solution of A x = b, or None if inconsistent.

    Free variables are set to 0, so with columns ordered by preference the
    returned solution is supported on the earliest possible columns.
    """
    n = len(a)
    m = len(a[0]) if a else 0
    aug = [list(a[i]) + [Fraction(b[i])] for i in range(n)]
    red, pivots = rref(aug, ncols=m)
    for row in red:
        if all(x == 0 for x in row[:m]) and row[m] != 0:
            return None
    x = [Fraction(0)] * m
    for r, c in enumerate(pivots):
        x[c] = red[r][m]
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
        for r, c in enumerate(pivots):
            v[c] = -red[r][fc]
        basis.append(v)
    return basis
