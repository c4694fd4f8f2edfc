"""Exact integer linear algebra, fraction-free.

One elimination, ``gauss_jordan``, gives every rank, basis, kernel and
cone seed of the geometry (the matroid table walk keeps its own
incremental kernel).  It works on integer rows and divides only where
the division is exact (Bareiss 1968), so all geometric predicates
downstream are bit-exact.  Nothing in the package is rational: facet
normals and cell normals are integer vectors, because adjacency
polytopes are reflexive.  Vectors are tuples, matrices lists of rows.
No floating point.
"""

from __future__ import annotations

from math import gcd

IntVector = tuple[int, ...]


def gauss_jordan(m: list[list[int]]) -> list[int]:
    """One fraction-free Gauss-Jordan pass over an integer matrix, in place.

    Columns are taken left to right, and each one with a nonzero entry
    at or below the current row becomes a pivot column.  After pivot k
    every entry is a (k+1)-minor of the input (Bareiss 1968), so each
    division by the previous pivot is exact, and the pass ends with every
    pivot column equal to d times a unit column, d the last pivot.  A
    row with 0 in the pivot column only scales by pv / prev, the new
    pivot over the previous one: it is left as it is when they are
    equal, negated when pv == -prev and rescaled otherwise, each entry
    exactly, as the same invariant holds for that row.
    Returns the pivot columns; row i holds the pivot of the i-th.
    """
    rows = len(m)
    pivots: list[int] = []
    prev = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, rows) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot_row = m[r]
        pv = pivot_row[c]
        for i in range(rows):
            if i != r:
                f = m[i][c]
                if f:
                    m[i] = [(pv * a - f * b) // prev for a, b in zip(m[i], pivot_row)]
                elif pv == -prev:
                    m[i] = [-a for a in m[i]]
                elif pv != prev:
                    m[i] = [pv * a // prev for a in m[i]]
        prev = pv
        pivots.append(c)
        if len(pivots) == rows:
            break
    return pivots


def affine_kernel(points) -> tuple[int, tuple[IntVector, ...]]:
    """Affine rank of integer points and a basis of their affine
    dependences, from one ``gauss_jordan`` pass over the matrix whose
    columns are the homogenized points (x_i, 1).

    The rank is the number of pivot columns (0 for no points).  Each
    free column f gives one dependence: d at f and minus the column's
    entries at the pivot columns, that is d times the reduced row echelon
    kernel vector of f.  Each is scaled to coprime integers with its
    first nonzero entry positive, in the order of the free columns, and
    satisfies sum(lam) == 0 and sum(lam_i * x_i) == 0.  There are none
    iff the points are affinely independent.
    """
    points = list(points)
    if not points:
        return 0, ()
    m = [list(coord) for coord in zip(*points)]
    m.append([1] * len(points))
    pivots = gauss_jordan(m)
    d = m[0][pivots[0]]
    free = sorted(set(range(len(points))) - set(pivots))
    kernel = []
    for f in free:
        lam = [0] * len(points)
        lam[f] = d
        for row, c in zip(m, pivots):
            lam[c] = -row[f]
        g = gcd(*lam)
        if next(x for x in lam if x) < 0:
            g = -g
        kernel.append(tuple(x // g for x in lam))
    return len(pivots), tuple(kernel)
