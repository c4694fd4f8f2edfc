"""Exact integer linear algebra, fraction-free.

One elimination, ``eliminate``, gives every rank, basis, kernel, cone
seed and seed determinant; a cell's record and its volume oracle read
one pass.  Its ``gauss_jordan`` divides only where the division is exact
(Bareiss 1968), so all geometric predicates downstream are bit-exact.
Nothing in the package is rational: facet and cell normals are integer
vectors, because adjacency polytopes are reflexive.  Vectors are tuples,
matrices lists of rows.  No floating point.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

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


class Elimination(NamedTuple):
    """One ``gauss_jordan`` pass over [R^T | I] for integer rows R: the
    greedy row ``basis``, the ``kernel`` of R^T, and, when the basis B has
    full rank, ``inverse`` = d * B^-T with ``det`` = d = +-det B."""

    basis: list[int]
    kernel: tuple[IntVector, ...]
    inverse: list[list[int]]
    det: int


def eliminate(rows, dim: int) -> Elimination:
    """The ``Elimination`` of integer rows R in R^dim, dim >= 1; on points
    (x_i, 1) its rank is the affine rank, its kernel the affine dependences.

    Column i of R^T becomes a pivot iff row i is independent of the rows
    before it, so the pivots below len(rows) are the greedy basis; on
    rank-deficient rows the pass goes on to pivot in the identity block,
    and those pivots, whose rows are zero on R^T, are dropped.  With a
    basis of ``dim`` rows the pass ends at d * I on them, d its last
    pivot, and the right block is d * B^-T: its row j is d times column j
    of B^-1, tight on every basis row but the j-th.  Each free column f
    of R^T gives one dependence, d at f and minus the column's entries at
    the pivot columns, scaled to coprime integers with its first nonzero
    entry positive; there are none iff the rows are independent.
    """
    n = len(rows)
    m = [[row[c] for row in rows] + [int(c == j) for j in range(dim)] for c in range(dim)]
    pivots = gauss_jordan(m)
    d = m[0][pivots[0]]
    basis = [c for c in pivots if c < n]
    kernel = []
    for f in sorted(set(range(n)) - set(basis)):
        lam = [0] * n
        lam[f] = d
        for row, c in zip(m, basis):
            lam[c] = -row[f]
        g = gcd(*lam)
        if next(x for x in lam if x) < 0:
            g = -g
        kernel.append(tuple(x // g for x in lam))
    return Elimination(basis, tuple(kernel), [row[n:] for row in m], d)
