"""Exact linear algebra over the integers and the rationals.

Every scalar is an exact integer or a ``fractions.Fraction`` (lowest
terms, value equality), so all geometric predicates downstream are
bit-exact.  Integer ranks and determinants are fraction-free (Bareiss).
Vectors are tuples, matrices lists of row tuples.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import SingularMatrix

Vector = tuple[Fraction, ...]
Matrix = list[Vector]


def vec(values) -> Vector:
    return tuple(Fraction(v) for v in values)


def mat(rows) -> Matrix:
    return [vec(r) for r in rows]


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _rref(rows: Matrix, cols: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows], pivots


def _as_int_rows(rows) -> list[list[int]] | None:
    out = []
    for row in rows:
        irow = []
        for x in row:
            if isinstance(x, int):
                irow.append(x)
            elif isinstance(x, Fraction) and x.denominator == 1:
                irow.append(int(x))
            else:
                return None
        out.append(irow)
    return out


def integer_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    cols = len(m[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [pv * a - f * b for a, b in zip(m[i], m[r])]
                g = gcd(*m[i])
                if g > 1:
                    m[i] = [x // g for x in m[i]]
        r += 1
        if r == len(m):
            break
    return r


def rank(rows, cols: int | None = None) -> int:
    """Exact rank over the rationals.  ``cols`` needed only for empty input.

    Integer inputs take a fraction-free fast path (externally invisible).
    """
    rows = list(rows)
    if not rows:
        return 0
    int_rows = _as_int_rows(rows)
    if int_rows is not None:
        return integer_rank(int_rows)
    rows = mat(rows)
    _, pivots = _rref(rows, len(rows[0]))
    return len(pivots)


def nullspace_basis(rows, cols: int) -> list[Vector]:
    """Basis of the right kernel of the matrix; empty iff rank == cols."""
    rows = mat(rows)
    if cols == 0:
        return []
    if not rows:
        return [tuple(Fraction(int(i == j)) for i in range(cols)) for j in range(cols)]
    reduced, pivots = _rref(rows, cols)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def solve_unique(rows, rhs) -> Vector:
    """Solve the square nonsingular system ``rows @ x = rhs`` exactly.

    Raises SingularMatrix when the matrix has rank below its size.
    """
    rows = mat(rows)
    rhs = vec(rhs)
    n = len(rows)
    if n == 0:
        return ()
    if any(len(r) != n for r in rows):
        raise SingularMatrix("matrix is not square")
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = _rref([tuple(r) for r in aug], n)
    if len(pivots) != n:
        raise SingularMatrix(f"rank {len(pivots)} < {n}")
    return tuple(reduced[i][n] for i in range(n))


def common_denominator(values) -> int:
    """Least positive integer that makes every value integral."""
    return lcm(*(Fraction(x).denominator for x in values))


def canonical_integer_vector(v) -> Vector:
    """Scale a nonzero rational vector to coprime integers, first nonzero
    entry positive.  The canonical representative of its line."""
    v = vec(v)
    denom_lcm = common_denominator(v)
    ints = [int(x * denom_lcm) for x in v]
    g = gcd(*ints)
    if g == 0:
        return v
    ints = [x // g for x in ints]
    first = next(x for x in ints if x != 0)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)


def affine_dependence(points) -> Vector | None:
    """One affine dependence of the point set, or None if independent.

    When present the returned coefficients satisfy sum(lam) == 0 and
    sum(lam_i * x_i) == 0 with lam != 0, scaled to coprime integers with
    the first nonzero coefficient positive (reproducible signatures).
    """
    points = [vec(p) for p in points]
    if not points:
        return None
    # Kernel of the homogenized matrix whose columns are (x_i, 1).
    dim = len(points[0])
    cols = len(points)
    rows = [tuple(points[j][i] for j in range(cols)) for i in range(dim)]
    rows.append(tuple(Fraction(1) for _ in range(cols)))
    kernel = nullspace_basis(rows, cols)
    if not kernel:
        return None
    return canonical_integer_vector(kernel[0])


def affine_rank(points) -> int:
    """Affine dimension of the point set plus one (0 for the empty set):
    the rank of the homogenized rows (x_i, 1)."""
    points = list(points)
    if not points:
        return 0
    return rank([tuple(p) + (1,) for p in points])


def affine_dimension(points) -> int:
    """Dimension of the smallest affine space containing the points."""
    return affine_rank(points) - 1


def is_affinely_independent(points) -> bool:
    points = list(points)
    return affine_rank(points) == len(points)


def integer_determinant(rows: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def format_scalar(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when integral."""
    return str(x)
