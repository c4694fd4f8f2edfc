import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import integer_determinant, reference_affine_kernel, reference_rank, reference_solve

from apx.exactlin import eliminate, gauss_jordan


def affine_kernel(points):
    """Affine rank and dependences of points, from one ``eliminate`` pass
    over their homogenized rows (x, 1)."""
    points = list(points)
    dim = len(points[0]) if points else 0
    elimination = eliminate([tuple(p) + (1,) for p in points], dim + 1)
    return len(elimination.basis), elimination.kernel


def _rank(rows):
    """Rank as the number of pivot columns of one ``gauss_jordan`` pass."""
    return len(gauss_jordan([list(r) for r in rows]))


def test_rank_empty_matrix():
    assert _rank([]) == 0


def test_rank_identity():
    assert _rank([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3


def test_rank_dependent_rows():
    # e1-e2, e2-e3 sum to e1-e3: hand elimination gives rank 2.
    rows = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
    assert _rank(rows) == 2


def test_nullspace_identity_empty():
    # An affine basis of the plane has no dependence.
    assert affine_kernel([(0, 0), (1, 0), (0, 1)]) == (3, ())


def test_nullspace_one_row():
    # Two copies of one point: the homogenized matrix has one independent
    # row, and the kernel is the line of (1, -1).
    assert affine_kernel([(3,), (3,)]) == (1, ((1, -1),))


def test_nullspace_even_cycle_circuit():
    # Homogenized circuit points of an even 4-cycle: kernel is a line.
    rank, kernel = affine_kernel([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert rank == 3 and len(kernel) == 1


def test_solve_identity():
    # [I | b] is already reduced: the pass keeps it and pivots on I.
    m = [[1, 0, 3], [0, 1, 5]]
    assert gauss_jordan(m) == [0, 1]
    assert m == [[1, 0, 3], [0, 1, 5]]


def test_solve_scalar():
    # 2x = -1: the pass ends at d = 2 on the pivot, so x = -1/2.
    m = [[2, -1]]
    assert gauss_jordan(m) == [0]
    assert Fraction(m[0][1], m[0][0]) == Fraction(-1, 2)


def test_solve_singular_has_no_pivot():
    # A singular system [[1, 1], [2, 2]] | (1, 1): column 1 is no pivot,
    # and the right-hand side takes the second pivot (inconsistent).
    m = [[1, 1, 1], [2, 2, 1]]
    assert gauss_jordan(m) == [0, 2]


def test_affine_dependence_two_points_absent():
    assert affine_kernel([(0, 0), (1, 0)]) == (2, ())


def test_affine_dependence_single_point_absent():
    assert affine_kernel([(7, 3)]) == (1, ())


def test_affine_dependence_even_cycle_pattern():
    # {e1, -e1, e2, -e2}: the alternating-sum relation, canonical sign.
    _, (lam,) = affine_kernel([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert lam == (1, 1, -1, -1)


def test_affine_dependence_defining_equations():
    rng = random.Random(7)
    for _ in range(50):
        dim = rng.randint(1, 4)
        count = rng.randint(1, 7)
        pts = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(count)]
        if len(set(pts)) != len(pts):
            continue
        rank, kernel = affine_kernel(pts)
        assert rank + len(kernel) == len(pts)
        for lam in kernel:
            assert any(x != 0 for x in lam)
            assert sum(lam) == 0
            for i in range(dim):
                assert sum(l * p[i] for l, p in zip(lam, pts)) == 0


def _textbook_bareiss(m):
    """Fraction-free Gauss-Jordan with the same pivot choice as
    ``gauss_jordan``, rewriting every other row at every pivot as
    (pv * a - f * b) // prev, with no row skipped."""
    pivots, prev = [], 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [(pv * a - f * b) // prev for a, b in zip(m[i], m[r])]
        prev = pv
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return pivots


def test_rank_nullity():
    # Entries, and so many pivots, in -3..3: rows with a zero in the pivot
    # column meet pv == prev, pv == -prev and other ratios, so the rows
    # ``gauss_jordan`` keeps, negates or rescales must end as the textbook
    # pass leaves them.
    rng = random.Random(11)
    for _ in range(200):
        r = rng.randint(0, 4)
        c = rng.randint(1, 5)
        rows = [tuple(rng.randint(-3, 3) for _ in range(c)) for _ in range(r)]
        m = [list(row) for row in rows]
        pivots = gauss_jordan(m)
        assert len(pivots) == reference_rank(rows)
        # Every pivot column ends as one common pivot times a unit column.
        for i, p in enumerate(pivots):
            assert [row[p] for row in m] == [m[0][pivots[0]] * (k == i) for k in range(r)]
        textbook = [list(row) for row in rows]
        assert _textbook_bareiss(textbook) == pivots
        assert m == textbook, rows


def test_canonical_integer_vector():
    # Dependences are coprime integers with the first nonzero entry
    # positive, one per free column in column order.
    _, (lam,) = affine_kernel([(0,), (-2,), (-3,)])
    assert lam == (1, -3, 2)
    _, kernel = affine_kernel([(0, 0), (0, 0), (2, 0), (4, 0)])
    assert kernel == ((1, -1, 0, 0), (1, 0, -2, 1))


def test_integer_determinant_matches_fraction_elimination():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        det = integer_determinant(rows)
        if reference_rank(rows) < n:
            assert det == 0
        else:
            # Unimodular-free check: det of M times det of M^{-1} is 1.
            inv_cols = [
                reference_solve(rows, [int(i == j) for i in range(n)]) for j in range(n)
            ]
            inv_rows = [[inv_cols[j][i] for j in range(n)] for i in range(n)]
            det_inv = _fraction_det(inv_rows)
            assert det * det_inv == 1


def _fraction_det(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


@st.composite
def integer_point_sets(draw):
    dim = draw(st.integers(0, 5))
    point = st.tuples(*[st.integers(-3, 3)] * dim)
    return draw(st.lists(point, max_size=9))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(integer_point_sets())
def test_affine_kernel_matches_fraction_reference(points):
    # Rank and kernel, vector for vector, against the Fraction reduced row
    # echelon form of the homogenized columns.
    rank, kernel = affine_kernel(points)
    assert kernel == reference_affine_kernel(points)
    assert rank == reference_rank([p + (1,) for p in points])
