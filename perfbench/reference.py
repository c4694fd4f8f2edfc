"""A fixed pure-Python workload that does not use apx.

run.py times ``work()`` in its own process between ops and divides pass
times by its mean time.  On a shared host, other tenants can slow every
process by up to a half for minutes at a time; a ratio to work done in
the same stretch of time cancels most of that, while a change to apx
moves the numerator alone.  The work mixes what apx spends its time on:
Fraction row reduction, fraction-free integer elimination, bitmask tests
over tuples and a scan of all subsets.
"""

from fractions import Fraction


def rref_rank(rows: list[list[Fraction]]) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def bareiss_det(m: list[list[int]]) -> int:
    m = [r[:] for r in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def adjacency_tests(count: int) -> int:
    masks = [(i * 2654435761) & 0xFFFFF for i in range(count)]
    rays = {m: tuple((m >> s) & 7 for s in range(0, 20, 4)) for m in masks}
    hits = 0
    for a in masks[:120]:
        for b in masks:
            z = a & b
            if z.bit_count() > 6 and not any(
                (z & ~m) == 0 for m in masks[:24] if m != a and m != b
            ):
                hits += sum(rays[a]) - sum(rays[b])
    return hits


def subset_scan(n: int) -> int:
    """Exhaustive pass over all subsets with table lookups, as the matroid
    check does."""
    size = [0] * (1 << n)
    for mask in range(1, 1 << n):
        size[mask] = size[mask & (mask - 1)] + 1
    flagged = 0
    for mask in range(1 << n):
        if size[mask] % 3 == 0 and all(size[mask & ~(1 << b)] < size[mask]
                                       for b in range(n) if mask >> b & 1):
            flagged += 1
    return flagged


def work() -> int:
    total = 0
    for k in range(10):
        rows = [[Fraction((i * 7 + j * 13 + k) % 11 - 5, 1 + (i + j + k) % 3)
                 for j in range(10)] for i in range(10)]
        total += rref_rank(rows)
        ints = [[(i * 31 + j * 17 + k) % 19 - 9 for j in range(9)] for i in range(9)]
        total += bareiss_det(ints) % 7
    total += adjacency_tests(600)
    total += subset_scan(16)
    return total
