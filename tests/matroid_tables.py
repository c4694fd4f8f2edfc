"""The exhaustive second derivation of the matroid morphism of a cell:
the point and graphic independence tables over all 2^n grouped subsets,
compared mask by mask, and the matroid axioms checked on the common
table.  ``apx.matroid.certify_morphism`` proves the morphism from the
cell's representation in one pass over its points; the tests compare
it with these tables, which share no code with it but the grouped
ground set.

The point matroid lives on the grouped ground set (each non-contracted
point is a singleton element, the two contracted points form a single
element); a grouped subset is independent when the union of its points is
affinely independent.  The graphic matroid lives on the edges of the
undirected cell subgraph; an edge set is independent when it is acyclic.
Mapping each grouped element to its edge is a bijection, so both families
are bitmask tables over the same 2^n subsets.

Each table is built in one depth-first walk, on an explicit stack, over
a fixed walk order of the elements: it goes from a mask to its child
with each element later in walk order than all of the mask's, so every
subset is visited once, as the child of the mask without its last
element.  In the point walk a node holds a basis, of primitive integer
vectors, of the annihilator of its homogenized points (x, 1): the
linear forms that vanish on all of them.  The root holds the d + 1 unit
vectors, and a child cuts its parent's basis by its element's one or
two points: a point on which every form vanishes lies in the span and
leaves the basis as it is, and otherwise one form is eliminated from the
others, in integers.  The rank of a mask is d + 1 minus its basis size.
The point walk takes the pair first, [n-1, 0, ..., n-2] over the ground
positions (table indices stay in ground order), so the pair's two cuts
run once and not in every mask that holds it.  A leaf, a mask whose
last element is last in walk order, has no child, so it needs no basis:
its rank is its parent's plus 1 iff some form of the parent's basis
misses its point.  In the graphic walk a node holds a component label
per vertex and its cycle count, and a child's edge either closes a cycle
or merges two components; a leaf is acyclic iff its parent is and its
edge joins two components.  Either way each subset gets the exact rank,
or cyclomatic number, of its own elements.  No verdict is derived from a
sub-mask's verdict and no child of a dependent mask is skipped: the
tables must hold what each subset is, not what the matroid axioms say it
should be, or the downward-closure and submodularity checks below would
only confirm their own premise.

The morphism is one comparison of the two tables.  Rank (the size of the
largest independent subset), bases (the independent sets of full rank)
and circuits (the minimal dependent sets) are each read off an
independence table alone, so two equal tables send bases to spanning
trees, circuits to plain cycles and preserve rank.  The matroid axioms are
checked once, on the common table, through the rank axioms (Oxley,
*Matroid Theory*, 2nd ed. 2011, section 1.3): for a downward-closed family
containing the empty set the rank rises by at most 1 per added element,
and then the family is a matroid exactly when its rank is locally
submodular, r(X+a) + r(X+b) >= r(X) + r(X+a+b).

The check runs on the whole family at once.  The table is packed into one
2^n-bit integer F, bit m set iff mask m is independent, and so is every
family below: E_b, the masks that hold element b, and P_r, the masks of
r elements.  Shifting a family left by 2^b adds b to each of its masks
that lacks it, so F & E_b & ~(F << 2^b) are the independent masks whose
subset without b is dependent, and the family is downward closed iff
that is empty for every b.  The masks of rank at least r are the upward
closure of F & P_r, n shift-ORs, and R_r are those of rank exactly r.
S_a, the masks X without a with r(X + a) = r(X), is the union over r of
R_r & ((R_r & E_a) >> 2^a), and the pair a, b breaks submodularity at
exactly the masks of S_a & S_b & ~((S_b & E_a) >> 2^a).  Each failure
names its lowest mask, and the lowest pair there, as a scan of the masks
in order would.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import or_
from typing import NamedTuple

from apx.errors import TheoremViolation
from apx.graphcore import edge
from apx.matroid import grouped_ground_set


def cut(basis: list[list[int]], i: int, j: int) -> list[list[int]]:
    """The annihilator basis after one more point (e_i - e_j, 1).

    Each vector a of ``basis`` has a constant-0 slot at index 0 for e_0
    and the homogenizing coefficient last, so a vanishes on the point iff
    t = a[i] - a[j] + a[-1] is 0.  When every vector vanishes the point
    lies in the span and ``basis`` itself is returned.  Otherwise the
    first vector a0 with t0 != 0 is the pivot: every later a becomes
    t0*a - t*a0, divided by its gcd, and a0 is dropped.
    """
    for p, a0 in enumerate(basis):
        t0 = a0[i] - a0[j] + a0[-1]
        if t0:
            break
    else:
        return basis
    out = basis[:p]
    for a in basis[p + 1:]:
        t = a[i] - a[j] + a[-1]
        if t:
            v = [t0 * x - t * y for x, y in zip(a, a0)]
            g = gcd(*v)
            a = [x // g for x in v] if g > 1 else v
        out.append(a)
    return out


def point_table(cell, e) -> tuple[tuple, list[bool]]:
    """Grouped ground set and its independence table, in one walk over
    the subsets.

    Each node of the walk holds a basis, of primitive integer vectors, of
    the annihilator of its homogenized points (x, 1); the root's is the
    d + 1 unit vectors.  A child cuts it by its element's one or
    two points (``cut``), so every mask gets the exact rank of its own
    points, d + 1 minus the basis size, and is independent iff that rank
    equals its number of points.  The walk takes the pair first, so its
    two cuts run once, and ranks each leaf, the last single added to a
    node, as the node's rank plus 1 iff some form misses its point.
    """
    ground = grouped_ground_set(cell, e)
    n, d = len(ground), cell.dim
    independent = [False] * (1 << n)
    independent[0] = True
    # Walk order: the pair, last in ground order, then the singles.  The
    # last single in walk order is the leaf element, unless the pair is
    # alone.
    walk = [n - 1, *range(n - 1)]
    inner = max(n - 1, 1)
    leaf = ground[walk[-1]][0] if n > 1 else None
    leaf_bit = 1 << walk[-1]
    units = [[int(k == c) for k in range(d + 2)] for c in range(1, d + 2)]
    steps = [(1 << b, ground[b], len(ground[b])) for b in walk[:inner]]
    stack = [(0, 0, units, 0)]
    while stack:
        mask, start, basis, points = stack.pop()
        for k, (bit, elem, size) in enumerate(steps[start:], start + 1):
            child_basis = basis
            for i, j in elem:
                child_basis = cut(child_basis, i, j)
            child, child_points = mask | bit, points + size
            independent[child] = d + 1 - len(child_basis) == child_points
            stack.append((child, k, child_basis, child_points))
        if leaf:
            # One test in place of a cut: the rank grows iff some form
            # misses the leaf's point.
            i, j = leaf
            grows = 0
            for a in basis:
                if a[i] - a[j] + a[-1]:
                    grows = 1
                    break
            independent[mask | leaf_bit] = d + 1 - len(basis) + grows == points + 1
    return ground, independent


def graphic_table(edges: tuple) -> list[bool]:
    """Independence (acyclicity) table over subsets of edges, in one walk
    over the subsets.

    Each node of the walk holds a component label per vertex and the
    cyclomatic number of its edge set.  A child's edge adds a cycle when
    its ends share a component, and merges their components otherwise.
    A leaf, a node plus the last edge, is acyclic iff the node is and
    the edge joins two components; it is never walked.
    """
    n = len(edges)
    index = {v: i for i, v in enumerate(sorted({v for uv in edges for v in uv}))}
    ends = [(index[u], index[v]) for u, v in edges]
    independent = [False] * (1 << n)
    independent[0] = True
    if not n:
        return independent
    last = 1 << n - 1
    lu, lv = ends[-1]
    stack = [(0, list(range(len(index))), 0)]
    while stack:
        mask, component, cycles = stack.pop()
        for b in range(mask.bit_length(), n - 1):
            u, v = ends[b]
            cu, cv = component[u], component[v]
            if cu == cv:
                child_component, child_cycles = component, cycles + 1
            else:
                child_component = [cu if c == cv else c for c in component]
                child_cycles = cycles
            child = mask | 1 << b
            independent[child] = child_cycles == 0
            stack.append((child, child_component, child_cycles))
        cu, cv = component[lu], component[lv]
        independent[mask | last] = cycles == 0 and cu != cv
    return independent


# Byte 0 or 1 of a packed table -> its binary digit.
DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def element_families(n: int) -> list[int]:
    """E_b for each element b: the 2^n-bit family of the masks holding b,
    blocks of 2^b zeros and 2^b ones, doubled up to 2^n bits."""
    out = []
    for b in range(n):
        width = 2 << b
        family = ((1 << (1 << b)) - 1) << (1 << b)
        while width < 1 << n:
            family |= family << width
            width *= 2
        out.append(family)
    return out


def size_families(n: int) -> list[int]:
    """P_r for r = 0..n: the family of the masks with r elements, built
    by doubling, each new element b adding P_(r-1) << 2^b to P_r."""
    levels = [1]
    for b in range(n):
        levels = [lo | hi << (1 << b) for lo, hi in zip(levels + [0], [0] + levels)]
    return levels


def upward_closure(family: int, elements: list[int]) -> int:
    """The masks that hold some mask of ``family``: for each element b,
    every mask without b adds its superset with b."""
    for b, holds_b in enumerate(elements):
        family |= (family & ~holds_b) << (1 << b)
    return family


def check_matroid_axioms(independent: list[bool], n: int) -> None:
    """Raise TheoremViolation unless the masks with ``independent[mask]``
    are the independent sets of a matroid on n elements: the empty set is
    independent, the family is downward closed, and its rank is locally
    submodular.  Each test runs on the table packed into one integer F,
    bit m set iff mask m is independent, and names its lowest failing
    mask."""
    if not independent[0]:
        raise TheoremViolation("empty set not independent")
    family = int(bytes(reversed(independent)).translate(DIGITS), 2)
    elements = element_families(n)
    # F << 2^b holds m iff F holds m - 2^b, which for m holding b is m
    # without b.
    unclosed = 0
    for b, holds_b in enumerate(elements):
        unclosed |= family & holds_b & ~(family << (1 << b))
    if unclosed:
        m = (unclosed & -unclosed).bit_length() - 1
        raise TheoremViolation(f"downward closure fails at mask {m:b}")
    # rank(X) >= r iff X holds an independent r-set, so the masks of rank
    # at least r are the upward closure of the independent r-sets.
    at_least = []
    for level in size_families(n):
        if not family & level:
            break
        at_least.append(upward_closure(family & level, elements))
    rank_is = [g & ~h for g, h in zip(at_least, at_least[1:] + [0])]
    # spans[a]: the masks X without a with r(X + a) = r(X), a in the
    # closure of X.  The rank rises by at most 1 per element, so
    # r(X+a) + r(X+b) >= r(X) + r(X+a+b) can only fail for X in spans[a]
    # and spans[b], and there it fails iff X + a is not in spans[b].
    spans = [
        reduce(or_, [r & (r & holds_a) >> (1 << a) for r in rank_is])
        for a, holds_a in enumerate(elements)
    ]
    first = None
    for a in range(n):
        for b in range(a + 1, n):
            fails = spans[a] & spans[b] & ~((spans[b] & elements[a]) >> (1 << a))
            if fails:
                x = (fails & -fails).bit_length() - 1
                if first is None or x < first[0]:
                    first = (x, a, b)
    if first is not None:
        x, a, b = first
        raise TheoremViolation(
            f"exchange fails: rank not submodular at mask {x:b} "
            f"with elements {1 << a:b}, {1 << b:b}"
        )


class MorphismReport(NamedTuple):
    ground_size: int
    subsets_checked: int


def exhaustive_morphism(cell, e) -> MorphismReport:
    """Exhaustively check that mapping grouped subsets to edge subsets
    matches dependent sets with cyclic ones, and hence bases with spanning
    trees, circuits with plain cycles and rank with rank, and that the
    common table satisfies the matroid axioms."""
    ground, independent = point_table(cell, e)
    # Edge images of the grouped elements, in the same index order, so
    # the morphism f is the identity on bitmasks.
    edges = tuple(edge(*elem[0]) for elem in ground)
    if len(set(edges)) != len(edges):
        raise TheoremViolation("grouped elements do not map to distinct edges")
    n = len(ground)
    graphic = graphic_table(edges)
    # Rank, bases and circuits are functions of the independence table,
    # so once the tables are equal they agree as well.
    if independent != graphic:
        mask = next(m for m in range(1 << n) if independent[m] != graphic[m])
        witness = sorted(ground[b] for b in range(n) if mask >> b & 1)
        raise TheoremViolation(f"dependence mismatch at {witness}")
    check_matroid_axioms(independent, n)
    return MorphismReport(n, 1 << n)
