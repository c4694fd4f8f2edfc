"""The two matroids carried by a cell and the morphism between them.

The point matroid lives on the grouped ground set (each non-contracted
point is a singleton element, the two contracted points form a single
element); a grouped subset is independent when the union of its points is
affinely independent.  The graphic matroid lives on the edges of the
undirected cell subgraph; an edge set is independent when it is acyclic.
Mapping each grouped element to its edge is a bijection, so both families
are bitmask tables over the same 2^n subsets, and each is computed on its
own: one exact affine-rank test per grouped subset, and one cyclomatic
number per edge subset.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exactlin
from .errors import MorphismViolation
from .graphcore import cyclomatic_number, edge
from .polytope import phi
from .subdivision import Cell

GroundElement = tuple  # tuple of point labels (size 1, or 2 for the pair)


def grouped_ground_set(cell: Cell, e) -> tuple[GroundElement, ...]:
    k1, k2 = e
    pair = tuple(sorted([(k1, k2), (k2, k1)]))
    singles = [(lab,) for lab in cell.points if lab not in pair]
    return tuple(sorted(singles) + [pair])


def _rank_table(independent: list[bool], n: int) -> list[int]:
    """rank(X) = size of the largest independent subset of X, by subset
    DP; valid whether or not the independence family is a matroid."""
    size = 1 << n
    table = [0] * size
    for mask in range(1, size):
        if independent[mask]:
            table[mask] = mask.bit_count()
        else:
            table[mask] = max(table[mask & ~(1 << b)] for b in range(n) if mask >> b & 1)
    return table


def _point_table(cell: Cell, e) -> tuple[tuple, list[bool]]:
    """Grouped ground set and its independence table: one affine-rank
    test per subset, none derived from its sub-masks."""
    ground = grouped_ground_set(cell, e)
    vectors = [[phi(lab, cell.dim) for lab in elem] for elem in ground]
    n = len(ground)
    independent = [False] * (1 << n)
    for mask in range(1 << n):
        points = [p for b in range(n) if mask >> b & 1 for p in vectors[b]]
        independent[mask] = exactlin.is_affinely_independent(points)
    return ground, independent


def _graphic_table(edges: tuple) -> list[bool]:
    """Independence (acyclicity) table over subsets of edges."""
    n = len(edges)
    independent = [False] * (1 << n)
    for mask in range(1 << n):
        subset = frozenset(edges[b] for b in range(n) if mask >> b & 1)
        independent[mask] = cyclomatic_number(subset) == 0
    return independent


def check_matroid_axioms(independent: list[bool], n: int) -> None:
    """Raise MorphismViolation unless the masks with ``independent[mask]``
    are the independent sets of a matroid on n elements: the empty set is
    independent, the family is downward closed, and its rank table is
    locally submodular."""
    if not independent[0]:
        raise MorphismViolation("empty set not independent")
    for m in range(1 << n):
        if independent[m]:
            for b in range(n):
                if m >> b & 1 and not independent[m & ~(1 << b)]:
                    raise MorphismViolation(f"downward closure fails at mask {m:b}")
    rank = _rank_table(independent, n)
    for x in range(1 << n):
        rx = rank[x]
        # The rank rises by at most 1 per element, so the inequality can
        # only fail for a and b that both leave the rank of X unchanged.
        flat = [1 << b for b in range(n) if not x >> b & 1 and rank[x | 1 << b] == rx]
        for i, a in enumerate(flat):
            for b in flat[i + 1:]:
                if rank[x | a | b] != rx:
                    raise MorphismViolation(
                        f"exchange fails: rank not submodular at mask {x:b} "
                        f"with elements {a:b}, {b:b}"
                    )


@dataclass(frozen=True)
class MorphismReport:
    ground_size: int
    subsets_checked: int

    def to_json_dict(self) -> dict:
        return {"ground_size": self.ground_size, "subsets_checked": self.subsets_checked}


def verify_morphism(cell: Cell, e, check_axioms: bool = False) -> MorphismReport:
    """Exhaustively check that mapping grouped subsets to edge subsets
    matches dependent sets with cyclic ones, and hence bases with spanning
    trees, circuits with plain cycles and rank with rank."""
    ground, independent = _point_table(cell, e)
    # Edge images of the grouped elements, in the same index order, so
    # the morphism f is the identity on bitmasks.
    edges = tuple(edge(*elem[0]) for elem in ground)
    if len(set(edges)) != len(edges):
        raise MorphismViolation("grouped elements do not map to distinct edges")
    n = len(ground)
    graphic = _graphic_table(edges)
    # Rank, bases and circuits are functions of the independence table,
    # so once the tables are equal they agree as well.
    if independent != graphic:
        mask = next(m for m in range(1 << n) if independent[m] != graphic[m])
        witness = sorted(ground[b] for b in range(n) if mask >> b & 1)
        raise MorphismViolation(f"dependence mismatch at {witness}")
    if check_axioms:
        check_matroid_axioms(independent, n)
    return MorphismReport(n, 1 << n)
