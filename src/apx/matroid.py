"""The two matroids carried by a cell and the morphism between them.

The point matroid lives on the grouped ground set (each non-contracted
point is a singleton element, the two contracted points form a single
element); independence is affine independence of the union.  The graphic
matroid lives on the edges of the undirected cell subgraph; independence
is acyclicity.  Mapping a grouped subset to its edge set sends bases to
spanning trees, circuits to plain cycles, and preserves rank; everything
is verified by exhaustive subset enumeration at desk scale, over
precomputed bitmask independence tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import exactlin
from .errors import MorphismViolation
from .graphcore import cyclomatic_number, edge
from .polytope import phi
from .subdivision import Cell

GroundElement = tuple  # tuple of point labels (size 1, or 2 for the pair)


@dataclass(frozen=True)
class MatroidView:
    """A matroid as (ground set, independence oracle, rank function)."""

    ground: tuple
    is_independent: Callable[[frozenset], bool]
    rank: Callable[[frozenset], int]


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


def _point_tables(cell: Cell, e) -> tuple[tuple, list[bool], list[int]]:
    ground = grouped_ground_set(cell, e)
    vectors = [[phi(lab, cell.dim) for lab in elem] for elem in ground]
    n = len(ground)
    independent = [False] * (1 << n)
    for mask in range(1 << n):
        points = [p for b in range(n) if mask >> b & 1 for p in vectors[b]]
        independent[mask] = exactlin.is_affinely_independent(points)
    return ground, independent, _rank_table(independent, n)


def _graphic_tables(edges: tuple) -> tuple[list[bool], list[int]]:
    """Independence (acyclicity) and rank tables over subsets of edges."""
    n = len(edges)
    independent = [False] * (1 << n)
    for mask in range(1 << n):
        subset = frozenset(edges[b] for b in range(n) if mask >> b & 1)
        independent[mask] = cyclomatic_number(subset) == 0
    return independent, _rank_table(independent, n)


def _view_from_tables(ground, independent, ranks) -> MatroidView:
    index = {elem: i for i, elem in enumerate(ground)}

    def to_mask(subset) -> int:
        mask = 0
        for elem in subset:
            mask |= 1 << index[elem]
        return mask

    return MatroidView(
        tuple(ground),
        lambda s: independent[to_mask(s)],
        lambda s: ranks[to_mask(s)],
    )


def point_matroid(cell: Cell, e) -> MatroidView:
    """Grouped subsets are independent when the union of their points is
    affinely independent."""
    ground, independent, ranks = _point_tables(cell, e)
    return _view_from_tables(ground, independent, ranks)


def graphic_matroid(cell: Cell) -> MatroidView:
    """Edge subsets of the undirected cell subgraph are independent when
    acyclic; bases are spanning trees, circuits are plain cycles."""
    from .cellanalysis import cell_subgraphs

    _, undirected = cell_subgraphs(cell.points)
    ground = tuple(sorted(undirected))
    return _view_from_tables(ground, *_graphic_tables(ground))


def check_matroid_axioms(view: MatroidView) -> None:
    """Downward closure and the exchange axiom over the independent sets."""
    ground = view.ground
    n = len(ground)
    independent = [
        view.is_independent(frozenset(ground[b] for b in range(n) if mask >> b & 1))
        for mask in range(1 << n)
    ]
    _check_axioms_on_masks(independent, n)


def _check_axioms_on_masks(independent: list[bool], n: int) -> None:
    if not independent[0]:
        raise MorphismViolation("empty set not independent")
    indep_masks = [m for m in range(1 << n) if independent[m]]
    indep_set = set(indep_masks)
    for m in indep_masks:
        for b in range(n):
            if m >> b & 1 and (m & ~(1 << b)) not in indep_set:
                raise MorphismViolation(f"downward closure fails at mask {m:b}")
    # Exchange is checked only for |B| = |A| + 1.  With downward closure
    # verified above that suffices: for a larger independent B, any
    # (|A| + 1)-subset B' of B is independent, and the element of B' - A
    # that exchange supplies for (A, B') also lies in B - A.
    by_size: dict[int, list[int]] = {}
    for m in indep_masks:
        by_size.setdefault(m.bit_count(), []).append(m)
    for a in indep_masks:
        for b in by_size.get(a.bit_count() + 1, ()):
            extra = b & ~a
            if not any(
                (a | (1 << bit)) in indep_set for bit in range(n) if extra >> bit & 1
            ):
                raise MorphismViolation(f"exchange fails for masks {a:b}, {b:b}")


@dataclass(frozen=True)
class MorphismReport:
    ground_size: int
    subsets_checked: int

    def to_json_dict(self) -> dict:
        return {"ground_size": self.ground_size, "subsets_checked": self.subsets_checked}


def verify_morphism(cell: Cell, e, check_axioms: bool = False) -> MorphismReport:
    """Exhaustively check that mapping grouped subsets to edge subsets
    matches bases with bases, circuits with circuits, dependent sets with
    dependent sets, and preserves rank."""
    ground, p_indep, p_rank = _point_tables(cell, e)
    # Edge images of the grouped elements, in the same index order, so
    # the morphism f is the identity on bitmasks.
    edges = tuple(edge(*elem[0]) for elem in ground)
    g_indep, g_rank = _graphic_tables(edges)
    if len(set(edges)) != len(edges):
        raise MorphismViolation("grouped elements do not map to distinct edges")
    n = len(ground)
    full = (1 << n) - 1
    if check_axioms:
        _check_axioms_on_masks(p_indep, n)
        _check_axioms_on_masks(g_indep, n)

    def is_circuit(indep: list[bool], mask: int) -> bool:
        if indep[mask]:
            return False
        return all(
            indep[mask & ~(1 << b)] for b in range(n) if mask >> b & 1
        )

    def describe(mask: int) -> str:
        return str(sorted(ground[b] for b in range(n) if mask >> b & 1))

    for mask in range(1 << n):
        if p_indep[mask] != g_indep[mask]:
            raise MorphismViolation(f"dependence mismatch at {describe(mask)}")
        if p_rank[mask] != g_rank[mask]:
            raise MorphismViolation(f"rank mismatch at {describe(mask)}")
        p_basis = p_indep[mask] and p_rank[mask] == p_rank[full]
        g_basis = g_indep[mask] and g_rank[mask] == g_rank[full]
        if p_basis != g_basis:
            raise MorphismViolation(f"basis mismatch at {describe(mask)}")
        if is_circuit(p_indep, mask) != is_circuit(g_indep, mask):
            raise MorphismViolation(f"circuit mismatch at {describe(mask)}")
    return MorphismReport(n, 1 << n)
