"""Edge contraction subdivisions, their cells' records, and their facet
correspondences.

Contracting an edge {k1, k2} induces a 0/1 lift of the adjacency
polytope's points (0 on the two points of the contracted edge, 1 on the
rest).  The lower hull of the lifted configuration projects to a regular
subdivision whose cells biject with the facets of the contracted graph's
polytope, and, when the graph splits into two subgraphs sharing exactly
that edge, with pairs of facets of the two contracted halves.  The cells
are built from the facets, and proved to subdivide the polytope on each
instance by ``prove_lower_faces`` and ``prove_cover``.  A cell's record
sits beside ``Cell``; the commands build one per cell and seed the cell's
volume oracle with its elimination.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ApxError, TheoremViolation
from .exactlin import Elimination, IntVector, eliminate
from .graphcore import Forest, Graph, contract_edge, edge, forest, split_at, vertices_of
from .polytope import (
    DirectedEdge,
    FacetCertificate,
    PointConfiguration,
    build_configuration,
    enumerate_facets,
    phi,
)

Edge = tuple[int, int]


def cell_subgraphs(labels) -> tuple[frozenset[DirectedEdge], frozenset[Edge]]:
    """Directed and undirected subgraphs whose edges label a point set."""
    arcs = frozenset((i, j) for i, j in labels)
    return arcs, frozenset(edge(i, j) for i, j in labels)


def contracted_pair(e: Edge) -> tuple[DirectedEdge, DirectedEdge]:
    k1, k2 = e
    return (k1, k2), (k2, k1)


def check_pairing(labels, e: Edge) -> bool:
    """Both or neither of the contracted pair; True iff both present."""
    p, q = contracted_pair(e)
    has_p, has_q = p in labels, q in labels
    if has_p != has_q:
        raise ApxError(f"subset contains exactly one of the contracted points {p}, {q}")
    return has_p


class CellRecord(NamedTuple):
    """What one elimination and one forest pass say about a point set, a
    cell or a subset of one.  The point side (vectors, their elimination)
    and the graph side (arcs, subgraph, vertices, spanning forest) are
    computed apart, so every check reads two independent derivations."""

    labels: tuple[DirectedEdge, ...]
    vectors: tuple[IntVector, ...]
    arcs: frozenset[DirectedEdge]
    vertices: set[int]
    forest: Forest
    elimination: Elimination

    @property
    def rank(self) -> int:
        return len(self.elimination.basis)

    @property
    def kernel(self) -> tuple[IntVector, ...]:
        return self.elimination.kernel

    @property
    def cyclomatic(self) -> int:
        return len(self.forest.cycles)


def cell_record(labels, dim: int) -> CellRecord:
    """The record of a point set: one ``eliminate`` pass over its points
    as homogenized rows (x, 1) and one ``forest`` pass over its subgraph,
    in sorted order with the doubled edge (the one both of whose arcs are
    points) last.  Under the pairing precondition that edge is the
    contracted one, so the forest avoids it unless it is a bridge."""
    labels = tuple(labels)
    vectors = tuple(phi(lab, dim) for lab in labels)
    elimination = eliminate([v + (1,) for v in vectors], dim + 1)
    arcs, undirected = cell_subgraphs(labels)
    order = sorted(undirected, key=lambda f: (f in arcs and f[::-1] in arcs, f))
    return CellRecord(labels, vectors, arcs, vertices_of(undirected), forest(order), elimination)


def dimension(rec: CellRecord, e: Edge) -> int:
    """Affine dimension; must equal |V(G_X)| + [e in G_X] - m - 1."""
    # Under the pairing precondition the contracted edge is in G_X exactly
    # when both of its points are in X.
    indicator = 1 if check_pairing(rec.labels, e) else 0
    affine_dim = rec.rank - 1
    formula = len(rec.vertices) + indicator - len(rec.forest.components) - 1
    if affine_dim != formula:
        raise TheoremViolation(f"dimension {affine_dim} != formula {formula}")
    return affine_dim


def corank(rec: CellRecord, e: Edge) -> int:
    """|X| - dim(X) - 1; must equal the cyclomatic number of G_X."""
    value = len(rec.labels) - dimension(rec, e) - 1
    if value != rec.cyclomatic:
        raise TheoremViolation(f"corank {value} != cyclomatic number {rec.cyclomatic}")
    return value


class Cell(NamedTuple):
    """A cell of the subdivision: the configuration points on one lower
    facet of the lift, with the integer normal gamma of that facet
    normalized so the lifted normal is (gamma, 1).  Its support level h
    is 0, which ``prove_lower_faces`` proves on each cell."""

    points: tuple[DirectedEdge, ...]
    gamma: IntVector

    @property
    def dim(self) -> int:
        return len(self.gamma)

    def record(self) -> CellRecord:
        """A new record of the cell, not kept."""
        return cell_record(self.points, self.dim)

    def contains_contracted_pair(self, e: Edge) -> bool:
        k1, k2 = e
        return (k1, k2) in self.points and (k2, k1) in self.points

    def is_simplicial(self) -> bool:
        return len(self.points) == self.dim + 1

    def to_json_dict(self) -> dict:
        return {"points": self.points, "gamma": [str(g) for g in self.gamma]}


def cells_with_facets(g: Graph, e: Edge) -> list[tuple[Cell, FacetCertificate]]:
    """Every cell of the subdivision induced by contracting e, with the
    facet of G // e it is built from, in order of gamma.

    A facet is an integer potential f on G // e with f(0) = 0, its support
    the arcs (a, b) with f(b) - f(a) = 1.  Its cell has gamma_v =
    f(mapping[v]), h = 0, and as points the contracted pair and every
    label whose image is in the support: where gamma_i - gamma_j plus the
    lift weight is 0.  A single edge gives the one empty facet, whose cell
    is the whole polytope.

    The facets come in order of normal, which is the order of gamma.  With
    e = (lo, hi), lo < hi, gamma_v is f(v) for v < hi, f(lo) at v = hi and
    f(v - 1) for v > hi: the normal with f(lo) inserted at position hi.
    As f(lo) is 0 or an entry of the normal before that position, two
    gammas first differ where their normals do, and in the same sense.
    """
    labels = build_configuration(g).labels
    contracted, mapping = contract_edge(g, e)
    n = g.node_count - 1
    images = [(mapping[i], mapping[j]) for i, j in labels]
    out = []
    for facet in enumerate_facets(contracted):
        f, support = (0, *facet.normal), set(facet.support)
        points = tuple(lab for lab, (a, b) in zip(labels, images) if a == b or (a, b) in support)
        gamma = tuple(f[mapping[v]] for v in range(1, n + 1))
        out.append((Cell(points, gamma), facet))
    return out


def _project_labels(points, mapping: dict[int, int]) -> tuple[DirectedEdge, ...]:
    """Images of a cell's points under the contraction quotient; the two
    contracted points project to the origin and are dropped."""
    out = set()
    for i, j in points:
        a, b = mapping[i], mapping[j]
        if a != b:
            out.add((a, b))
    return tuple(sorted(out))


def _projected_normal(
    gamma: IntVector, e: Edge, mapping: dict[int, int], new_dim: int
) -> IntVector:
    """Normal of the image facet read off gamma, using gamma_0 := 0.

    Well defined because gamma agrees on the two merged nodes (the h = 0
    corollary); a disagreement is a correspondence violation.  Only node
    0, and k2 when k1 = 0, map to node 0, where gamma is 0.
    """
    full = (0,) + tuple(gamma)
    k1, k2 = e
    if full[k1] != full[k2]:
        raise TheoremViolation(f"gamma differs on contracted nodes {e}")
    out = [0] * (new_dim + 1)
    for node, image in mapping.items():
        out[image] = full[node]
    return tuple(out[1:])


def facet_correspondence(g: Graph, e: Edge, pairs) -> None:
    """Check each (cell, facet) pair of ``cells_with_facets``: the cell's
    points project onto the facet's support, its gamma onto the facet's
    normal, and no two cells onto one support.  Raises
    TheoremViolation.

    The facets are the ones the cells were built from, so this checks the
    construction against its source.  The independent evidence that the
    cells subdivide the polytope is ``prove_lower_faces`` and
    ``prove_cover``."""
    e = edge(*e)
    contracted, mapping = contract_edge(g, e)
    seen = set()
    for cell, facet in pairs:
        support = _project_labels(cell.points, mapping)
        if support != facet.support:
            raise TheoremViolation(f"projected support {support} != facet support {facet.support}")
        normal = _projected_normal(cell.gamma, e, mapping, contracted.node_count - 1)
        if normal != facet.normal:
            raise TheoremViolation(f"projected normal {normal} != facet normal {facet.normal}")
        if support in seen:
            raise TheoremViolation("two cells project to the same facet")
        seen.add(support)


def product_correspondence(g: Graph, e: Edge, cells: list[Cell]) -> tuple[list, list] | None:
    """When G splits at e into two sides sharing only e (``split_at``),
    check that the cells biject with pairs of facets of the two contracted
    sides and return the two facet lists; None when G does not split at e.
    Raises TheoremViolation."""
    e = edge(*e)
    split = split_at(g, e)
    if split is None:
        return None
    sides = []
    for side_edges in split:
        relabel = {v: i for i, v in enumerate(sorted(vertices_of(side_edges)))}
        side = Graph.from_edges([(relabel[u], relabel[v]) for u, v in side_edges])
        contracted, cmap = contract_edge(side, (relabel[e[0]], relabel[e[1]]))
        facets = enumerate_facets(contracted)
        # original node -> node of the contracted side
        total = {v: cmap[i] for v, i in relabel.items()}
        sides.append((side_edges - {e}, total, facets, {f.support for f in facets}))

    used = set()
    for cell in cells:
        pair = []
        for side_edges, total, _, supports in sides:
            support = tuple(
                sorted({(total[i], total[j]) for i, j in cell.points if edge(i, j) in side_edges})
            )
            if support not in supports:
                raise TheoremViolation(f"side projection {support} is not a facet of that side")
            pair.append(support)
        key = tuple(pair)
        if key in used:
            raise TheoremViolation("two cells project to the same facet pair")
        used.add(key)
    f1, f2 = sides[0][2], sides[1][2]
    if len(cells) != len(f1) * len(f2):
        raise TheoremViolation(f"{len(cells)} cells but {len(f1) * len(f2)} facet pairs")
    return f1, f2


def check_simpliciality_transfer(pairs) -> None:
    """Simplicial cells map to simplicial facets; ``pairs`` are the
    (cell, facet) pairs of ``cells_with_facets``.  A facet of an
    n'-dimensional adjacency polytope is simplicial when it has exactly n'
    supporting points (the empty facet trivially is).  Raises
    TheoremViolation naming the first simplicial cell whose facet is not,
    and that facet's support."""
    for i, (cell, facet) in enumerate(pairs):
        if cell.is_simplicial() and len(facet.support) != len(facet.normal):
            raise TheoremViolation(
                f"simplicial cell {i} maps to the non-simplicial facet {facet.support}"
            )


def verify_cell_support(
    config: PointConfiguration, e: Edge, cell: Cell
) -> tuple[DirectedEdge, int] | None:
    """Definitional check of one cell against the lift of the graph's
    configuration ``config``: level 0 on its points, strictly above
    elsewhere.  Returns None when it holds, else the witness (label,
    value): the first label, in label order, that is off its level, and
    its lifted value."""
    # With gamma_0 = 0 in front, <e_i - e_j, gamma> = gamma[i] - gamma[j].
    # The lift weight is 0 on the pair, 1 elsewhere.
    gamma = (0, *cell.gamma)
    k1, k2 = e
    pair = {(k1, k2), (k2, k1)}
    members = set(cell.points)
    for lab in config.labels:
        i, j = lab
        value = gamma[i] - gamma[j] + (lab not in pair)
        off = value != 0 if lab in members else value <= 0
        if off:
            return lab, value
    return None


def prove_lower_faces(config: PointConfiguration, e: Edge, cells) -> None:
    """Every cell is a lower face of the lift of ``config`` at h = 0, and
    no two share a normal, so no two share an interior.  The contracted
    pair lifts to 0 at values that sum to 0, so at h = 0 both its points
    are on the face and gamma agrees on the merged nodes.  Raises
    TheoremViolation naming the cell, and for a cell off the lift the
    first label off its level, with its lifted value."""
    first: dict[IntVector, int] = {}
    for i, cell in enumerate(cells):
        witness = verify_cell_support(config, e, cell)
        if witness is not None:
            label, value = witness
            where = "of the cell" if label in cell.points else "outside the cell"
            raise TheoremViolation(
                f"cell {i} is not a lower face of the lift at h = 0:"
                f" point {label} {where} lifts to {value}"
            )
        j = first.setdefault(cell.gamma, i)
        if j != i:
            raise TheoremViolation(f"cells {j} and {i} share a normal")


def prove_cover(cells, volumes, volume: int) -> int:
    """Every cell is full-dimensional: its volume from the placing
    oracle, ``volumes[i]``, is not 0; and the cells' volumes add up to
    ``volume``, the polytope's.  Returns the sum.  Raises TheoremViolation
    naming the cell."""
    for i, (cell, cell_volume) in enumerate(zip(cells, volumes)):
        if not cell_volume:
            affine_dim = cell.record().rank - 1
            raise TheoremViolation(
                f"cell {i} is not full-dimensional: affine dimension {affine_dim} < {cell.dim}"
            )
    total = sum(volumes)
    if total != volume:
        raise TheoremViolation(f"cells cover volume {total} of the polytope's {volume}")
    return total
