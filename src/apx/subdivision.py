"""Edge contraction subdivisions and their facet correspondences.

Contracting an edge {k1, k2} induces a 0/1 lift of the adjacency
polytope's points (0 on the two points of the contracted edge, 1 on the
rest).  The lower hull of the lifted configuration projects to a regular
subdivision whose cells biject with the facets of the contracted graph's
polytope, and, when the graph splits into two subgraphs sharing exactly
that edge, with pairs of facets of the two contracted halves.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import (
    CorrespondenceViolation,
    EdgeNotInGraph,
    NotAValidSharedEdgeDecomposition,
    TheoremViolation,
)
from .exactlin import IntVector
from .graphcore import Graph, contract_edge, edge, vertices_of
from .polytope import (
    DirectedEdge,
    FacetCertificate,
    PointConfiguration,
    build_configuration,
    enumerate_facets,
    normalized_volume_of_cell,
    phi,
    regular_subdivision_supports,
)

Edge = tuple[int, int]


def lift_weight(label: DirectedEdge, e: Edge) -> int:
    """The contraction lift: 0 on the two contracted points, 1 elsewhere."""
    return 0 if edge(*label) == edge(*e) else 1


class _CellFields(NamedTuple):
    points: tuple[DirectedEdge, ...]
    gamma: IntVector
    height: int
    dim: int


class Cell(_CellFields):
    """A cell of the subdivision: the configuration points on one lower
    facet, with the normal gamma and support level h of that facet
    normalized so the lifted normal is (gamma, 1).  Both are integers
    (``edge_contraction_subdivision`` checks it).  It subclasses its
    fields' NamedTuple to get the ``__dict__`` that ``nvol`` is cached in."""

    def vectors(self) -> list[tuple[int, ...]]:
        return [phi(lab, self.dim) for lab in self.points]

    @cached_property
    def nvol(self) -> int:
        """Normalized volume from the triangulation oracle, computed once
        per cell and shared by every check and report that needs it."""
        return normalized_volume_of_cell(self.vectors())

    def contains_contracted_pair(self, e: Edge) -> bool:
        k1, k2 = e
        return (k1, k2) in self.points and (k2, k1) in self.points

    def is_simplicial(self) -> bool:
        return len(self.points) == self.dim + 1

    def to_json_dict(self) -> dict:
        return {
            "points": self.points,
            "gamma": [str(g) for g in self.gamma],
            "h": str(self.height),
        }


def edge_contraction_subdivision(g: Graph, e: Edge) -> list[Cell]:
    """All cells of the subdivision induced by contracting e, in canonical
    (lexicographic on gamma) order.

    Each lift ray (t * gamma, t * h, t) is divided by t, which must divide
    every entry: gamma projects onto a facet normal of the contracted
    graph's reflexive polytope, so it is integral, and h = 0.  A ray with
    a fractional gamma or h raises TheoremViolation.
    """
    e = edge(*e)
    if e not in g.edges:
        raise EdgeNotInGraph(f"{e} not in graph")
    config = build_configuration(g)
    n = config.dim
    if len(g.edges) == 1:
        # The lift is affine here, so the subdivision is the whole polytope.
        return [Cell(config.labels, (0,) * n, 0, n)]
    weights = [lift_weight(lab, e) for lab in config.labels]
    cells = []
    for ray, mask in regular_subdivision_supports(config.vectors, weights):
        t = ray[-1]
        if any(x % t for x in ray):
            raise TheoremViolation(f"lift ray {ray} is not integral after division by {t}")
        labels = tuple(
            sorted(config.labels[i] for i in range(len(config.labels)) if mask >> i & 1)
        )
        cells.append(Cell(labels, tuple(x // t for x in ray[:-2]), ray[-2] // t, n))
    cells.sort(key=lambda c: (c.gamma, c.height))
    return cells


class Correspondence(NamedTuple):
    """Bijection from cells to facets (single mode) or facet pairs
    (two-subgraph mode) of the contracted polytopes."""

    mode: str
    images: tuple  # in cell order: FacetCertificate, or a pair of them
    facets: tuple  # facet list, or (facet list 1, facet list 2)


def _project_labels(points, e: Edge, mapping: dict[int, int]) -> tuple[DirectedEdge, ...]:
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
    corollary); a disagreement is a correspondence violation.
    """
    full = (0,) + tuple(gamma)
    k1, k2 = e
    if full[k1] != full[k2]:
        raise CorrespondenceViolation(f"gamma differs on contracted nodes {e}")
    out = [0] * (new_dim + 1)
    for node, image in mapping.items():
        out[image] = full[node]
    if out[0] != 0:
        raise CorrespondenceViolation("projected normal nonzero on the reference node")
    return tuple(out[1:])


def facet_correspondence(g: Graph, e: Edge, cells: list[Cell]) -> Correspondence:
    """Match every cell to the facet of the contracted graph's polytope
    supported by its projected points; must be a bijection."""
    e = edge(*e)
    contracted, mapping = contract_edge(g, e)
    facets = enumerate_facets(build_configuration(contracted))
    by_support = {f.support: i for i, f in enumerate(facets)}
    images = []
    used = set()
    for cell in cells:
        support = _project_labels(cell.points, e, mapping)
        idx = by_support.get(support)
        if idx is None:
            raise CorrespondenceViolation(f"projected support {support} is not a facet")
        facet = facets[idx]
        if facet.normal:
            normal = _projected_normal(cell.gamma, e, mapping, contracted.node_count - 1)
            if normal != facet.normal:
                raise CorrespondenceViolation(
                    f"projected normal {normal} != facet normal {facet.normal}"
                )
        if idx in used:
            raise CorrespondenceViolation("two cells project to the same facet")
        used.add(idx)
        images.append(facet)
    if len(used) != len(facets):
        raise CorrespondenceViolation(
            f"{len(cells)} cells but {len(facets)} facets of the contraction"
        )
    return Correspondence("single", tuple(images), tuple(facets))


def _relabel_contiguous(nodes) -> dict[int, int]:
    return {v: i for i, v in enumerate(sorted(nodes))}


def _side_graph(edges) -> tuple[Graph, dict[int, int]]:
    relabel = _relabel_contiguous(vertices_of(edges))
    g = Graph.from_edges([(relabel[u], relabel[v]) for u, v in edges])
    return g, relabel


def product_correspondence(
    g: Graph, g1_edges, g2_edges, e: Edge, cells: list[Cell]
) -> Correspondence:
    """Two-subgraph mode: cells biject with pairs of facets of the two
    contracted sides.  The sides must cover the graph, share exactly the
    contracted edge, and meet exactly in its endpoints."""
    e = edge(*e)
    e1 = frozenset(edge(*f) for f in g1_edges)
    e2 = frozenset(edge(*f) for f in g2_edges)
    if e1 | e2 != g.edges:
        raise NotAValidSharedEdgeDecomposition("sides do not cover the edge set")
    if e1 & e2 != {e}:
        raise NotAValidSharedEdgeDecomposition("sides must share exactly the contracted edge")
    if vertices_of(e1) & vertices_of(e2) != set(e):
        raise NotAValidSharedEdgeDecomposition("sides must meet exactly in the contracted nodes")

    side_data = []
    for side_edges in (e1, e2):
        side, relabel = _side_graph(side_edges)
        side_contracted, cmap = contract_edge(side, (relabel[e[0]], relabel[e[1]]))
        facets = enumerate_facets(build_configuration(side_contracted))
        # original node -> node of the contracted side
        total = {v: cmap[relabel[v]] for v in relabel}
        side_data.append((side_edges, total, facets, {f.support: f for f in facets}))

    images = []
    used = set()
    for cell in cells:
        pair = []
        for side_edges, total, facets, by_support in side_data:
            labels = [
                (i, j) for i, j in cell.points if edge(i, j) in side_edges and edge(i, j) != e
            ]
            support = tuple(sorted({(total[i], total[j]) for i, j in labels}))
            facet = by_support.get(support)
            if facet is None:
                raise CorrespondenceViolation(
                    f"side projection {support} is not a facet of that side"
                )
            pair.append(facet)
        key = (pair[0].support, pair[1].support)
        if key in used:
            raise CorrespondenceViolation("two cells project to the same facet pair")
        used.add(key)
        images.append(tuple(pair))
    expected = len(side_data[0][2]) * len(side_data[1][2])
    if len(cells) != expected:
        raise CorrespondenceViolation(
            f"{len(cells)} cells but {expected} facet pairs"
        )
    return Correspondence("product", tuple(images), (side_data[0][2], side_data[1][2]))


def _facet_is_simplicial(facet: FacetCertificate) -> bool:
    """A facet of an n'-dimensional adjacency polytope is simplicial when
    it has exactly n' supporting points (the empty facet trivially is)."""
    if not facet.normal:
        return True
    return len(facet.support) == len(facet.normal)


def check_simpliciality_transfer(cells, correspondence: Correspondence) -> bool:
    """Simplicial cells must map to simplicial facets (or facet pairs);
    ``correspondence`` is the one built from ``cells``, in their order."""
    return all(
        all(map(_facet_is_simplicial, (image,) if correspondence.mode == "single" else image))
        for cell, image in zip(cells, correspondence.images)
        if cell.is_simplicial()
    )


def verify_cell_support(config: PointConfiguration, e: Edge, cell: Cell) -> bool:
    """Definitional check of one cell against the lift of the graph's
    configuration ``config``: level h on its points, strictly above
    elsewhere, with h = 0 on the contracted pair."""
    # With gamma_0 = 0 in front, <e_i - e_j, gamma> = gamma[i] - gamma[j].
    # The lift weight (``lift_weight``) is 0 on the pair, 1 elsewhere.
    gamma, height = (0, *cell.gamma), cell.height
    k1, k2 = e
    pair = {(k1, k2), (k2, k1)}
    members = set(cell.points)
    for lab in config.labels:
        i, j = lab
        value = gamma[i] - gamma[j] + (lab not in pair)
        if lab in members:
            if value != height:
                return False
        elif value <= height:
            return False
    return True
