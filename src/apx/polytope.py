"""Point configurations of adjacency polytopes, facet enumeration, and an
exact normalized-volume oracle.

Geometry is done in integers and bitsets throughout.  Facets are read
off a connected graph: they are its integer potentials whose tight edges
connect the graph, found by a pruned depth-first search over the graph's
own adjacency configuration.  Volumes come from a placing
triangulation that keeps its own hull, seeded by one
``exactlin.eliminate`` pass (for a cell, the one its record reads): each
placed point is a beneath-beyond step whose new facets are read off the
horizon faces of the triangulation's boundary, in dimension 1 too, where
a horizon face is empty, and each simplex's volume is an exact integer
ratio off the simplex it is glued to.  The potential search and the
volume pipeline share no logic with each other, and tests re-derive
facets from a double description cone, from brute-force hyperplanes and
from a separate potential enumeration, and volumes from a placing oracle
driven by that cone and from per-simplex determinants.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import ApxError, TheoremViolation
from .exactlin import Elimination, IntVector, eliminate
from .graphcore import Graph

DirectedEdge = tuple[int, int]


def phi(label: DirectedEdge, dim: int) -> IntVector:
    """Point of the directed edge (i, j): e_i - e_j with e_0 = 0."""
    i, j = label
    v = [0] * dim
    if i > 0:
        v[i - 1] += 1
    if j > 0:
        v[j - 1] -= 1
    return tuple(v)


class PointConfiguration(NamedTuple):
    """Labeled points of an adjacency polytope, one per directed edge."""

    dim: int
    labels: tuple[DirectedEdge, ...]
    vectors: tuple[IntVector, ...]


def build_configuration(g: Graph) -> PointConfiguration:
    """All points +-(e_i - e_j) over the edges of a connected graph.

    The one-node graph yields the empty configuration in R^0 (whose only
    facet is the empty set by convention).
    """
    if not g.is_connected():
        raise ApxError("adjacency polytopes need a connected graph")
    n = g.node_count - 1
    labels = sorted({(i, j) for i, j in g.edges} | {(j, i) for i, j in g.edges})
    return PointConfiguration(n, tuple(labels), tuple(phi(lab, n) for lab in labels))


class FacetCertificate(NamedTuple):
    """A facet as (inner normal, support), normalized so that every
    supported point x satisfies <x, normal> = -1 and all points satisfy
    <x, normal> >= -1 (valid because 0 is interior).  The normal is an
    integer potential by construction (total unimodularity, see
    ``enumerate_facets``).  The support lists its labels, the tuples
    themselves, in sorted order."""

    normal: IntVector
    support: tuple[DirectedEdge, ...]

    def to_json_dict(self) -> dict:
        return {
            "normal": [str(a) for a in self.normal],
            "support": self.support,
        }


# ---------------------------------------------------------------------------
# Bitsets and integer vectors.
# ---------------------------------------------------------------------------


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of a mask, in increasing order."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def _reduce_ray(v: list[int]) -> IntVector:
    g = gcd(*v)
    if g > 1:
        v = [x // g for x in v]
    return tuple(v)


# ---------------------------------------------------------------------------
# Facets of an adjacency polytope.
# ---------------------------------------------------------------------------


def _potential_leaves(config: PointConfiguration):
    """Facets of an adjacency configuration as integer potentials: yields
    (normal, support mask over the labels) once per facet, unordered.

    The candidates are the f with f(0) = 0 and |f(u) - f(v)| <= 1 on
    every edge of the label graph; such an f is a facet normal iff its
    tight edges (|f(u) - f(v)| = 1) connect every node.  Nodes are valued
    in BFS order from 0, each within 1 of its BFS parent and of every
    other valued neighbour.  A branch ends as soon as its tight edges
    cannot connect every node: when more than |E| - n + 1 edges are slack
    (f(u) = f(v)), since a connected spanning subgraph keeps n - 1 of
    them tight, or when a component of the tight edges lacks a node but
    has no node left with a neighbour to value.  So every leaf is a
    facet.  In a bipartite graph no edge may be slack: the slack edges
    are then exactly the edges leaving {v : f(v) + d(0, v) odd}, which no
    tight edge leaves.  The search keeps its own stack, one frame of
    state per depth, not Python recursion: the components are node masks,
    one list per depth, and the support, the arcs (i, j) with
    f(j) - f(i) = 1, is a label mask that grows with the search.
    """
    labels = config.labels
    n = config.dim + 1
    arc = {lab: 1 << k for k, lab in enumerate(labels)}
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in labels:
        adj[i].append(j)
    order, pos, depth = [0], {0: 0}, {0: 0}
    for v in order:
        for w in sorted(adj[v]):
            if w not in pos:
                pos[w] = len(order)
                depth[w] = depth[v] + 1
                order.append(w)
    # From here on node order[k] is called k.  For each k: (a, bit of
    # node a, bit of arc a -> k, bit of arc k -> a) for every neighbour
    # a < k, and the mask of the nodes up to k with a neighbour after k.
    back = [
        [(pos[w], 1 << pos[w], arc[w, v], arc[v, w]) for w in adj[v] if pos[w] < k]
        for k, v in enumerate(order)
    ]
    last = [max(pos[w] for w in adj[v]) for v in order]
    active = [sum(1 << a for a in range(k + 1) if last[a] > k) for k in range(n)]
    bipartite = all((depth[i] + depth[j]) % 2 for i, j in labels)
    budget = 0 if bipartite else len(labels) // 2 - n + 1
    # Per depth k: the value of node k, the support mask and slack count
    # so far, the values left to try, and the components of the tight
    # edges among nodes 0..k as node masks.
    f, mask, slack = [0] * n, [0] * n, [0] * n
    todo: list[list[int]] = [[] for _ in range(n)]
    comps: list[list[int]] = [[1]] + [[] for _ in range(n - 1)]

    def window(k: int) -> list[int]:
        """The values node k may take, within the slack budget."""
        near = [f[a] for a, _, _, _ in back[k]]
        room = budget - slack[k - 1]
        return [x for x in range(max(near) - 1, min(near) + 2) if near.count(x) <= room]

    perm = [pos[v] for v in range(1, n)]
    k = 1
    todo[1] = window(1)
    while k:
        if not todo[k]:
            k -= 1
            continue
        x = f[k] = todo[k].pop()
        m, s = mask[k - 1], slack[k - 1]
        joined = 1 << k
        for a, bit, to_k, from_k in back[k]:
            d = x - f[a]
            if d == 1:
                m |= to_k
                joined |= bit
            elif d:
                m |= from_k
                joined |= bit
            else:
                s += 1
        # A component that k does not join and that has no node left with
        # a neighbour to value is closed: the branch ends.  So the last
        # node leaves one component.
        act = active[k]
        rest = []
        for c in comps[k - 1]:
            if c & joined:
                joined |= c
            elif c & act:
                rest.append(c)
            else:
                break
        else:
            if k == n - 1:
                yield tuple([f[p] for p in perm]), m
                continue
            rest.append(joined)
            mask[k], slack[k], comps[k] = m, s, rest
            k += 1
            todo[k] = window(k)


def enumerate_facets(g: Graph) -> list[FacetCertificate]:
    """All facets of the adjacency polytope of the connected graph g,
    ordered by normal.

    Normals are scaled so supported points sit at level -1, which is
    possible because the origin is interior.  For the one-node graph the
    single facet is the empty set.  A disconnected graph raises
    ApxError, from ``build_configuration``.

    The facets are the integer potentials f with f(0) = 0,
    |f(u) - f(v)| <= 1 on every edge, whose tight edges connect every
    node (Higashitani, Jochemko and Michalek 2019), found by the search
    of ``_potential_leaves``: a facet's support holds n - 1 independent
    points e_i - e_j, the arcs of a spanning tree, and the incidence
    matrix of a tree is totally unimodular, so the level -1 normal
    solving <x, f> = -1 on them is integral; validity is
    |f(u) - f(v)| <= 1, and the tight points span iff the tight edges
    connect.
    """
    config = build_configuration(g)
    if config.dim == 0:
        return [FacetCertificate((), ())]
    labels = config.labels
    return [
        FacetCertificate(normal, tuple([labels[i] for i in _bits(mask)]))
        for normal, mask in sorted(_potential_leaves(config))
    ]


# ---------------------------------------------------------------------------
# Placing triangulation and normalized volume.
# ---------------------------------------------------------------------------


class _PlacingState:
    """Placing triangulation of a full-dimensional point set, with the
    normalized volume of every simplex.

    Places an affine basis first (the greedy basis of the homogenized
    rows r = (x, 1) in ``elimination``, their ``eliminate`` pass), then
    every other point in label order, coning each new point over the hull
    facets it is beyond.  Any placing order yields a triangulation.
    Starting from a basis keeps the hull full-dimensional throughout.

    The hull is a list of facets, each under a stable id (its index in
    ``facets``, None marking a free id): a primitive inner normal v, the
    mask of the rows tight on it, and its boundary faces as {face mask:
    (volume of the simplex on the face, position of its opposite
    vertex)}.  ``tight[i]`` is the bitset of the ids of the facets tight
    on row i.  Masks are over placing positions; ``order`` maps them back
    to point indices.  The seed facets are the rows of d * B^-T for the
    seed basis B, from the same elimination, oriented by the sign of d;
    the seed simplex's volume is |d|.

    Placing point k is one beneath-beyond step (Grunbaum, Convex
    Polytopes; Edelsbrunner 1987), read off the triangulation's boundary
    with no search over pairs of facets.  One sparse dot pass sorts the
    facets into visible (<v, r_k> < 0), coplanar and hidden.  Each face of
    a visible facet is coned to r_k.  det(b, w) over the rows of a face b
    is linear in w and vanishes on the facet hyperplane <v, .> = 0, so
    coning b to r_k instead of its opposite vertex r_j scales the volume
    by -<v, r_k> / <v, r_j>, an exact integer ratio.  The ridges through
    r_k that occur in one new simplex only are the new boundary faces: a
    ridge met twice is interior and dropped.  Each such ridge minus r_k
    is a horizon face g, on the boundary between a visible facet q and a
    facet p that is not, and no other facet holds g: the AND of the
    ``tight`` bitsets over g's rows, taken before the insert, is exactly
    {q, p}, or the insert raises TheoremViolation.  The AND starts from
    the live facets, as g is empty in dimension 1, where the hull is two
    points and each is the other's p.  If p is coplanar with r_k it
    gains row k and the face g + r_k.  Otherwise the face goes to the one
    new facet made for the pair (q, p), with normal primitive(<v_p, r_k>
    v_q - <v_q, r_k> v_p) and tight rows (mask_q & mask_p) | k.  These
    are the pairs of adjacent facets with r_k strictly on opposite sides,
    the pairs a double description insert would combine (Fukuda and
    Prodon 1996): every new facet spans r_k and a hull ridge between a
    visible and a hidden facet, and the boundary triangulation puts a
    face on every such ridge.  A new facet takes the lowest free id, so
    ids stay below the largest facet count so far.
    """

    def __init__(self, vectors: list[IntVector], elimination: Elimination):
        d = len(vectors[0])
        basis = elimination.basis
        chosen = set(basis)
        self.order = basis + [i for i in range(len(vectors)) if i not in chosen]
        self.rows = [vectors[i] + (1,) for i in self.order]
        # (column, entry) pairs of each row's nonzero entries, for the
        # facet dot products.
        self.sparse = [[(c, a) for c, a in enumerate(r) if a] for r in self.rows]
        det = elimination.det
        sign = 1 if det > 0 else -1
        self.volume = abs(det)
        full = (1 << (d + 1)) - 1
        # Seed facet j is tight on every seed row but the j-th and holds
        # the seed simplex's face opposite position j.
        self.facets: list[tuple[IntVector, int, dict[int, tuple[int, int]]] | None] = [
            (_reduce_ray([sign * x for x in ray]), full ^ (1 << j), {full ^ (1 << j): (self.volume, j)})
            for j, ray in enumerate(elimination.inverse)
        ]
        self.tight = [full ^ (1 << i) for i in range(d + 1)] + [0] * (len(self.rows) - d - 1)
        self.live = full

    def insert(self, k: int) -> None:
        facets = self.facets
        bit = 1 << k
        ids = [j for j, f in enumerate(facets) if f is not None]
        normals = [facets[j][0] for j in ids]
        dots = [0] * len(ids)
        for c, a in self.sparse[k]:
            dots = [x + a * v[c] for x, v in zip(dots, normals)]
        visible = zero = 0
        for j, x in zip(ids, dots):
            if x < 0:
                visible |= 1 << j
            elif not x:
                zero |= 1 << j
        if visible:
            self._cone(k, visible, zero, dict(zip(ids, dots)))
        for j in _bits(zero):
            v, m, faces = facets[j]
            facets[j] = (v, m | bit, faces)
        self.tight[k] |= zero

    def _cone(self, k: int, visible: int, zero: int, dot: dict[int, int]) -> None:
        """Cone r_k over the visible facets and replace them by the new
        facets through r_k, filing every new boundary face."""
        facets, tight, sparse = self.facets, self.tight, self.sparse
        bit = 1 << k
        # ridge mask -> (volume, opposite position) of the one new simplex
        # it lies in so far; a ridge met twice is interior and dropped.
        ridges: dict[int, tuple[int, int]] = {}
        pop = ridges.pop
        added = 0
        for q in _bits(visible):
            v, _, faces = facets[q]
            beyond = -dot[q]
            for face, (vol, j) in faces.items():
                vol, rem = divmod(vol * beyond, sum(v[c] * a for c, a in sparse[j]))
                if rem:
                    raise TheoremViolation("placing volume is not an integer")
                added += vol
                simplex = face | bit
                rest = face
                while rest:
                    low = rest & -rest
                    ridge = simplex ^ low
                    if pop(ridge, None) is None:
                        ridges[ridge] = (vol, low.bit_length() - 1)
                    rest ^= low
        self.volume += added
        # The facets that hold a horizon face: the AND of the tight
        # bitsets of its rows, taken 8 rows at a time through a memo from
        # the face's rows in one block of 8 positions to their AND.
        live = self.live
        blocks: dict[int, int] = {}
        block_masks = [255 << s for s in range(0, k, 8)]
        # {q, p} bitset -> boundary faces of the new facet of that pair
        pairs: dict[int, dict[int, tuple[int, int]]] = {}
        for ridge, entry in ridges.items():
            horizon = ridge ^ bit
            common = live
            for m in block_masks:
                part = horizon & m
                if part:
                    try:
                        common &= blocks[part]
                    except KeyError:
                        t = live
                        for i in _bits(part):
                            t &= tight[i]
                        blocks[part] = t
                        common &= t
            seen = common & visible
            if common.bit_count() != 2 or seen.bit_count() != 1:
                raise TheoremViolation("horizon face is not on one visible and one other facet")
            p = common ^ seen
            if p & zero:
                facets[p.bit_length() - 1][2][ridge] = entry
            else:
                faces = pairs.get(common)
                if faces is None:
                    faces = pairs[common] = {}
                faces[ridge] = entry
        made = []
        for common, faces in pairs.items():
            seen = common & visible
            q, p = seen.bit_length() - 1, (common ^ seen).bit_length() - 1
            (vq, mq, _), (vp, mp, _) = facets[q], facets[p]
            dq, dp = dot[q], dot[p]
            normal = _reduce_ray([dp * a - dq * b for a, b in zip(vq, vp)])
            made.append((normal, (mq & mp) | bit, faces))
        keep = ~visible
        for i in range(k):
            tight[i] &= keep
        for q in _bits(visible):
            facets[q] = None
        live &= keep
        # New facets take the lowest free ids, then ids past the end.
        free = iter(_bits(~live & ((1 << len(facets)) - 1)))
        for facet in made:
            j = next(free, len(facets))
            if j == len(facets):
                facets.append(facet)
            else:
                facets[j] = facet
            live |= 1 << j
            for i in _bits(facet[1]):
                tight[i] |= 1 << j
        while facets[-1] is None:
            facets.pop()
        self.live = live

    def run(self) -> _PlacingState:
        for k in range(len(self.rows[0]), len(self.rows)):
            self.insert(k)
        return self


def _volume(vectors, elimination: Elimination) -> int:
    """The placing triangulation's volume, or 0 when the basis of the rows
    (x, 1) in R^(d+1) has at most d rows: the normalized d-volume of a set
    that does not span R^d.  The elimination keeps one row of its right
    block per coordinate of R^(d+1)."""
    if len(elimination.basis) < len(elimination.inverse):
        return 0
    return _PlacingState(vectors, elimination).run().volume


def normalized_volume_of_points(vectors) -> int:
    """Exact normalized volume (d! times Euclidean) of conv(vectors), for
    integer tuples in R^d; 0 when they do not span R^d.

    Triangulation oracle: the sum of the simplex volumes of the placing
    triangulation, the seed cone's determinant for the seed simplex and
    exact integer ratios for the rest.
    """
    if not vectors:
        raise ApxError("empty point set")
    return _volume(vectors, eliminate([v + (1,) for v in vectors], len(vectors[0]) + 1))


def normalized_volume(config: PointConfiguration) -> int:
    """Normalized volume of the adjacency polytope (1 in dimension zero,
    where the polytope is the single point 0)."""
    if config.dim == 0:
        return 1
    return normalized_volume_of_points(config.vectors)


def normalized_volume_of_cell(vectors, elimination: Elimination) -> int:
    """Triangulation oracle on a cell's points, seeded by the ``eliminate``
    pass of their rows (x, 1) that the cell's record reads; 0 when they do
    not span."""
    return _volume(vectors, elimination)
