"""Point configurations of adjacency polytopes, facet enumeration, and an
exact normalized-volume oracle.

Geometry is done in integers and bitsets throughout.  The facets of an
adjacency configuration are its integer potentials whose tight edges
connect the graph, found by a pruned depth-first search; a point
configuration of any other kind is refused.  Volumes come from a placing
triangulation whose hull is the ray list of a double description cone
(exact, incremental, seeded by one ``exactlin.eliminate`` pass; for a
cell, the one its record reads), and each simplex's volume is an exact
integer ratio off the simplex it is glued to.  The potential search and
the volume pipeline share no logic with each other, and tests re-derive
facets from the cone, from brute-force hyperplanes and from a separate
potential enumeration, and volumes from per-simplex determinants.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import and_
from typing import NamedTuple

from .errors import DisconnectedGraph, NotFullDimensional, TheoremViolation
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
        raise DisconnectedGraph("adjacency polytopes need a connected graph")
    n = g.node_count - 1
    labels = sorted({(i, j) for i, j in g.edges} | {(j, i) for i, j in g.edges})
    return PointConfiguration(n, tuple(labels), tuple(phi(lab, n) for lab in labels))


class FacetCertificate(NamedTuple):
    """A facet as (inner normal, support), normalized so that every
    supported point x satisfies <x, normal> = -1 and all points satisfy
    <x, normal> >= -1 (valid because 0 is interior).  The normal is an
    integer potential by construction (total unimodularity, see
    ``enumerate_facets``).  The support lists its labels, the tuples
    themselves, in label order."""

    normal: IntVector
    support: tuple[DirectedEdge, ...]

    def to_json_dict(self) -> dict:
        return {
            "normal": [str(a) for a in self.normal],
            "support": self.support,
        }


# ---------------------------------------------------------------------------
# Double description: extreme rays of {z : <row_i, z> >= 0} over the integers.
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


def _idot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


class DDCone:
    """Incremental double description for a pointed cone, in integers.

    ``rows`` are integer constraint vectors; the initial batch must have
    full rank (pointedness), else NotFullDimensional.  The start is
    simplicial: the rows of d * B^-T for the greedy row basis B, from
    ``eliminate`` (or ``seed``, that call's result when the caller has
    it), each reduced to a primitive vector and oriented into the cone by
    the sign of d, so ray j is tight on every basis row but the j-th.

    Every ray has a stable id, its index in ``slots`` (None marks a free
    id).  Each ray carries a bitmask of the rows it is tight on, and
    ``tight[i]`` is the bitset of the ids of the rays tight on row i.
    Both are kept exactly across inserts: a ray's bits are set when it is
    made, and when a new row is tight on it, and cleared when it is cut.
    A new ray takes the lowest free id, so no id reaches the largest ray
    count so far, and no bitset is wider than that.

    Inserting a row cuts the rays on its negative side and pairs each of
    them with the adjacent rays on its positive side.  The candidates for
    a negative ray come from one count: the ``tight`` bitsets of the rows
    in its mask are summed bit-sliced, and the positive rays counted at
    least dim - 2 times are kept.  Adjacency is the combinatorial test
    (Fukuda and Prodon 1996): two rays are adjacent iff no third ray is
    tight on every row both are tight on, decided by ANDing the ``tight``
    bitsets of those rows.  Dot products use only the nonzero entries of
    the row.  The ``rays`` property lists the live (vector, mask) pairs in
    id order, read off ``slots`` when asked for, not kept across inserts;
    ``add_row`` returns the rays cut off by the new halfspace, whose masks
    identify the facets visible from it.  ``seed_det`` is |det| of the
    seed basis rows, from the same elimination as the seed rays.
    """

    def __init__(self, dim: int, rows: list[IntVector], seed=None):
        self.dim = dim
        basis, _, seed_rays, det = seed or eliminate(rows, dim)
        if len(basis) < dim:
            raise NotFullDimensional(f"constraint rank {len(basis)} < {dim}")
        self.seed_det = abs(det)
        sign = 1 if det > 0 else -1
        full = sum(1 << i for i in basis)
        seed_ids = (1 << dim) - 1
        self.rows = list(rows)
        self.tight = [0] * len(rows)
        self.slots: list[tuple[IntVector, int] | None] = []
        for j, (i, ray) in enumerate(zip(basis, seed_rays)):
            self.slots.append((_reduce_ray([sign * x for x in ray]), full ^ (1 << i)))
            self.tight[i] = seed_ids ^ (1 << j)
        basis_set = set(basis)
        for i, row in enumerate(rows):
            if i not in basis_set:
                self._insert(i, row)

    @property
    def rays(self) -> list[tuple[IntVector, int]]:
        return [s for s in self.slots if s is not None]

    def add_row(self, row: IntVector) -> list[tuple[IntVector, int]]:
        idx = len(self.rows)
        self.rows.append(tuple(row))
        self.tight.append(0)
        return self._insert(idx, tuple(row))

    def _insert(self, idx: int, row: IntVector) -> list[tuple[IntVector, int]]:
        bit = 1 << idx
        slots, tight = self.slots, self.tight
        live_rays = [(j, s) for j, s in enumerate(slots) if s is not None]
        # Sparse dot products, one pass over the rays per nonzero entry.
        dots = [0] * len(live_rays)
        for c, a in enumerate(row):
            if a:
                dots = [d + a * v[c] for d, (_, (v, _)) in zip(dots, live_rays)]
        pos = neg_set = zero_set = 0
        pos_dot = {}
        neg = []
        zero = []
        for (j, ray), d in zip(live_rays, dots):
            if d > 0:
                pos |= 1 << j
                pos_dot[j] = d
            elif d:
                neg.append((j, ray, d))
                neg_set |= 1 << j
            else:
                zero.append((j, ray))
                zero_set |= 1 << j
        new_rays = []
        if pos and neg:
            live = pos | neg_set | zero_set
            needed = max(self.dim - 2, 0)
            for q, (vq, mq), dq in neg:
                on_q = [(1 << i, tight[i]) for i in _bits(mq)]
                cand = _at_least([t for _, t in on_q], needed) & pos
                for p in _bits(cand):
                    vp, mp = slots[p]
                    # The rays tight on every row of z include p and q;
                    # the pair is adjacent iff there are no others.
                    z = mp & mq
                    common = reduce(and_, [t for b, t in on_q if z & b], live)
                    if common != (1 << p) | (1 << q):
                        continue
                    dp = pos_dot[p]
                    combo = [dp * a - dq * b for a, b in zip(vq, vp)]
                    new_rays.append((_reduce_ray(combo), z | bit))
        for j, (v, m) in zero:
            slots[j] = (v, m | bit)
        if neg:
            keep = ~neg_set
            for i, t in enumerate(tight):
                tight[i] = t & keep
            for q, _, _ in neg:
                slots[q] = None
        tight[idx] = zero_set
        # New rays take the lowest free ids, then ids past the end.
        free = iter([j for j, s in enumerate(slots) if s is None])
        for ray in new_rays:
            j = next(free, len(slots))
            if j == len(slots):
                slots.append(ray)
            else:
                slots[j] = ray
            for i in _bits(ray[1]):
                tight[i] |= 1 << j
        while slots and slots[-1] is None:
            slots.pop()
        return [ray for _, ray, _ in neg]


def _at_least(sets: list[int], needed: int) -> int:
    """Bitset of the elements that lie in at least ``needed`` >= 0 of
    ``sets`` (all of them, as -1, when ``needed`` is 0), by a bit-sliced
    count: slice k holds bit k of every element's count."""
    slices: list[int] = []
    for x in sets:
        for k, s in enumerate(slices):
            if not x:
                break
            slices[k] = s ^ x
            x &= s
        if x:
            slices.append(x)
    if needed >> len(slices):
        return 0
    # Compare each count with ``needed``, most significant slice first.
    above, equal = 0, -1
    for k in range(len(slices) - 1, -1, -1):
        s = slices[k]
        if needed >> k & 1:
            equal &= s
        else:
            above |= equal & s
            equal &= ~s
    return above | equal


# ---------------------------------------------------------------------------
# Facets of an adjacency polytope.
# ---------------------------------------------------------------------------


def _is_adjacency_configuration(config: PointConfiguration) -> bool:
    """Whether ``config`` is the adjacency configuration of its own
    labels: distinct labels (i, j), i != j, on nodes 0..dim, closed under
    reversal, each with the point phi(i, j)."""
    labels, dim = config.labels, config.dim
    present = set(labels)
    return len(present) == len(labels) == len(config.vectors) and all(
        0 <= i <= dim and 0 <= j <= dim and i != j and (j, i) in present
        and tuple(v) == phi((i, j), dim)
        for (i, j), v in zip(labels, config.vectors)
    )


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
    f(j) - f(i) = 1, is a label mask that grows with the search.  A label graph that does not connect
    its nodes raises NotFullDimensional: its points span less.
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
    if len(order) < n:
        raise NotFullDimensional("the label graph does not connect its nodes")
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


def enumerate_facets(config: PointConfiguration) -> list[FacetCertificate]:
    """All facets of the adjacency polytope, ordered by normal.

    Normals are scaled so supported points sit at level -1, which is
    possible because the origin is interior.  For the zero-dimensional
    configuration the single facet is the empty set.  A configuration
    that is not the adjacency configuration of its own labels (what
    ``build_configuration`` makes, in any label order) raises ValueError;
    one whose label graph does not connect its nodes raises
    NotFullDimensional.

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
    if not _is_adjacency_configuration(config):
        raise ValueError("not the adjacency configuration of its labels")
    if config.dim == 0:
        return [FacetCertificate((), ())]
    # A support lists its labels in label order, which is sorted order for
    # the configurations ``build_configuration`` makes.
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
    Starting from a basis keeps the hull full-dimensional throughout, so
    its facet list is the ray list of one DDCone over the rows, seeded by
    the same elimination, and placing one more point is one incremental
    cone update whose removed rays are the visible facets.

    The boundary of the triangulation is kept per hull facet, as facet
    ray -> {face mask: (volume of the simplex on the face, position of its
    opposite vertex)}, so a visible facet hands over its faces directly.
    Only the seed simplex takes a determinant, the last pivot of the
    elimination.  Every other volume follows from the simplex it is glued
    to: det(b, w) over the rows of a face b is linear in w and vanishes on
    the facet hyperplane <v, .> = 0 of the face, so coning b to the new
    point r_k instead of its opposite vertex r_j scales the volume by
    -<v, r_k> / <v, r_j>, both dot products taken over the nonzero
    entries of the rows only.  The new
    boundary faces are the ridges that occur in exactly one new simplex:
    a ridge is dropped when a second new simplex has it.  Each is filed
    under the one facet through r_k that contains it, the one ray left
    by ANDing the cone's ``tight`` bitsets of its rows; the cone's row i
    is the point at placing position i.  Masks are over placing
    positions; ``order`` maps them back to point indices.
    """

    def __init__(self, vectors: list[IntVector], elimination: Elimination):
        d = len(vectors[0])
        basis = elimination.basis
        if len(basis) < d + 1:
            raise NotFullDimensional(f"affine dimension {len(basis) - 1} < {d}")
        chosen = set(basis)
        self.order = basis + [i for i in range(len(vectors)) if i not in chosen]
        self.rows = [vectors[i] + (1,) for i in self.order]
        # (column, entry) pairs of each row's nonzero entries, for the
        # facet dot products of the volume ratios.
        self.sparse = [[(c, a) for c, a in enumerate(r) if a] for r in self.rows]
        # The cone's seed basis is its d + 1 rows, in this order.
        cone_seed = elimination._replace(basis=list(range(d + 1)))
        self.cone = DDCone(d + 1, self.rows[: d + 1], cone_seed)
        full = (1 << (d + 1)) - 1
        seed = self.cone.seed_det
        self.simplices: list[int] = [full]
        self.volume = seed
        # facet ray -> {boundary face mask: (volume, opposite position)}
        self.faces: dict[IntVector, dict[int, tuple[int, int]]] = {
            v: {m: (seed, (full ^ m).bit_length() - 1)} for v, m in self.cone.rays
        }

    def insert(self, k: int) -> None:
        removed = self.cone.add_row(self.rows[k])
        if not removed:
            return
        sparse = self.sparse
        on_k = sparse[k]
        bit = 1 << k
        # ridge mask -> (volume, opposite position) of the one new simplex
        # it lies in so far; a ridge met twice is interior and dropped.
        ridges: dict[int, tuple[int, int]] = {}
        for v, _ in removed:
            beyond = -sum(v[c] * a for c, a in on_k)
            for face, (vol, j) in self.faces.pop(v).items():
                vol, rem = divmod(vol * beyond, sum(v[c] * a for c, a in sparse[j]))
                if rem:
                    raise TheoremViolation("placing volume is not an integer")
                simplex = face | bit
                self.simplices.append(simplex)
                self.volume += vol
                rest = face
                while rest:
                    low = rest & -rest
                    ridge = simplex ^ low
                    if ridges.pop(ridge, None) is None:
                        ridges[ridge] = (vol, low.bit_length() - 1)
                    rest ^= low
        # The facet of a boundary ridge is the one ray tight on all of its
        # rows, read off the cone's per-row bitsets of tight ray ids.
        tight, slots = self.cone.tight, self.cone.slots
        for ridge, entry in ridges.items():
            common = tight[k]
            rest = ridge ^ bit
            while rest:
                low = rest & -rest
                common &= tight[low.bit_length() - 1]
                rest ^= low
            if not common or common & (common - 1):
                raise TheoremViolation("boundary face is not in exactly one hull facet")
            self.faces.setdefault(slots[common.bit_length() - 1][0], {})[ridge] = entry

    def run(self) -> _PlacingState:
        for k in range(self.cone.dim, len(self.rows)):
            self.insert(k)
        return self


def _lattice_points(vectors) -> list[IntVector]:
    out = []
    for v in vectors:
        p = tuple(map(int, v))
        if p != tuple(v):
            raise ValueError(f"non-lattice point {tuple(v)}")
        out.append(p)
    return out


def _placing(vectors) -> _PlacingState:
    """The placing state of lattice points, from their own elimination."""
    vectors = _lattice_points(vectors)
    if not vectors:
        raise NotFullDimensional("empty point set")
    return _PlacingState(vectors, eliminate([v + (1,) for v in vectors], len(vectors[0]) + 1))


def placing_triangulation(vectors) -> list[tuple[int, ...]]:
    """Simplices (index tuples) of the placing triangulation that places
    the greedy affine basis first and the other points in the given
    order.  Interior points are skipped, so every simplex is
    full-dimensional.  Raises NotFullDimensional unless the points span
    their ambient space affinely."""
    vectors = _lattice_points(vectors)
    if len(set(vectors)) != len(vectors):
        raise ValueError("points must be distinct")
    state = _placing(vectors).run()
    return sorted(
        tuple(sorted(i for p, i in enumerate(state.order) if s >> p & 1))
        for s in state.simplices
    )


def normalized_volume_of_points(vectors) -> int:
    """Exact normalized volume (d! times Euclidean) of conv(vectors).

    Triangulation oracle: the sum of the simplex volumes of the placing
    triangulation, the seed cone's determinant for the seed simplex and
    exact integer ratios for the rest; a positive integer for
    full-dimensional lattice input.
    """
    return _placing(vectors).run().volume


def normalized_volume(config: PointConfiguration) -> int:
    """Normalized volume of the adjacency polytope (1 in dimension zero,
    where the polytope is the single point 0)."""
    if config.dim == 0:
        return 1
    return normalized_volume_of_points(config.vectors)


def normalized_volume_of_cell(vectors, elimination: Elimination) -> int:
    """Triangulation oracle on a cell's points, seeded by the ``eliminate``
    pass of their rows (x, 1) that the cell's record reads."""
    return _PlacingState(vectors, elimination).run().volume
