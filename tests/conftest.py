"""Shared fixtures: worked-example graphs used across the suite and
independent brute-force oracles that cross-check the production algorithms."""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import strategies as st

from apx.errors import ApxError, TheoremViolation
from apx.exactlin import eliminate
from apx.graphcore import Graph, edge
from apx.polytope import _bits, _reduce_ray, build_configuration, normalized_volume_of_cell
from apx.subdivision import Cell, cells_with_facets


class NotFullDimensional(Exception):
    """A reference's point set or constraint rows do not span their space:
    the double description cone and the reference placing refuse them,
    where the production oracle answers volume 0."""


# Five-cycle with one chord; contracting {0, 4} gives a square plus chord.
CHORDED_PENTAGON_EDGES = [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4), (1, 3)]

# The seven-node running example built from two subgraphs sharing {0, 3}.
RUNNING_EXAMPLE_EDGES = [
    (0, 1),
    (0, 3),
    (1, 2),
    (0, 2),
    (2, 3),
    (0, 6),
    (3, 4),
    (4, 5),
    (6, 5),
    (5, 3),
    (5, 0),
]

# Directed cell subgraph of the corank-2 cell of that example.
CORANK2_CELL_ARCS = [(1, 2), (0, 3), (3, 0), (0, 2), (3, 2), (0, 6), (3, 4), (3, 5), (0, 5)]

# Highlighted balanced subgraph with two cycles from the same example.
TWO_TRIANGLE_BALANCED_EDGES = [(0, 3), (0, 2), (2, 3), (3, 5), (0, 5)]


def cycle_graph(k: int) -> Graph:
    return Graph.from_edges([(i, i + 1) for i in range(k - 1)] + [(0, k - 1)])


def path_graph(k: int) -> Graph:
    return Graph.from_edges([(i, i + 1) for i in range(k - 1)])


def star_graph(k: int) -> Graph:
    return Graph.from_edges([(0, i) for i in range(1, k)])


def chorded_pentagon() -> Graph:
    return Graph.from_edges(CHORDED_PENTAGON_EDGES)


def running_example() -> Graph:
    return Graph.from_edges(RUNNING_EXAMPLE_EDGES)


def complete_graph(k: int) -> Graph:
    return Graph.from_edges(combinations(range(k), 2))


def wheel_graph(k: int) -> Graph:
    """W_k: a hub joined to every node of a (k - 1)-cycle."""
    rim = [(i, i % (k - 1) + 1) for i in range(1, k)]
    return Graph.from_edges([(0, i) for i in range(1, k)] + rim)


def grid_graph(rows: int, cols: int) -> Graph:
    right = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    down = [(v, v + cols) for v in range(rows * cols - cols)]
    return Graph.from_edges(right + down)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(outer + inner + [(i, i + 5) for i in range(5)])


def prism_graph(k: int) -> Graph:
    top = [(i, (i + 1) % k) for i in range(k)]
    bottom = [(u + k, v + k) for u, v in top]
    return Graph.from_edges(top + bottom + [(i, i + k) for i in range(k)])


# Named (graph, contraction edge) instances from one edge up to a few
# thousand cells.
NAMED_LADDER = {
    "K2": (Graph.from_edges([(0, 1)]), (0, 1)),
    "running": (running_example(), (0, 3)),
    "W7": (wheel_graph(7), (0, 1)),
    "K6": (complete_graph(6), (0, 1)),
    "K7": (complete_graph(7), (0, 1)),
    "petersen": (petersen_graph(), (0, 1)),
    "prism5": (prism_graph(5), (0, 1)),
    "C12": (cycle_graph(12), (0, 1)),
    "grid3x4": (grid_graph(3, 4), (0, 1)),
}


def random_connected_graph(rng: random.Random, max_nodes: int = 7, max_edges: int = 12) -> Graph:
    """Random connected simple graph: a random spanning tree plus extras."""
    n = rng.randint(2, max_nodes)
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = set()
    for i in range(1, n):
        edges.add(edge(nodes[i], nodes[rng.randrange(i)]))
    pool = [edge(u, v) for u, v in combinations(range(n), 2) if edge(u, v) not in edges]
    rng.shuffle(pool)
    budget = rng.randint(0, max(0, min(max_edges, len(edges) + len(pool)) - len(edges)))
    for e in pool[:budget]:
        edges.add(e)
    return Graph.from_edges(edges)


@st.composite
def connected_graphs(draw, max_nodes=7):
    """A random spanning tree on 0..n-1 plus a random set of other edges."""
    n = draw(st.integers(2, max_nodes))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.sets(st.sampled_from(list(combinations(range(n), 2)))))
    return Graph.from_edges(tree | extra)


@st.composite
def edge_lists(draw, max_nodes=7):
    """Distinct edges on 0..n-1 in a drawn order; not necessarily connected."""
    n = draw(st.integers(2, max_nodes))
    return draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True))


def random_tree(rng: random.Random, max_nodes: int = 8) -> Graph:
    n = rng.randint(2, max_nodes)
    nodes = list(range(n))
    rng.shuffle(nodes)
    return Graph.from_edges([(nodes[i], nodes[rng.randrange(i)]) for i in range(1, n)])


# ---------------------------------------------------------------------------
# Reference linear algebra over the rationals, by reduced row echelon form
# in Fractions; shares no code with apx.exactlin.
# ---------------------------------------------------------------------------


def _rref(rows, cols):
    """Reduced row echelon form; returns (reduced rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
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
    return rows, pivots


def reference_rank(rows) -> int:
    rows = list(rows)
    return len(_rref(rows, len(rows[0]))[1]) if rows else 0


def reference_solve(rows, rhs):
    """The solution of the nonsingular square system ``rows @ x = rhs``;
    None when the matrix is singular."""
    n = len(rows)
    reduced, pivots = _rref([list(r) + [b] for r, b in zip(rows, rhs)], n)
    if len(pivots) != n:
        return None
    return tuple(reduced[i][n] for i in range(n))


def reference_is_affinely_independent(points) -> bool:
    return reference_rank([tuple(p) + (1,) for p in points]) == len(points)


def reference_affine_kernel(points):
    """Basis of the affine dependences of the points: one kernel vector of
    the homogenized columns (x_i, 1) per free column of the reduced row
    echelon form, scaled to coprime integers with the first nonzero entry
    positive."""
    points = list(points)
    cols = len(points)
    if not cols:
        return ()
    rows = [[p[i] for p in points] for i in range(len(points[0]))] + [[1] * cols]
    reduced, pivots = _rref(rows, cols)
    kernel = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        scale = lcm(*(x.denominator for x in v))
        ints = [int(x * scale) for x in v]
        g = gcd(*ints)
        if next(x for x in ints if x) < 0:
            g = -g
        kernel.append(tuple(x // g for x in ints))
    return tuple(kernel)


def reference_is_circuit(points) -> bool:
    """Minimal affine dependence by |C| + 1 rank tests: dependent, and
    independent after dropping any one point."""
    points = list(points)
    return not reference_is_affinely_independent(points) and all(
        reference_is_affinely_independent(points[:i] + points[i + 1 :])
        for i in range(len(points))
    )


# ---------------------------------------------------------------------------
# Brute-force oracles (independent of the production code paths).
# ---------------------------------------------------------------------------


def brute_force_facets(vectors, dim):
    """Facet certificates by exhaustive candidate-hyperplane search: every
    dim-subset of rank dim yields a normal via a linear solve, kept when
    the whole set satisfies <x, a> >= -1.  Needs 0 in the interior."""
    seen = {}
    for subset in combinations(range(len(vectors)), dim):
        rows = [vectors[i] for i in subset]
        alpha = reference_solve(rows, [-1] * dim)
        if alpha is None:
            continue
        values = [sum(a * b for a, b in zip(v, alpha)) for v in vectors]
        if any(val < -1 for val in values):
            continue
        support = tuple(i for i, val in enumerate(values) if val == -1)
        seen[alpha] = support
    return sorted(seen.items())


def validate_facet(config, cert) -> bool:
    """Re-check a facet certificate against the definitional inequalities,
    in integers: level -1 on its support, at least -1 elsewhere, and a
    support of full rank."""
    scale = lcm(*(a.denominator for a in cert.normal))
    normal = [int(a * scale) for a in cert.normal]
    support = set(cert.support)
    tight = []
    for lab, x in zip(config.labels, config.vectors):
        value = sum(a * b for a, b in zip(x, normal))
        if lab in support:
            if value != -scale:
                return False
            tight.append(x)
        elif value < -scale:
            return False
    return reference_rank(tight) == config.dim


def regular_subdivision_supports(vectors, weights):
    """Full-dimensional cells of the regular subdivision of a point set.

    Each cell is the tight set of a lower facet of the lifted hull, i.e.
    a vertex (gamma, h) of {(a, h) : <x_i, a> + w_i >= h}; those vertices
    are the extreme rays (t * gamma, t * h, t) with t > 0 of the
    homogenized cone.  Returns each such primitive integer ray with its
    tight mask over point indices, in the cone's ray order; dividing by
    t is the caller's.  Raises NotFullDimensional unless the points
    affinely span their space.
    """
    d = len(vectors[0])
    rows = [tuple(v) + (-1, int(w)) for v, w in zip(vectors, weights)]
    rows.append((0,) * (d + 1) + (1,))
    drop = ~(1 << len(vectors))
    return [(v, mask & drop) for v, mask in DDCone(d + 2, rows).rays if v[-1] > 0]


def cells_of(g: Graph, e) -> list[Cell]:
    """The cells of the subdivision induced by contracting e, in the order
    of gamma: the cells of ``cells_with_facets`` without their facets."""
    return [cell for cell, _ in cells_with_facets(g, e)]


def cell_volume(cell: Cell) -> int:
    """The oracle volume of a cell, seeded by the elimination of its
    record, as ``subdivide`` and ``verify`` compute it."""
    rec = cell.record()
    return normalized_volume_of_cell(rec.vectors, rec.elimination)


def lift_weight(label, e) -> int:
    """The contraction lift: 0 on the two contracted points, 1 elsewhere."""
    return 0 if edge(*label) == edge(*e) else 1


def lift_subdivision(g: Graph, e) -> list:
    """The cells of the edge contraction subdivision as the lower faces of
    the lift, by double description: the reference for the cells built
    from the contracted graph's facets.  Each lift ray (t * gamma, t * h,
    t) must be integral after division by t, with h = 0; cells are sorted
    by gamma."""
    e = edge(*e)
    config = build_configuration(g)
    n = config.dim
    if len(g.edges) == 1:
        # The lift is affine here, so the subdivision is the whole polytope.
        return [Cell(config.labels, (0,) * n)]
    weights = [lift_weight(lab, e) for lab in config.labels]
    cells = []
    for ray, mask in regular_subdivision_supports(config.vectors, weights):
        t = ray[-1]
        assert not any(x % t for x in ray), ray
        assert ray[-2] == 0, ray
        labels = tuple(lab for i, lab in enumerate(config.labels) if mask >> i & 1)
        cells.append(Cell(labels, tuple(x // t for x in ray[:-2])))
    cells.sort(key=lambda c: c.gamma)
    return cells


def interior_lift_subcells(cell, point):
    """Subcells of the regular subdivision of a cell induced by lifting a
    single point to height 1 (the census used in the corank-2 proof)."""
    weights = [1 if lab == point else 0 for lab in cell.points]
    return [
        tuple(lab for i, lab in enumerate(cell.points) if mask >> i & 1)
        for _, mask in regular_subdivision_supports(cell.record().vectors, weights)
    ]


def potential_facets(g: Graph):
    """Facets of the adjacency polytope from integer potentials, sharing
    no code with the cone engine: f with f(0) = 0 and |f(u) - f(v)| <= 1
    on every edge is a facet normal iff its tight edges form a connected
    spanning subgraph (Higashitani-Jochemko-Michalek 2019).  DFS over the
    nodes in BFS order from 0, each within 1 of its BFS parent.  Returns
    {(f(1), ..., f(n-1)): support}, the support being the directed edges
    (i, j) with f(j) - f(i) = 1."""
    adj = g.adjacency()
    n = g.node_count
    order, parent = [0], {0: None}
    for v in order:
        for w in sorted(adj[v]):
            if w not in parent:
                parent[w] = v
                order.append(w)
    f = {0: 0}
    found = {}

    def tight_edges_span():
        reached, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if abs(f[v] - f[w]) == 1 and w not in reached:
                    reached.add(w)
                    stack.append(w)
        return len(reached) == n

    def extend(k):
        if k == n:
            if tight_edges_span():
                support = sorted(
                    (i, j) for u, v in g.edges for i, j in ((u, v), (v, u)) if f[j] - f[i] == 1
                )
                found[tuple(f[v] for v in range(1, n))] = tuple(support)
            return
        v = order[k]
        for value in (f[parent[v]] - 1, f[parent[v]], f[parent[v]] + 1):
            if all(abs(value - f[w]) <= 1 for w in adj[v] if w in f):
                f[v] = value
                extend(k + 1)
                del f[v]

    extend(1)
    return found


def brute_force_subdivision(vectors, weights, dim):
    """Cells of a regular subdivision by exhaustive search over simplex
    bases of the lifted lower hull."""
    cells = {}
    for subset in combinations(range(len(vectors)), dim + 1):
        rows = [tuple(vectors[i]) + (-1,) for i in subset]
        sol = reference_solve(rows, [-weights[i] for i in subset])
        if sol is None:
            continue
        gamma, h = sol[:-1], sol[-1]
        values = [sum(a * b for a, b in zip(v, gamma)) + w - h for v, w in zip(vectors, weights)]
        if any(val < 0 for val in values):
            continue
        support = tuple(i for i, val in enumerate(values) if val == 0)
        cells[(gamma, h)] = support
    return sorted(cells.items())


def reference_components(vertices, edges) -> list[set[int]]:
    """Components of the graph on ``vertices`` with ``edges``, by depth-first
    search from each unseen vertex in label order."""
    adj = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, components = set(), []
    for start in sorted(adj):
        if start in seen:
            continue
        component, stack = {start}, [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in component:
                    component.add(w)
                    stack.append(w)
        seen |= component
        components.append(component)
    return components


def reference_is_plain_cycle(edges) -> bool:
    """At least three edges, every degree 2, and connected."""
    vertices = {v for e in edges for v in e}
    degrees = [sum(v in e for e in edges) for v in vertices]
    return (
        len(edges) >= 3
        and all(d == 2 for d in degrees)
        and len(reference_components(vertices, edges)) == 1
    )


def brute_force_cycles(g: Graph):
    """All simple cycles as edge sets, by DFS over vertex paths."""
    adj = g.adjacency()
    cycles = set()

    def extend(path: list[int]):
        start, last = path[0], path[-1]
        for nxt in sorted(adj[last]):
            if nxt == start and len(path) >= 3:
                cyc = frozenset(
                    edge(path[i], path[(i + 1) % len(path)]) for i in range(len(path))
                )
                cycles.add(cyc)
            elif nxt > start and nxt not in path:
                extend(path + [nxt])

    for s in range(g.node_count):
        extend([s])
    return sorted(cycles, key=lambda c: (len(c), sorted(c)))


def brute_force_directed_cycles(arcs):
    """All directed cycles of a digraph without loops, as arc sets, by DFS
    over simple paths from their least node."""
    out: dict[int, list[int]] = {}
    for i, j in arcs:
        out.setdefault(i, []).append(j)
    cycles = set()

    def extend(path: list[int]):
        start = path[0]
        for nxt in out.get(path[-1], ()):
            if nxt == start:
                cycles.add(frozenset(zip(path, path[1:] + [start])))
            elif nxt > start and nxt not in path:
                extend(path + [nxt])

    for s in sorted(out):
        extend([s])
    return cycles


def brute_force_balanced_circuit_rank(g: Graph, e) -> int:
    """Max cyclomatic number over the balanced edge subsets that contain
    e, checked against the full cycle list of each subset."""
    from apx.graphcore import cyclomatic_number

    e = edge(*e)
    others = [f for f in g.sorted_edges() if f != e]
    best = 0
    for r in range(len(others) + 1):
        for rest in combinations(others, r):
            subset = (e, *rest)
            sub = Graph(g.node_count, frozenset(subset))
            balanced = all(
                len(cyc - {e}) % 2 == 0 for cyc in brute_force_cycles(sub)
            )
            if balanced:
                best = max(best, cyclomatic_number(subset))
    return best


def exchange_axioms_hold(independent, n) -> bool:
    """Matroid test by the independence axioms, over the masks with
    ``independent[mask]``: the empty set is independent, the family is
    downward closed, and for independent A and B with |B| = |A| + 1 some
    element of B - A extends A.  Under downward closure that pairwise
    exchange suffices: for a larger B, any (|A| + 1)-subset B' of B is
    independent, and the element that exchange supplies for (A, B') also
    lies in B - A."""
    if not independent[0]:
        return False
    indep_masks = [m for m in range(1 << n) if independent[m]]
    if any(m >> b & 1 and not independent[m & ~(1 << b)] for m in indep_masks for b in range(n)):
        return False
    by_size = {}
    for m in indep_masks:
        by_size.setdefault(m.bit_count(), []).append(m)
    return all(
        any(independent[a | 1 << bit] for bit in range(n) if (b & ~a) >> bit & 1)
        for a in indep_masks
        for b in by_size.get(a.bit_count() + 1, ())
    )


def reference_rank_table(independent, n) -> list[int]:
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


def reference_check_matroid_axioms(independent, n) -> None:
    """The matroid axiom check mask by mask: the same tests, verdicts and
    messages as ``matroid_tables.check_matroid_axioms``, by a scan of every
    mask and every pair of elements against a rank table."""
    if not independent[0]:
        raise TheoremViolation("empty set not independent")
    for m in range(1 << n):
        if independent[m]:
            for b in range(n):
                if m >> b & 1 and not independent[m & ~(1 << b)]:
                    raise TheoremViolation(f"downward closure fails at mask {m:b}")
    rank = reference_rank_table(independent, n)
    for x in range(1 << n):
        rx = rank[x]
        # The rank rises by at most 1 per element, so the inequality can
        # only fail for a and b that both leave the rank of X unchanged.
        flat = [1 << b for b in range(n) if not x >> b & 1 and rank[x | 1 << b] == rx]
        for i, a in enumerate(flat):
            for b in flat[i + 1:]:
                if rank[x | a | b] != rx:
                    raise TheoremViolation(
                        f"exchange fails: rank not submodular at mask {x:b} "
                        f"with elements {a:b}, {b:b}"
                    )


def integer_determinant(rows) -> int:
    """Bareiss fraction-free determinant of an integer matrix, the
    reference for the placing volumes."""
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


def reference_dd(rays, dim, idx, row):
    """One double-description insert by the plain scan: ``rays`` are the
    (vector, tight-row mask) pairs of a pointed cone, and row ``idx`` is
    added.  The tight sets are rebuilt from the masks, every positive ray
    is paired with every negative one sharing at least dim - 2 rows, and
    a pair is adjacent iff no third ray is tight on every row both are
    tight on (Fukuda and Prodon 1996).  Returns (rays after, cut rays)."""
    bit = 1 << idx
    dots = [sum(a * b for a, b in zip(row, v)) for v, _ in rays]
    pos = [p for p, d in enumerate(dots) if d > 0]
    zero = [(v, m | bit) for (v, m), d in zip(rays, dots) if d == 0]
    neg = [q for q, d in enumerate(dots) if d < 0]
    tight = {}
    for p, (_, m) in enumerate(rays):
        for i in range(m.bit_length()):
            if m >> i & 1:
                tight[i] = tight.get(i, 0) | 1 << p
    everything = (1 << len(rays)) - 1
    new_rays = []
    for p in pos:
        vp, mp = rays[p]
        for q in neg:
            vq, mq = rays[q]
            z = mp & mq
            if z.bit_count() < dim - 2:
                continue
            common = everything
            for i in range(z.bit_length()):
                if z >> i & 1:
                    common &= tight[i]
            if common != (1 << p) | (1 << q):
                continue
            combo = [dots[p] * a - dots[q] * b for a, b in zip(vq, vp)]
            g = gcd(*combo)
            new_rays.append((tuple(x // g for x in combo), z | bit))
    return [rays[p] for p in pos] + zero + new_rays, [rays[q] for q in neg]


# ---------------------------------------------------------------------------
# Double description, and the placing oracle it drove: the references for
# hull facets, lower hulls and the placing volumes.
# ---------------------------------------------------------------------------


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
    id order; ``add_row`` returns the rays cut off by the new halfspace,
    whose masks identify the facets visible from it.  ``seed_det`` is
    |det| of the seed basis rows, from the same elimination as the seed
    rays.
    """

    def __init__(self, dim: int, rows, seed=None):
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
        self.slots = []
        for j, (i, ray) in enumerate(zip(basis, seed_rays)):
            self.slots.append((_reduce_ray([sign * x for x in ray]), full ^ (1 << i)))
            self.tight[i] = seed_ids ^ (1 << j)
        basis_set = set(basis)
        for i, row in enumerate(rows):
            if i not in basis_set:
                self._insert(i, row)

    @property
    def rays(self):
        return [s for s in self.slots if s is not None]

    def add_row(self, row):
        idx = len(self.rows)
        self.rows.append(tuple(row))
        self.tight.append(0)
        return self._insert(idx, tuple(row))

    def _insert(self, idx, row):
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
                cand = at_least([t for _, t in on_q], needed) & pos
                for p in _bits(cand):
                    vp, mp = slots[p]
                    # The rays tight on every row of z include p and q;
                    # the pair is adjacent iff there are no others.
                    z = mp & mq
                    common = live
                    for b, t in on_q:
                        if z & b:
                            common &= t
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


def at_least(sets, needed: int) -> int:
    """Bitset of the elements that lie in at least ``needed`` >= 0 of
    ``sets`` (all of them, as -1, when ``needed`` is 0), by a bit-sliced
    count: slice k holds bit k of every element's count."""
    slices = []
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


class ReferencePlacing:
    """The placing triangulation of ``apx.polytope._PlacingState`` (same
    placing order, same simplices and volumes), with its hull kept as the
    ray list of a DDCone over the rows: each placed point is one cone
    insert, whose cut rays are the visible facets, and each new boundary
    face is filed under the one ray left by ANDing the cone's ``tight``
    bitsets of its rows.  Keeps every simplex, as a mask over placing
    positions, in ``simplices``; ``faces`` maps each facet ray to {face
    mask: (volume, opposite position)}."""

    def __init__(self, vectors, elimination):
        d = len(vectors[0])
        basis = elimination.basis
        if len(basis) < d + 1:
            raise NotFullDimensional(f"affine dimension {len(basis) - 1} < {d}")
        chosen = set(basis)
        self.order = basis + [i for i in range(len(vectors)) if i not in chosen]
        self.rows = [vectors[i] + (1,) for i in self.order]
        self.sparse = [[(c, a) for c, a in enumerate(r) if a] for r in self.rows]
        cone_seed = elimination._replace(basis=list(range(d + 1)))
        self.cone = DDCone(d + 1, self.rows[: d + 1], cone_seed)
        full = (1 << (d + 1)) - 1
        seed = self.cone.seed_det
        self.simplices = [full]
        self.volume = seed
        self.faces = {v: {m: (seed, (full ^ m).bit_length() - 1)} for v, m in self.cone.rays}

    def insert(self, k: int) -> None:
        removed = self.cone.add_row(self.rows[k])
        if not removed:
            return
        sparse = self.sparse
        bit = 1 << k
        ridges = {}
        for v, _ in removed:
            beyond = -sum(v[c] * a for c, a in sparse[k])
            for face, (vol, j) in self.faces.pop(v).items():
                vol, rem = divmod(vol * beyond, sum(v[c] * a for c, a in sparse[j]))
                if rem:
                    raise TheoremViolation("placing volume is not an integer")
                simplex = face | bit
                self.simplices.append(simplex)
                self.volume += vol
                for low in _bits(face):
                    ridge = simplex ^ (1 << low)
                    if ridges.pop(ridge, None) is None:
                        ridges[ridge] = (vol, low)
        tight, slots = self.cone.tight, self.cone.slots
        for ridge, entry in ridges.items():
            common = tight[k]
            for i in _bits(ridge ^ bit):
                common &= tight[i]
            if not common or common & (common - 1):
                raise TheoremViolation("boundary face is not in exactly one hull facet")
            self.faces.setdefault(slots[common.bit_length() - 1][0], {})[ridge] = entry

    def run(self):
        for k in range(self.cone.dim, len(self.rows)):
            self.insert(k)
        return self


def reference_placing(vectors) -> ReferencePlacing:
    """The reference placing state of lattice points, from their own
    elimination, not yet run."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        raise NotFullDimensional("empty point set")
    return ReferencePlacing(vectors, eliminate([v + (1,) for v in vectors], len(vectors[0]) + 1))


def placing_triangulation(vectors) -> list[tuple[int, ...]]:
    """Simplices (index tuples) of the placing triangulation that places
    the greedy affine basis first and the other points in the given
    order.  Interior points are skipped, so every simplex is
    full-dimensional.  Raises NotFullDimensional unless the points span
    their ambient space affinely."""
    vectors = [tuple(v) for v in vectors]
    if len(set(vectors)) != len(vectors):
        raise ValueError("points must be distinct")
    state = reference_placing(vectors).run()
    return sorted(
        tuple(sorted(i for p, i in enumerate(state.order) if s >> p & 1))
        for s in state.simplices
    )


@contextmanager
def raises_input_error(match: str):
    """Expect a plain ApxError (exit 2) whose message matches ``match``.
    ``pytest.raises(ApxError)`` alone would also pass on a
    TheoremViolation, its subclass."""
    with pytest.raises(ApxError, match=match) as info:
        yield info
    assert type(info.value) is ApxError, repr(info.value)
