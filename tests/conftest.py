"""Shared fixtures: worked-example graphs used across the suite and
independent brute-force oracles that cross-check the production algorithms."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from apx import exactlin
from apx.graphcore import Graph, edge

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


def random_tree(rng: random.Random, max_nodes: int = 8) -> Graph:
    n = rng.randint(2, max_nodes)
    nodes = list(range(n))
    rng.shuffle(nodes)
    return Graph.from_edges([(nodes[i], nodes[rng.randrange(i)]) for i in range(1, n)])


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
        if exactlin.rank(rows, dim) != dim:
            continue
        alpha = exactlin.solve_unique(rows, [Fraction(-1)] * dim)
        values = [exactlin.dot(v, alpha) for v in vectors]
        if any(val < -1 for val in values):
            continue
        support = tuple(i for i, val in enumerate(values) if val == -1)
        seen[alpha] = support
    return sorted(seen.items())


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
        if exactlin.rank(rows, dim + 1) != dim + 1:
            continue
        sol = exactlin.solve_unique(rows, [Fraction(-weights[i]) for i in subset])
        gamma, h = sol[:-1], sol[-1]
        values = [
            exactlin.dot(v, gamma) + w - h for v, w in zip(vectors, weights)
        ]
        if any(val < 0 for val in values):
            continue
        support = tuple(i for i, val in enumerate(values) if val == 0)
        cells[(gamma, h)] = support
    return sorted(cells.items())


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


def brute_force_balanced_circuit_rank(g: Graph, e) -> int:
    """Max cyclomatic number over balanced edge subsets, checked against
    the full cycle list of each subset."""
    from apx.graphcore import cyclomatic_number

    e = edge(*e)
    all_edges = g.sorted_edges()
    best = 0
    for r in range(len(all_edges) + 1):
        for subset in combinations(all_edges, r):
            sub = Graph.from_edges(subset, node_count=g.node_count) if subset else None
            if sub is None:
                continue
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
