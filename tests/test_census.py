"""Every connected graph on 2 to 6 nodes, up to isomorphism, at every
edge: ``run_verification`` at ``full`` passes on all 1,112 instances.

Each connected graph on n + 1 nodes has a vertex whose removal leaves it
connected (a leaf of a spanning tree), so adding one vertex, joined to a
nonempty set of nodes, to each connected graph on n nodes in every way
gives them all.  A graph is kept once, by its canonical form: the least
sorted edge list over all relabellings of its nodes.  The counts are
checked against the known sequence (OEIS A001349).  n = 7, 853 graphs
and 9,552 instances, takes minutes and is left out."""

from functools import lru_cache
from itertools import combinations, permutations

import pytest

from apx.graphcore import Graph, edge
from apx.verify import run_verification

CONNECTED_GRAPHS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def canonical(edges, n: int) -> tuple:
    return min(tuple(sorted(edge(p[u], p[v]) for u, v in edges)) for p in permutations(range(n)))


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[tuple, ...]:
    """The canonical edge lists of the connected graphs on n nodes."""
    if n == 1:
        return ((),)
    found = set()
    for edges in connected_graphs(n - 1):
        for k in range(1, n):
            for nbrs in combinations(range(n - 1), k):
                found.add(canonical(edges + tuple((v, n - 1) for v in nbrs), n))
    return tuple(sorted(found))


def test_census_counts_match_the_known_sequence():
    assert {n: len(connected_graphs(n)) for n in CONNECTED_GRAPHS} == CONNECTED_GRAPHS
    assert sum(len(es) for n in CONNECTED_GRAPHS for es in connected_graphs(n)) == 1112


@pytest.mark.parametrize("n", sorted(CONNECTED_GRAPHS))
def test_full_verification_passes_on_every_small_graph_and_edge(n):
    failed = []
    for edges in connected_graphs(n):
        g = Graph.from_edges(edges)
        for e in edges:
            report = run_verification(g, e, "full")
            if not report.passed():
                failed.append((edges, e, [k for k, c in report.checks.items() if not c.passed]))
    assert not failed
