import random

from hypothesis import given, settings

from conftest import (
    TWO_TRIANGLE_BALANCED_EDGES,
    brute_force_balanced_circuit_rank,
    brute_force_cycles,
    cells_of,
    cycle_graph,
    chorded_pentagon,
    edge_lists,
    running_example,
    path_graph,
    random_connected_graph,
    raises_input_error,
    reference_components,
    reference_is_plain_cycle,
)

from apx.cellanalysis import verify_cell_properties
from apx.graphcore import (
    Graph,
    balanced_circuit_rank,
    contract_edge,
    cyclomatic_number,
    edge,
    forest,
    graph_to_dot,
    split_at,
)
from apx.subdivision import cell_record, corank


def test_contract_chorded_pentagon():
    g = chorded_pentagon()
    contracted, mapping = contract_edge(g, (0, 4))
    assert contracted.node_count == 4
    assert contracted.edges == frozenset(
        edge(*e) for e in [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    )
    assert mapping[4] == 0 and mapping[0] == 0


def test_contract_single_edge_graph():
    g = Graph.from_edges([(0, 1)])
    contracted, _ = contract_edge(g, (0, 1))
    assert contracted.node_count == 1
    assert contracted.edges == frozenset()


def test_contract_running_example():
    # Two of the eleven edges become parallel and collapse: the
    # simple-graph contraction has 8 distinct edges on 6 nodes.
    g = running_example()
    contracted, _ = contract_edge(g, (0, 3))
    assert contracted.node_count == 6
    assert len(contracted.edges) == 8
    assert contracted.edges == frozenset(
        edge(*e)
        for e in [(0, 1), (1, 2), (0, 2), (0, 5), (0, 3), (3, 4), (4, 5), (0, 4)]
    )


def test_contract_missing_edge():
    with raises_input_error(r"^\(0, 2\) not in graph$"):
        contract_edge(cycle_graph(4), (0, 2))


def test_contract_never_creates_loops_or_parallels():
    rng = random.Random(5)
    for _ in range(30):
        g = random_connected_graph(rng, max_nodes=6, max_edges=10)
        e = rng.choice(g.sorted_edges())
        contracted, mapping = contract_edge(g, e)
        assert contracted.node_count == g.node_count - 1
        assert sorted(set(mapping.values())) == list(range(contracted.node_count))
        for u, v in contracted.edges:
            assert u != v


def test_split_at_running_example():
    # The paper's two sides, the left one contracting to a triangle, share
    # exactly the contracted edge; a cycle has no split.
    left = [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)]
    right = [(0, 3), (0, 6), (3, 4), (4, 5), (5, 6), (3, 5), (0, 5)]
    assert split_at(running_example(), (3, 0)) == (frozenset(left), frozenset(right))
    assert split_at(cycle_graph(5), (0, 4)) is None


def test_cyclomatic_number():
    assert cyclomatic_number(path_graph(5).edges) == 0
    assert cyclomatic_number(cycle_graph(5).edges) == 1
    assert cyclomatic_number(running_example().edges) == 5


def test_fundamental_basis_c4_include():
    # An edge placed first is always in the forest.
    e = (0, 3)
    basis = forest([e] + sorted(cycle_graph(4).edges - {e}))
    assert e in basis.tree
    assert len(basis.cycles) == 1
    assert len(basis.cycles[0]) == 4


def test_fundamental_basis_tree():
    assert forest(path_graph(4).sorted_edges()).cycles == ()


def test_fundamental_basis_running_example_exclude():
    # An edge placed last stays out of the forest when it is no bridge.
    e = (0, 3)
    basis = forest(sorted(running_example().edges - {e}) + [e])
    assert e not in basis.tree
    assert len(basis.cycles) == 5
    containing = [c for c in basis.cycles if e in c]
    assert len(containing) == 1


def test_fundamental_basis_counts_and_membership():
    rng = random.Random(9)
    for _ in range(25):
        g = random_connected_graph(rng, max_nodes=7, max_edges=11)
        basis = forest(g.sorted_edges())
        assert len(basis.cycles) == len(g.edges) - g.node_count + 1
        for cyc in basis.cycles:
            assert reference_is_plain_cycle(cyc)
            assert cyc <= g.edges


def test_forest_keeps_a_bridge_placed_last():
    assert (0, 1) in forest([(1, 2), (0, 1)]).tree
    # (2, 3) is the bridge between two triangles.
    triangles = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    assert (2, 3) in forest(triangles + [(2, 3)]).tree


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(edge_lists())
def test_forest_against_references(edges):
    basis = forest(edges)
    vertices = {v for f in edges for v in f}
    components = reference_components(vertices, edges)
    key = lambda comps: sorted(map(sorted, comps))  # noqa: E731
    assert key(basis.components) == key(components)
    # The tree spans each component, with one edge fewer than its
    # vertices, so it is acyclic.
    assert basis.tree <= set(edges)
    assert key(reference_components(vertices, basis.tree)) == key(components)
    assert len(basis.tree) == len(vertices) - len(components)
    # Each non-tree edge, in the order given, closes one plain cycle.
    nontree = [f for f in edges if f not in basis.tree]
    assert len(basis.cycles) == len(nontree) == len(edges) - len(vertices) + len(components)
    for cycle, f in zip(basis.cycles, nontree):
        assert reference_is_plain_cycle(cycle)
        assert cycle - basis.tree == {f}
    if edges:
        bridge = len(reference_components(vertices, edges[:-1])) > len(components)
        assert (edges[-1] in basis.tree) == bridge


# Balancedness of a subgraph with respect to an edge e is decided in
# production by the cell-properties check, from the fundamental cycles of
# the cell record's forest; these tests drive that flag.


def balanced(edges, e, rng=None) -> bool:
    """The ``undirected_balanced`` flag of the cell properties of a
    directed subgraph on ``edges``: both arcs of e when it is present,
    as in a cell, and one arc of every other edge, reversed at random
    when ``rng`` is given."""
    e = edge(*e)
    labels = []
    for u, v in edges:
        if edge(u, v) == e:
            labels += [(u, v), (v, u)]
        else:
            labels.append((v, u) if rng is not None and rng.random() < 0.5 else (u, v))
    dim = max((x for f in labels for x in f), default=0)
    g = Graph(dim + 1, frozenset(edge(u, v) for u, v in edges))
    return verify_cell_properties(g, e, cell_record(labels, dim)).undirected_balanced


def test_is_balanced_cycle():
    c4 = cycle_graph(4)
    assert balanced(c4.edges, (0, 3)) is False
    c5 = cycle_graph(5)
    assert balanced(c5.edges, (0, 4)) is True
    # Even cycle avoiding the contracted edge stays balanced.
    assert balanced(c4.edges, (4, 5)) is True


def test_is_balanced_subgraph():
    assert balanced(path_graph(5).edges, (0, 1)) is True
    assert balanced(TWO_TRIANGLE_BALANCED_EDGES, (0, 3)) is True
    assert cyclomatic_number(TWO_TRIANGLE_BALANCED_EDGES) == 2
    assert balanced(cycle_graph(4).edges, (0, 3)) is False


def test_balanced_subgraph_matches_all_cycles_definition():
    # Label sets on random subgraphs, with e on or off them: the flag,
    # read off fundamental cycles, against every cycle by brute force.
    rng = random.Random(21)
    outcomes = set()
    for _ in range(80):
        g = random_connected_graph(rng, max_nodes=6, max_edges=9)
        e = rng.choice(g.sorted_edges())
        sub = [f for f in g.sorted_edges() if f == e or rng.random() < 0.8]
        by_cycles = all(
            len(cyc - {e}) % 2 == 0 for cyc in brute_force_cycles(Graph.from_edges(sub))
        )
        assert balanced(sub, e, rng) == by_cycles
        outcomes.add(by_cycles)
    assert outcomes == {False, True}


def test_balancedness_is_z2_linear():
    # Parity is additive under symmetric difference: when the symmetric
    # difference of two balanced cycles is again a single cycle, it is
    # balanced; and every edge subset of a balanced subgraph is balanced.
    rng = random.Random(29)
    single, subsets = 0, 0
    for _ in range(60):
        g = random_connected_graph(rng, max_nodes=6, max_edges=10)
        e = rng.choice(g.sorted_edges())
        cycles = [c for c in brute_force_cycles(g) if balanced(c, e, rng)]
        for c1 in cycles:
            for c2 in cycles:
                diff = c1 ^ c2
                if diff and forest(diff).is_cycle:
                    assert balanced(diff, e, rng)
                    single += 1
        if balanced(g.edges, e, rng):
            sub = frozenset(f for f in g.edges if rng.random() < 0.6)
            assert balanced(sub, e, rng)
            subsets += 1
    assert single > 0 and subsets > 0


def test_balanced_circuit_rank_examples():
    assert balanced_circuit_rank(cycle_graph(4), (0, 3)) == 0
    assert balanced_circuit_rank(cycle_graph(5), (0, 4)) == 1
    assert balanced_circuit_rank(running_example(), (0, 3)) == 2


def test_balanced_circuit_rank_against_brute_force():
    # Both derivations take the maximum over balanced subgraphs that hold
    # e; the maximum corank of the cells shares neither.
    rng = random.Random(13)
    for _ in range(12):
        g = random_connected_graph(rng, max_nodes=5, max_edges=8)
        e = rng.choice(g.sorted_edges())
        rank = balanced_circuit_rank(g, e)
        assert rank == brute_force_balanced_circuit_rank(g, e)
        assert rank == max(corank(cell.record(), e) for cell in cells_of(g, e))


def test_balanced_circuit_rank_bounded_by_cyclomatic():
    rng = random.Random(17)
    for _ in range(25):
        g = random_connected_graph(rng, max_nodes=7, max_edges=12)
        e = rng.choice(g.sorted_edges())
        assert balanced_circuit_rank(g, e) <= cyclomatic_number(g.edges)


def test_parsing_text_and_json():
    g = Graph.from_text("0 1\n1 2 # comment\n\n")
    assert g.edges == frozenset({(0, 1), (1, 2)})
    g2 = Graph.from_json('{"edges": [[0, 1], [1, 2]]}')
    assert g2 == g
    with raises_input_error(r"^line 1: expected 'u v', got '0'$"):
        Graph.from_text("0\n")
    with raises_input_error("^line 1: loop at node 0$"):
        Graph.from_text("0 0\n")
    with raises_input_error('^expected an object with an "edges" key$'):
        Graph.from_json('{"nodes": 3}')


def test_dot_export_highlights_contraction():
    dot = graph_to_dot(cycle_graph(4), (0, 3))
    assert "0 -- 3" in dot and "red" in dot
