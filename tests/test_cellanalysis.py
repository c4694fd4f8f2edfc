import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CORANK2_CELL_ARCS,
    RUNNING_EXAMPLE_EDGES,
    brute_force_cycles,
    brute_force_directed_cycles,
    cell_volume,
    cells_of,
    complete_graph,
    connected_graphs,
    cycle_graph,
    interior_lift_subcells,
    running_example,
    random_connected_graph,
    raises_input_error,
    reference_affine_kernel,
    reference_components,
    reference_is_affinely_independent,
    reference_is_circuit,
    star_graph,
)

import apx.cellanalysis as cellanalysis
from apx.cellanalysis import (
    _arc_signs_along,
    analyze_cell,
    classify_special_graphs,
    closed_form_volume,
    corank1_signature,
    corank2_cycle_pair,
    corank2_gamma_delta,
    is_circuit,
    separates_contracted_pair,
    verify_cell_properties,
)
from apx.errors import TheoremViolation
from apx.exactlin import eliminate
from apx.graphcore import Graph, balanced_circuit_rank, edge, forest
from apx.matroid import grouped_ground_set
from apx.polytope import normalized_volume_of_cell, normalized_volume_of_points, phi
from apx.subdivision import (
    cell_record,
    cell_subgraphs,
    contracted_pair,
    corank,
    dimension,
)


ONE_SIDED = r"^subset contains exactly one of the contracted points \(0, 3\), \(3, 0\)$"


def corank2_cell():
    cells = cells_of(running_example(), (0, 3))
    target = frozenset(CORANK2_CELL_ARCS)
    (cell,) = [c for c in cells if frozenset(c.points) == target]
    return cell


def test_cell_subgraphs_single_point():
    arcs, undirected = cell_subgraphs([(1, 2)])
    assert arcs == frozenset({(1, 2)})
    assert undirected == frozenset({(1, 2)})


def test_corank2_cell_subgraph():
    cell = corank2_cell()
    arcs, undirected = cell_subgraphs(cell.points)
    assert arcs == frozenset(CORANK2_CELL_ARCS)
    assert len(cell.points) == 9
    assert edge(0, 3) in undirected


def test_c5_cells_are_six_arrow_graphs():
    cells = cells_of(cycle_graph(5), (0, 4))
    for cell in cells:
        arcs, undirected = cell_subgraphs(cell.points)
        assert len(arcs) == 6
        assert undirected == cycle_graph(5).edges


def test_cell_properties_c4():
    g = cycle_graph(4)
    for cell in cells_of(g, (0, 3)):
        report = verify_cell_properties(g, (0, 3), cell_record(cell.points, cell.dim))
        assert report.all_pass()
        _, undirected = cell_subgraphs(cell.points)
        # Simplicial cells: spanning tree plus the doubled edge.
        assert len(undirected) == 3 and len(cell.points) == 4


def test_cell_properties_running_example_all_cells():
    g = running_example()
    for cell in cells_of(g, (0, 3)):
        assert verify_cell_properties(g, (0, 3), cell_record(cell.points, cell.dim)).all_pass()


def test_cell_properties_corank2_cell_basis():
    cell = corank2_cell()
    report = verify_cell_properties(running_example(), (0, 3), cell_record(cell.points, cell.dim))
    assert report.all_pass()
    assert report.basis_odd_cycles == 1


def test_closed_under_swap_refuses_an_arc_whose_swap_is_missing():
    # On K3 at e = (0, 1), swapping 0 and 1 takes the arc (2, 0) to
    # (2, 1), an arc of an edge of K3 that the subset lacks.
    report = verify_cell_properties(
        complete_graph(3), (0, 1), cell_record([(0, 1), (1, 0), (2, 0)], 2)
    )
    assert report.closed_under_swap is False and not report.all_pass()
    assert report.spans_all_nodes and report.only_directed_cycle_is_pair


def test_spans_all_nodes_refuses_an_uncovered_node():
    # The contracted pair alone leaves node 2 of K3 uncovered.
    report = verify_cell_properties(complete_graph(3), (0, 1), cell_record([(0, 1), (1, 0)], 2))
    assert report.spans_all_nodes is False and not report.all_pass()
    assert report.closed_under_swap and report.only_directed_cycle_is_pair


def test_only_directed_cycle_flag_matches_the_cycle_enumeration():
    # Arc sets that are not cells, some without the contracted pair: the
    # flag holds iff the pair is the only directed cycle.  The False cases
    # include ones where the other arcs hold no cycle, only a path between
    # k1 and k2.
    rng = random.Random(139)
    counts = {"true": 0, "cycle": 0, "path only": 0, "pair missing": 0}
    for _ in range(600):
        n = rng.randint(2, 6)
        k1, k2 = sorted(rng.sample(range(n), 2))
        p, q = (k1, k2), (k2, k1)
        pool = [(i, j) for i in range(n) for j in range(n) if i != j and {i, j} != {k1, k2}]
        arcs = {a for a in pool if rng.random() < 0.3}
        arcs |= {a for a in (p, q) if rng.random() < 0.9}
        g = Graph(n, frozenset(edge(*a) for a in arcs) | {p})
        flag = verify_cell_properties(
            g, (k1, k2), cell_record(sorted(arcs), n - 1)
        ).only_directed_cycle_is_pair
        assert flag == (brute_force_directed_cycles(arcs) == {frozenset({p, q})}), (arcs, p)
        if flag:
            counts["true"] += 1
        elif not {p, q} <= arcs:
            counts["pair missing"] += 1
        elif brute_force_directed_cycles(arcs - {p, q}):
            counts["cycle"] += 1
        else:
            counts["path only"] += 1
    assert min(counts.values()) > 0, counts


# A subset is affinely independent iff its corank is 0, and ``corank``
# refuses a corank other than the cyclomatic number: "independent iff
# forest" is its corank-0 case.


def test_subset_independent_empty():
    assert corank(cell_record((), 3), (0, 3)) == 0


def test_subset_even_cycle_circuit_dependent():
    cell = corank2_cell()
    even_cycle = ((0, 2), (3, 2), (3, 5), (0, 5))
    assert corank(cell_record(even_cycle, cell.dim), (0, 3)) == 1
    assert is_circuit(cell_record(even_cycle, cell.dim), (0, 3)) is True


def test_subset_odd_cycle_with_pair_dependent():
    cell = corank2_cell()
    triangle = ((0, 2), (3, 2), (0, 3), (3, 0))
    assert corank(cell_record(triangle, cell.dim), (0, 3)) == 1
    assert is_circuit(cell_record(triangle, cell.dim), (0, 3)) is True
    assert separates_contracted_pair(cell_record(triangle, cell.dim), (0, 3))


def test_subset_forest_not_circuit():
    cell = corank2_cell()
    assert is_circuit(cell_record(((0, 2), (3, 5)), cell.dim), (0, 3)) is False


def test_subset_dependent_but_not_minimal():
    cell = corank2_cell()
    bigger = ((0, 2), (3, 2), (3, 5), (0, 5), (0, 6))
    assert corank(cell_record(bigger, cell.dim), (0, 3)) == 1
    assert is_circuit(cell_record(bigger, cell.dim), (0, 3)) is False


def test_pairing_precondition():
    cell = corank2_cell()
    with raises_input_error(ONE_SIDED):
        corank(cell_record(((0, 3), (0, 2)), cell.dim), (0, 3))


def test_one_sided_pair_is_independent_despite_cycle():
    # The restriction in the subset theorems is necessary: with only one
    # contracted point the cycle's points are affinely independent.
    cell = corank2_cell()
    one_sided = [(0, 2), (3, 2), (0, 3)]
    assert reference_is_affinely_independent([phi(l, cell.dim) for l in one_sided])


def test_subset_dimension_examples():
    assert dimension(cell_record(((1, 2),), 3), (0, 3)) == 0
    assert dimension(cell_record(((0, 3), (3, 0)), 3), (0, 3)) == 1
    cells = cells_of(cycle_graph(5), (0, 4))
    assert dimension(cell_record(cells[0].points, 4), (0, 4)) == 4


def test_subset_corank_examples():
    for cell in cells_of(cycle_graph(4), (0, 3)):
        assert corank(cell_record(cell.points, cell.dim), (0, 3)) == 0
    for cell in cells_of(cycle_graph(5), (0, 4)):
        assert corank(cell_record(cell.points, cell.dim), (0, 4)) == 1
    assert corank(cell_record(corank2_cell().points, 6), (0, 3)) == 2


def test_signature_c5_cell():
    cells = cells_of(cycle_graph(5), (0, 4))
    for cell in cells:
        rec = cell_record(cell.points, cell.dim)
        assert corank1_signature(rec, (0, 4)) == (3, 3, 0)


def test_signature_even_cycle_circuit():
    cell = corank2_cell()
    even_cycle = ((0, 2), (3, 2), (3, 5), (0, 5))
    assert corank1_signature(cell_record(even_cycle, cell.dim), (0, 3)) == (2, 2, 0)


def test_signature_with_pendant_edge():
    cell = corank2_cell()
    with_pendant = ((0, 2), (3, 2), (3, 5), (0, 5), (0, 6))
    assert corank1_signature(cell_record(with_pendant, cell.dim), (0, 3)) == (2, 2, 1)


def test_signature_requires_corank_one():
    with raises_input_error("^corank 2 != 1$"):
        corank1_signature(cell_record(corank2_cell().points, 6), (0, 3))


def test_radon_split_on_corank1_circuits():
    rng = random.Random(97)
    seen = 0
    for _ in range(15):
        g = random_connected_graph(rng, max_nodes=6, max_edges=9)
        e = rng.choice(g.sorted_edges())
        for cell in cells_of(g, e):
            rec = cell_record(cell.points, cell.dim)
            if corank(rec, e) != 1:
                continue
            if not is_circuit(rec, e):
                continue
            assert separates_contracted_pair(rec, e)
            seen += 1
    assert seen > 0


def _max_corank(g, e):
    """The maximum corank over the subdivision's cells, with the first
    cell that has it."""
    cells = cells_of(g, e)
    coranks = [corank(cell_record(c.points, c.dim), e) for c in cells]
    value = max(coranks)
    return value, cells[coranks.index(value)]


def test_max_corank_examples():
    value, witness = _max_corank(cycle_graph(4), (0, 3))
    assert value == 0 and witness.is_simplicial()
    value, _ = _max_corank(cycle_graph(5), (0, 4))
    assert value == 1
    value, witness = _max_corank(running_example(), (0, 3))
    assert value == 2 and len(witness.points) == 9


def test_max_corank_equals_balanced_circuit_rank():
    rng = random.Random(101)
    for _ in range(10):
        g = random_connected_graph(rng, max_nodes=6, max_edges=9)
        e = rng.choice(g.sorted_edges())
        value, _ = _max_corank(g, e)
        assert value == balanced_circuit_rank(g, e)


def build_alternating_basis(g: Graph, e, tree_edges) -> tuple:
    """Simplex basis of a cell from a spanning tree through the contracted
    edge: walk from k1 to each node, orienting path edges alternately, and
    add both contracted points.  The result is affinely independent, its
    graph is the tree, and it spans a lower face of the lifted polytope
    (checked), hence lies in a unique cell of the subdivision."""
    k1, k2 = e
    tree = frozenset(edge(u, v) for u, v in tree_edges)

    # Walk the tree from the contracted edge, taken as one root: a node
    # at an even distance from it points at its parent, an odd one away.
    adj: dict[int, list[int]] = {}
    for u, v in tree:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    labels = list(contracted_pair(e))
    depth = {k1: 0, k2: 0}
    stack = [k1, k2]
    while stack:
        b = stack.pop()
        for a in adj[b]:
            if a not in depth:
                depth[a] = depth[b] + 1
                labels.append((a, b) if depth[a] % 2 == 0 else (b, a))
                stack.append(a)

    x = tuple(sorted(labels))
    n = g.node_count - 1
    rec = cell_record(x, n)
    if cell_subgraphs(rec.labels)[1] != tree:
        raise TheoremViolation("alternating basis graph is not the spanning tree")
    if rec.kernel:
        raise TheoremViolation("alternating basis is affinely dependent")

    # The unique alpha with <x, alpha> = -lift(x) on the basis must support
    # the whole lifted configuration from below.  For the rows B without
    # (k2, k1), the rows of the elimination's d*B^-T are the columns of
    # d*B^-1, so they give d*alpha.  B is nonsingular: its affine hull
    # holds (k1, k2) but not (k2, k1), so not the origin between them.
    rows, rhs = [], []
    for lab, v in zip(x, rec.vectors):
        if lab != (k2, k1):
            rows.append(v)
            rhs.append(0 if lab == (k1, k2) else -1)
    _, _, cols, d = eliminate(rows, n)
    d_alpha = [sum(b * col[i] for b, col in zip(rhs, cols)) for i in range(n)]
    for u, v in g.edges:
        for lab in ((u, v), (v, u)):
            w = 0 if edge(u, v) == edge(k1, k2) else 1
            if (sum(a * b for a, b in zip(phi(lab, n), d_alpha)) + w * d) * d < 0:
                raise TheoremViolation(f"basis functional fails below point {lab}")
    return x


def test_alternating_basis_c4():
    g = cycle_graph(4)
    tree = [(0, 1), (1, 2), (0, 3)]
    x = build_alternating_basis(g, (0, 3), tree)
    assert x == ((0, 1), (0, 3), (2, 1), (3, 0))
    cells = cells_of(g, (0, 3))
    containing = [c for c in cells if set(x) <= set(c.points)]
    assert len(containing) == 1 and containing[0].is_simplicial()


def test_alternating_basis_single_edge():
    g = Graph.from_edges([(0, 1)])
    x = build_alternating_basis(g, (0, 1), [(0, 1)])
    assert x == ((0, 1), (1, 0))


def test_alternating_basis_running_example_corank2_completion():
    # Tree through {0, 3} whose non-tree fundamental cycles include two
    # balanced ones: the completing cell picks up one extra point per
    # balanced cycle, reaching the maximum corank 2.
    g = running_example()
    tree = [(0, 3), (0, 2), (3, 5), (0, 1), (3, 4), (0, 6)]
    x = build_alternating_basis(g, (0, 3), tree)
    assert len(x) == g.node_count
    cells = cells_of(g, (0, 3))
    containing = [c for c in cells if set(x) <= set(c.points)]
    assert len(containing) == 1
    assert corank(cell_record(containing[0].points, 6), (0, 3)) == 2


def test_alternating_basis_random_properties():
    rng = random.Random(103)
    for _ in range(15):
        g = random_connected_graph(rng, max_nodes=7, max_edges=11)
        e = rng.choice(g.sorted_edges())
        # A forest whose first edge is e goes through e.
        tree = forest([e] + sorted(g.edges - {e})).tree
        x = build_alternating_basis(g, e, tree)
        assert len(x) == g.node_count
        _, undirected = cell_subgraphs(x)
        assert undirected == tree


def test_cell_volume_c4_and_c5():
    for cell in cells_of(cycle_graph(4), (0, 3)):
        assert closed_form_volume(cell.record(), (0, 3), cell_volume(cell)) == 2
    for cell in cells_of(cycle_graph(5), (0, 4)):
        assert closed_form_volume(cell.record(), (0, 4), cell_volume(cell)) == 5


def test_cell_volume_corank2_cell():
    cell = corank2_cell()
    rec = cell_record(cell.points, cell.dim)
    o1, o2 = corank2_cycle_pair(rec.forest.cycles, (0, 3))
    assert sorted(o1) == [(0, 2), (0, 3), (2, 3)]
    assert sorted(o2) == [(0, 2), (0, 5), (2, 3), (3, 5)]
    gamma, delta = corank2_gamma_delta(rec.arcs, o1, o2)
    assert gamma * delta == 1
    assert closed_form_volume(cell.record(), (0, 3), cell_volume(cell)) == 4
    assert normalized_volume_of_points(cell.record().vectors) == 4


def test_corank2_cycle_pair_matches_the_cycle_enumeration():
    # In a graph of cyclomatic number 2 the two fundamental cycles and,
    # when they share an edge, their sum are all of its cycles: the pair
    # chosen from them is the one chosen from every cycle by brute force.
    rng = random.Random(131)
    pairs = list(combinations(range(6), 2))
    seen = found = 0
    while seen < 80:
        edges = rng.sample(pairs, rng.randint(3, 9))
        vertices = {v for f in edges for v in f}
        if len(edges) - len(vertices) + len(reference_components(vertices, edges)) != 2:
            continue
        seen += 1
        e = rng.choice(edges)
        cycles = brute_force_cycles(Graph.from_edges(edges))
        expected = min(
            (
                (frozenset(o1), frozenset(o2))
                for o2 in cycles
                if len(o2) % 2 == 0 and e not in o2
                for o1 in cycles
                if o1 != o2
            ),
            key=lambda pair: (sorted(pair[0]), sorted(pair[1])),
            default=None,
        )
        try:
            pair = corank2_cycle_pair(forest(edges).cycles, e)
        except TheoremViolation:
            pair = None
        assert pair == expected, (edges, e)
        found += pair is not None
    assert 0 < found < seen


def test_graph_side_faults_raise_theorem_violations():
    # A record whose graph side disagrees with its points: each statement
    # that compares the two sides must raise.
    e = (0, 4)
    cell = cells_of(cycle_graph(5), e)[0]
    rec = cell_record(cell.points, cell.dim)
    path = rec._replace(forest=forest(sorted(cell_subgraphs(rec.labels)[1] - {(1, 2)})))
    with pytest.raises(TheoremViolation, match="circuit test True != cycle test False"):
        is_circuit(path, e)
    with pytest.raises(TheoremViolation, match="corank 1 != cyclomatic number 0"):
        corank(path, e)
    square = rec._replace(forest=forest(cycle_graph(4).sorted_edges()))
    with pytest.raises(TheoremViolation, match=r"signature \(3, 3, 0\) != \(2, 2, 2\)"):
        corank1_signature(square, e)


def test_dimension_formula_refuses_a_record_with_an_extra_vertex():
    # dim = |V(G_X)| + [e in G_X] - components - 1 on the graph side; one
    # vertex too many there must raise.
    e = (0, 4)
    cell = cells_of(cycle_graph(5), e)[0]
    rec = cell_record(cell.points, cell.dim)
    assert dimension(rec, e) == 4
    with pytest.raises(TheoremViolation, match="dimension 4 != formula 5"):
        dimension(rec._replace(vertices=rec.vertices | {5}), e)


def test_arc_signs_refuse_a_cycle_edge_missing_from_the_cell():
    triangle = [(0, 1), (1, 2), (0, 2)]
    signs = _arc_signs_along(triangle, {(0, 1), (2, 1), (2, 0)})
    assert signs == {(0, 1): 1, (1, 2): -1, (0, 2): 1}
    with pytest.raises(TheoremViolation, match=r"cycle edge \(1, 2\) missing from the cell"):
        _arc_signs_along(triangle, {(0, 1), (2, 0)})


def test_corank2_closed_form_needs_an_even_numerator(monkeypatch):
    # The closed form is (m1 * m2 - 4 * gamma * delta) / 2.  A forced odd
    # numerator, from the triangle taken twice and no shared-edge census,
    # must raise, although its floor 9 // 2 = 4 equals the oracle.
    cell = corank2_cell()
    o1, _ = corank2_cycle_pair(cell_record(cell.points, cell.dim).forest.cycles, (0, 3))
    monkeypatch.setattr(cellanalysis, "corank2_cycle_pair", lambda *args: (o1, o1))
    monkeypatch.setattr(cellanalysis, "corank2_gamma_delta", lambda *args: (0, 0))
    with pytest.raises(TheoremViolation, match="closed form 9/2 is not a positive integer"):
        closed_form_volume(cell.record(), (0, 3), cell_volume(cell))


def test_closed_form_refuses_an_oracle_off_by_one():
    # The closed form and the placing oracle derive a cell's volume apart:
    # an oracle volume one off must raise, for corank 0, 1 and 2.
    cells = [
        (cells_of(cycle_graph(4), (0, 3))[0], (0, 3), 2),
        (cells_of(cycle_graph(5), (0, 4))[0], (0, 4), 5),
        (corank2_cell(), (0, 3), 4),
    ]
    for cell, e, volume in cells:
        assert cell_volume(cell) == volume
        for wrong in (volume - 1, volume + 1):
            with pytest.raises(TheoremViolation, match=f"closed form {volume} != oracle {wrong}"):
                closed_form_volume(cell.record(), e, wrong)


def test_no_closed_form_above_corank_two():
    # Gluing three triangles along the contracted edge gives balanced
    # circuit rank 3, so some cell has corank 3.
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    value, witness = _max_corank(g, (0, 1))
    assert value == 3
    assert closed_form_volume(witness.record(), (0, 1), cell_volume(witness)) is None


def test_analysis_refuses_a_cell_that_does_not_span_at_every_corank():
    # A cell without the arc of a pendant edge keeps its corank but spans
    # one dimension less.  The oracle gives it volume 0, and its analysis
    # refuses it by its affine dimension, also above corank 2, where no
    # closed form would compare the volume.
    seen = set()
    for edges, e in [
        (cycle_graph(4).sorted_edges(), (0, 3)),
        (cycle_graph(5).sorted_edges(), (0, 4)),
        (RUNNING_EXAMPLE_EDGES, (0, 3)),
        ([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)], (0, 1)),
    ]:
        n = max(v for f in edges for v in f) + 1
        g = Graph.from_edges([*edges, (1, n)])
        for cell in cells_of(g, e):
            rec = cell_record([p for p in cell.points if n not in p], cell.dim)
            k = corank(rec, e)
            if k in seen:
                continue
            seen.add(k)
            assert rec.rank == n == cell.dim
            volume = normalized_volume_of_cell(rec.vectors, rec.elimination)
            assert volume == 0
            message = f"^not full-dimensional: affine dimension {n - 1} < {n}$"
            with pytest.raises(TheoremViolation, match=message):
                analyze_cell(g, e, rec, volume)
    assert seen == {0, 1, 2, 3}


def test_interior_lift_census_corank2_cell():
    # Lifting one point of the even cycle splits the corank-2 cell into
    # m2/2 - gamma corank-1 subcells (census from the volume proof).
    cell = corank2_cell()
    rec = cell_record(cell.points, cell.dim)
    o1, o2 = corank2_cycle_pair(rec.forest.cycles, (0, 3))
    signs = _arc_signs_along(o2, rec.arcs)
    for a in ((3, 5), (0, 5)):
        # gamma counts the shared edges oriented like a along the even cycle.
        gamma = sum(1 for f in o1 & o2 if signs[f] == signs[edge(*a)])
        subcells = interior_lift_subcells(cell, a)
        corank1 = [s for s in subcells if len(cell_record(s, cell.dim).kernel) == 1]
        assert len(corank1) == len(o2) // 2 - gamma
        total = sum(normalized_volume_of_points([c for c in _vecs(s)]) for s in subcells)
        assert total == 4


def _vecs(labels):
    return [phi(lab, 6) for lab in labels]


def test_corank1_cells_volume_property():
    rng = random.Random(107)
    for _ in range(10):
        g = random_connected_graph(rng, max_nodes=6, max_edges=9)
        e = rng.choice(g.sorted_edges())
        for cell in cells_of(g, e):
            if corank(cell_record(cell.points, cell.dim), e) <= 2:
                closed = closed_form_volume(cell.record(), e, cell_volume(cell))
                assert closed == normalized_volume_of_points(cell.record().vectors)


def _classify(g, e):
    """``classify_special_graphs`` with the cells' circuit verdicts."""
    cells = cells_of(g, e)
    all_circuits = all(is_circuit(cell_record(c.points, c.dim), e) for c in cells)
    return classify_special_graphs(g, cells, all_circuits)


def test_classify_special_graphs():
    report = _classify(star_graph(4), (0, 1))
    assert report.graph_class == "tree" and report.all_simplicial

    report = _classify(cycle_graph(4), (0, 3))
    assert report.graph_class == "even_cycle" and report.all_simplicial

    c5 = cycle_graph(5)
    report = _classify(c5, (0, 4))
    assert report.graph_class == "odd_cycle" and report.all_circuits
    cells = cells_of(c5, (0, 4))
    report = classify_special_graphs(c5, cells, False)
    assert report.all_circuits is False and not report.passed()

    report = classify_special_graphs(running_example(), [], True)
    assert report.graph_class == "general" and report.passed()


def test_tree_and_even_cycle_classes_refuse_a_non_simplicial_cell():
    # Trees and even cycles give a triangulation: a cell list holding one
    # cell that is not a simplex, a corank-1 cell of C5, fails either class.
    circuit = cells_of(cycle_graph(5), (0, 4))[0]
    assert not circuit.is_simplicial()
    for g, e in [(star_graph(4), (0, 1)), (cycle_graph(4), (0, 3))]:
        report = classify_special_graphs(g, cells_of(g, e) + [circuit], True)
        assert report.all_simplicial is False and not report.passed()


def test_radon_split_applies_the_pairing_precondition():
    cell = corank2_cell()
    # An even cycle without the contracted pair: dependent, but there is
    # no pair to separate.
    neither = ((1, 2), (4, 2), (4, 5), (1, 5))
    assert separates_contracted_pair(cell_record(neither, cell.dim), (0, 3)) is False
    with raises_input_error(ONE_SIDED):
        separates_contracted_pair(cell_record(((0, 2), (3, 2), (0, 3)), cell.dim), (0, 3))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(connected_graphs(max_nodes=6), st.data())
def test_record_matches_fraction_references_on_every_subset(g, data):
    # Every pairing-respecting subset of every cell: the record's rank and
    # kernel against the Fraction reduced row echelon form, and its circuit
    # verdict against |C| + 1 rank tests.
    e = data.draw(st.sampled_from(g.sorted_edges()))
    for cell in cells_of(g, e):
        ground = grouped_ground_set(cell, e)
        for mask in range(1 << len(ground)):
            labels = tuple(lab for b, elem in enumerate(ground) if mask >> b & 1 for lab in elem)
            rec = cell_record(labels, cell.dim)
            vectors = [phi(lab, cell.dim) for lab in labels]
            kernel = reference_affine_kernel(vectors)
            assert rec.kernel == kernel
            assert rec.rank == len(labels) - len(kernel)
            assert is_circuit(rec, e) == reference_is_circuit(vectors)
