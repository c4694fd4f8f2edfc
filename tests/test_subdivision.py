import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NAMED_LADDER,
    cell_volume,
    cells_of,
    connected_graphs,
    cycle_graph,
    lift_subdivision,
    lift_weight,
    potential_facets,
    running_example,
    random_connected_graph,
    raises_input_error,
)

from apx.cellanalysis import Signature, closed_form_volume
from apx.errors import TheoremViolation
from apx.graphcore import Graph, contract_edge
from apx.polytope import build_configuration, enumerate_facets, normalized_volume
from apx.polytope import normalized_volume_of_points
from apx.subdivision import (
    Cell,
    cell_record,
    cells_with_facets,
    check_simpliciality_transfer,
    corank,
    facet_correspondence,
    product_correspondence,
    verify_cell_support,
)


def test_lift_weight():
    assert lift_weight((0, 3), (0, 3)) == 0
    assert lift_weight((3, 0), (0, 3)) == 0
    assert lift_weight((1, 2), (0, 3)) == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: cycle_graph(5),
        lambda: enumerate_facets(cycle_graph(4))[0],
        lambda: cells_of(running_example(), (0, 3))[-1],
        lambda: Signature(2, 2, 1),
    ],
    ids=["Graph", "FacetCertificate", "Cell", "Signature"],
)
def test_records_are_values(build):
    first, second = build(), build()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert {first: 1}[second] == 1
    # No field can be set, and nothing else can be kept on a record: a
    # cell's volume is computed where it is read, not stored on the cell.
    assert not hasattr(first, "__dict__")
    for name in first._fields:
        with pytest.raises(AttributeError):
            setattr(first, name, getattr(second, name))
    with pytest.raises(AttributeError):
        first.nvol = 1


def test_c4_subdivision_six_simplicial_cells():
    cells = cells_of(cycle_graph(4), (0, 3))
    assert len(cells) == 6
    for cell in cells:
        assert len(cell.points) == 4
        assert cell.is_simplicial()


def test_c5_subdivision_six_cells_of_six_points():
    cells = cells_of(cycle_graph(5), (0, 4))
    assert len(cells) == 6
    for cell in cells:
        assert len(cell.points) == 6


def test_single_edge_graph_single_cell():
    cells = cells_of(Graph.from_edges([(0, 1)]), (0, 1))
    assert len(cells) == 1
    assert cells[0].points == ((0, 1), (1, 0))
    assert cells[0].gamma == (Fraction(0),)


def test_subdivision_requires_graph_edge():
    with raises_input_error(r"^\(0, 2\) not in graph$"):
        cells_of(cycle_graph(4), (0, 2))
    # Connectedness is checked first, before the contraction allocates
    # one entry per node label.
    with raises_input_error("^adjacency polytopes need a connected graph$"):
        cells_of(Graph(4, frozenset({(0, 1), (2, 3)})), (0, 2))


def test_cells_contain_contracted_pair_and_h_zero():
    rng = random.Random(71)
    for _ in range(12):
        g = random_connected_graph(rng, max_nodes=6, max_edges=9)
        e = rng.choice(g.sorted_edges())
        config = build_configuration(g)
        for cell in cells_of(g, e):
            assert cell.contains_contracted_pair(e)
            full_gamma = (Fraction(0),) + tuple(cell.gamma)
            assert full_gamma[e[0]] == full_gamma[e[1]]
            assert verify_cell_support(config, e, cell)


@pytest.mark.parametrize("name", NAMED_LADDER)
def test_cells_from_facets_are_the_lower_faces_of_the_lift(name):
    # The cells built from the facets of G // e, order included, against
    # the lower faces of the lift found by double description.  Each cell
    # is built from the facet that the lift's cell projects to, and its
    # record has full affine rank.
    g, e = NAMED_LADDER[name]
    pairs = cells_with_facets(g, e)
    lift = lift_subdivision(g, e)
    assert [cell for cell, _ in pairs] == lift
    facet_correspondence(g, e, zip(lift, [facet for _, facet in pairs]))
    for cell, _ in pairs:
        assert cell.record().rank == cell.dim + 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(connected_graphs(max_nodes=8), st.data())
def test_cells_from_facets_match_the_lift_on_drawn_graphs(g, data):
    e = data.draw(st.sampled_from(g.sorted_edges()))
    assert cells_of(g, e) == lift_subdivision(g, e)


def test_verify_cell_support_levels_in_integers():
    g = running_example()
    e = (0, 3)
    config = build_configuration(g)
    for cell in cells_of(g, e):
        assert verify_cell_support(config, e, cell)
        # Every node meets a point of a full-dimensional cell, so one off
        # any coordinate of gamma takes some point off level 0 and must
        # break the support.
        shifted = (cell.gamma[0] + 1,) + tuple(cell.gamma[1:])
        assert not verify_cell_support(config, e, Cell(cell.points, shifted))
        for step in (1, -1):
            for k in range(cell.dim):
                gamma = tuple(x + step * (i == k) for i, x in enumerate(cell.gamma))
                assert not verify_cell_support(config, e, cell._replace(gamma=gamma))


def test_cell_volumes_sum_to_polytope_volume():
    rng = random.Random(73)
    for _ in range(8):
        g = random_connected_graph(rng, max_nodes=6, max_edges=9)
        e = rng.choice(g.sorted_edges())
        cells = cells_of(g, e)
        total = sum(normalized_volume_of_points(c.record().vectors) for c in cells)
        assert total == normalized_volume(build_configuration(g))


def test_facet_correspondence_c4():
    g = cycle_graph(4)
    pairs = cells_with_facets(g, (0, 3))
    facet_correspondence(g, (0, 3), pairs)
    assert len(pairs) == 6
    assert len({facet for _, facet in pairs}) == 6


def test_facet_correspondence_c5_counts():
    g = cycle_graph(5)
    pairs = cells_with_facets(g, (0, 4))
    facet_correspondence(g, (0, 4), pairs)
    # Cells of the contraction subdivision match facets of the C4 polytope.
    assert len(pairs) == len(enumerate_facets(cycle_graph(4))) == 6


def test_facet_correspondence_single_edge():
    g = Graph.from_edges([(0, 1)])
    pairs = cells_with_facets(g, (0, 1))
    facet_correspondence(g, (0, 1), pairs)
    ((_, facet),) = pairs
    assert facet.normal == ()
    assert facet.support == ()


def test_facet_correspondence_random_bijection():
    rng = random.Random(79)
    for _ in range(10):
        g = random_connected_graph(rng, max_nodes=6, max_edges=10)
        e = rng.choice(g.sorted_edges())
        pairs = cells_with_facets(g, e)
        facet_correspondence(g, e, pairs)
        assert len({facet.support for _, facet in pairs}) == len(pairs)


def _drop_a_point(pairs):
    # One point other than the contracted pair goes; gamma stays.
    (cell, facet), *rest = pairs
    dropped = next(p for p in cell.points if p not in ((0, 4), (4, 0)))
    points = tuple(p for p in cell.points if p != dropped)
    return [(cell._replace(points=points), facet), *rest]


def _shift_gamma(pairs):
    # Node 1 is not on the contracted edge (0, 4), so gamma still agrees
    # on the merged nodes; the points stay, so the support still matches.
    (cell, facet), *rest = pairs
    return [(cell._replace(gamma=(cell.gamma[0] + 1, *cell.gamma[1:])), facet), *rest]


@pytest.mark.parametrize(
    "change, message",
    [
        (_drop_a_point, "projected support"),
        (_shift_gamma, "projected normal"),
        (lambda pairs: [pairs[0], *pairs[:-1]], "two cells project to the same facet"),
    ],
    ids=["support", "normal", "repeated"],
)
def test_facet_correspondence_refuses(change, message):
    # C5 with edge (0, 4): each change breaks one of the three statements.
    g = cycle_graph(5)
    pairs = change(cells_with_facets(g, (0, 4)))
    with pytest.raises(TheoremViolation, match=message):
        facet_correspondence(g, (0, 4), pairs)


def test_product_correspondence_running_example():
    g = running_example()
    cells = cells_of(g, (0, 3))
    f1, f2 = product_correspondence(g, (0, 3), cells)
    assert len(f1) == 6  # the left side contracts to a triangle
    assert len(cells) == 6 * len(f2)


def _drop_a_side_point(cells):
    # The first cell loses (1, 0), its one point at node 1, so its left
    # projection loses that arc's image; the count stays at 6 x 12.
    cell, *rest = cells
    points = tuple(p for p in cell.points if p != (1, 0))
    assert len(points) == len(cell.points) - 1
    return [cell._replace(points=points), *rest]


@pytest.mark.parametrize(
    "change, message",
    [
        (_drop_a_side_point, "side projection"),
        (lambda cells: cells[1:], "71 cells but 72 facet pairs"),
        # A cell taken twice in place of another keeps the count at 6 x 12.
        (lambda cells: [cells[0], *cells[:-1]], "same facet pair"),
    ],
    ids=["side", "count", "repeated"],
)
def test_product_correspondence_refuses(change, message):
    # The running example splits at (0, 3); each change breaks one of the
    # three statements of the product bijection.
    g = running_example()
    cells = change(cells_of(g, (0, 3)))
    with pytest.raises(TheoremViolation, match=message):
        product_correspondence(g, (0, 3), cells)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(connected_graphs(max_nodes=7))
def test_product_correspondence_runs_exactly_when_the_contracted_nodes_cut(g):
    # None exactly when G - {k1, k2} has at most one component, a node
    # left with no edge counting as one (a BFS here); otherwise one cell
    # per pair of facets of the two contracted sides.
    adj = g.adjacency()
    for e in g.sorted_edges():
        left, components = set(range(g.node_count)) - set(e), 0
        while left:
            components += 1
            queue = [left.pop()]
            for v in queue:
                reached = adj[v] & left
                left -= reached
                queue.extend(reached)
        cells = cells_of(g, e)
        sides = product_correspondence(g, e, cells)
        assert (sides is None) == (components <= 1), e
        if sides is not None:
            assert len(sides[0]) * len(sides[1]) == len(cells)


def test_simpliciality_transfer_c4():
    pairs = cells_with_facets(cycle_graph(4), (0, 3))
    assert all(cell.is_simplicial() for cell, _ in pairs)
    check_simpliciality_transfer(pairs)


def test_simpliciality_transfer_c5_vacuous():
    pairs = cells_with_facets(cycle_graph(5), (0, 4))
    assert not any(cell.is_simplicial() for cell, _ in pairs)
    check_simpliciality_transfer(pairs)


def test_simpliciality_transfer_refuses_a_non_simplicial_facet():
    # C4's simplicial cell paired with a facet of C5 // {0, 4}, a square
    # with four points in dimension 3, breaks the transfer; the failure
    # names the cell and the facet's support.
    (cell, _), *rest = cells_with_facets(cycle_graph(4), (0, 3))
    _, facet = cells_with_facets(cycle_graph(5), (0, 4))[0]
    assert cell.is_simplicial() and len(facet.support) == 4 == len(facet.normal) + 1
    with pytest.raises(TheoremViolation) as exc:
        check_simpliciality_transfer([*rest[:2], (cell, facet), *rest[2:]])
    assert str(exc.value) == f"simplicial cell 2 maps to the non-simplicial facet {facet.support}"


def test_cell_count_equals_contracted_facet_count():
    rng = random.Random(83)
    for _ in range(10):
        g = random_connected_graph(rng, max_nodes=6, max_edges=10)
        e = rng.choice(g.sorted_edges())
        cells = cells_of(g, e)
        contracted, _ = contract_edge(g, e)
        facets = enumerate_facets(contracted)
        assert len(cells) == len(facets)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(connected_graphs(max_nodes=7))
def test_bijection_and_volume_additivity_for_every_edge(g):
    # For every edge e: one cell per facet of G // e, counted by the
    # integer-potential oracle, and the cell volumes add up to the
    # polytope's, through the oracle and, when every corank is at most 2,
    # through the closed forms as well.
    volume = normalized_volume(build_configuration(g))
    for e in g.sorted_edges():
        cells = cells_of(g, e)
        contracted, _ = contract_edge(g, e)
        assert len(cells) == len(potential_facets(contracted))
        volumes = [cell_volume(cell) for cell in cells]
        assert sum(volumes) == volume
        if all(corank(cell_record(c.points, c.dim), e) <= 2 for c in cells):
            closed = [closed_form_volume(c.record(), e, v) for c, v in zip(cells, volumes)]
            assert sum(closed) == volume
