import random

import pytest

from conftest import CORANK2_CELL_ARCS, cycle_graph, running_example, random_connected_graph

from apx.errors import MorphismViolation
from apx.graphcore import spanning_tree_of
from apx.matroid import (
    MatroidView,
    check_matroid_axioms,
    graphic_matroid,
    grouped_ground_set,
    point_matroid,
    verify_morphism,
)
from apx.subdivision import edge_contraction_subdivision


def corank2_cell():
    cells = edge_contraction_subdivision(running_example(), (0, 3))
    target = frozenset(CORANK2_CELL_ARCS)
    (cell,) = [c for c in cells if frozenset(c.points) == target]
    return cell


def test_grouped_ground_set_structure():
    cell = edge_contraction_subdivision(cycle_graph(4), (0, 3))[0]
    ground = grouped_ground_set(cell, (0, 3))
    sizes = sorted(len(elem) for elem in ground)
    assert sizes == [1, 1, 2]
    assert ((0, 3), (3, 0)) in ground


def test_point_matroid_basics():
    cell = edge_contraction_subdivision(cycle_graph(5), (0, 4))[0]
    view = point_matroid(cell, (0, 4))
    assert view.is_independent(frozenset())
    pair = next(elem for elem in view.ground if len(elem) == 2)
    assert view.is_independent(frozenset([pair]))
    # The full C5 cell ground set is dependent (corank 1).
    assert not view.is_independent(frozenset(view.ground))
    assert view.rank(frozenset(view.ground)) == cell.dim


def test_graphic_matroid_basics():
    cell = edge_contraction_subdivision(cycle_graph(5), (0, 4))[0]
    view = graphic_matroid(cell)
    assert view.is_independent(frozenset())
    tree = spanning_tree_of(frozenset(view.ground))
    assert view.is_independent(tree)
    assert view.rank(tree) == view.rank(frozenset(view.ground)) == cell.dim
    # The 5-cycle is dependent: it is the unique circuit.
    assert not view.is_independent(frozenset(view.ground))


def test_matroid_axioms_on_small_cells():
    for g, e in [(cycle_graph(4), (0, 3)), (cycle_graph(5), (0, 4))]:
        for cell in edge_contraction_subdivision(g, e):
            check_matroid_axioms(point_matroid(cell, e))
            check_matroid_axioms(graphic_matroid(cell))


def test_morphism_c4_cells():
    for cell in edge_contraction_subdivision(cycle_graph(4), (0, 3)):
        report = verify_morphism(cell, (0, 3))
        assert report.subsets_checked == 2 ** report.ground_size


def test_morphism_c5_cells():
    for cell in edge_contraction_subdivision(cycle_graph(5), (0, 4)):
        report = verify_morphism(cell, (0, 4))
        assert report.ground_size == 5
        assert report.subsets_checked == 32


def test_morphism_corank2_cell():
    report = verify_morphism(corank2_cell(), (0, 3))
    assert report.ground_size == 8
    assert report.subsets_checked == 256


def test_morphism_random_cells():
    rng = random.Random(109)
    for _ in range(6):
        g = random_connected_graph(rng, max_nodes=5, max_edges=7)
        e = rng.choice(g.sorted_edges())
        for cell in edge_contraction_subdivision(g, e):
            verify_morphism(cell, e)


def test_axiom_check_rejects_downward_closed_non_matroid():
    # Downward closed, but no element of {1, 2} extends {0}.
    family = {frozenset(s) for s in ((), (0,), (1,), (2,), (1, 2))}
    view = MatroidView((0, 1, 2), lambda s: s in family, lambda s: 0)
    with pytest.raises(MorphismViolation, match="exchange"):
        check_matroid_axioms(view)
