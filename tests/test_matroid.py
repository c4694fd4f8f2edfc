import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CORANK2_CELL_ARCS,
    cycle_graph,
    exchange_axioms_hold,
    random_connected_graph,
    running_example,
)

import apx.matroid as matroid
from apx.cellanalysis import cell_subgraphs
from apx.errors import MorphismViolation
from apx.graphcore import spanning_tree_of
from apx.matroid import (
    _graphic_table,
    _point_table,
    check_matroid_axioms,
    grouped_ground_set,
    verify_morphism,
)
from apx.subdivision import edge_contraction_subdivision


def corank2_cell():
    cells = edge_contraction_subdivision(running_example(), (0, 3))
    target = frozenset(CORANK2_CELL_ARCS)
    (cell,) = [c for c in cells if frozenset(c.points) == target]
    return cell


def rank(independent, mask):
    """Size of the largest independent mask inside ``mask``."""
    return max(m.bit_count() for m in range(mask + 1) if m & ~mask == 0 and independent[m])


def graphic_edges(cell):
    _, undirected = cell_subgraphs(cell.points)
    return tuple(sorted(undirected))


def mask_of(ground, subset):
    return sum(1 << i for i, elem in enumerate(ground) if elem in subset)


def verdict(independent, n):
    try:
        check_matroid_axioms(independent, n)
    except MorphismViolation:
        return False
    return True


def test_grouped_ground_set_structure():
    cell = edge_contraction_subdivision(cycle_graph(4), (0, 3))[0]
    ground = grouped_ground_set(cell, (0, 3))
    sizes = sorted(len(elem) for elem in ground)
    assert sizes == [1, 1, 2]
    assert ((0, 3), (3, 0)) in ground


def test_point_matroid_basics():
    cell = edge_contraction_subdivision(cycle_graph(5), (0, 4))[0]
    ground, independent = _point_table(cell, (0, 4))
    full = (1 << len(ground)) - 1
    assert independent[0]
    pair = next(i for i, elem in enumerate(ground) if len(elem) == 2)
    assert independent[1 << pair]
    # The full C5 cell ground set is dependent (corank 1).
    assert not independent[full]
    assert rank(independent, full) == cell.dim


def test_graphic_matroid_basics():
    cell = edge_contraction_subdivision(cycle_graph(5), (0, 4))[0]
    ground = graphic_edges(cell)
    independent = _graphic_table(ground)
    full = (1 << len(ground)) - 1
    assert independent[0]
    tree = mask_of(ground, spanning_tree_of(frozenset(ground)))
    assert independent[tree]
    assert rank(independent, tree) == rank(independent, full) == cell.dim
    # The 5-cycle is dependent: it is the unique circuit.
    assert not independent[full]


def test_matroid_axioms_on_small_cells():
    for g, e in [(cycle_graph(4), (0, 3)), (cycle_graph(5), (0, 4))]:
        for cell in edge_contraction_subdivision(g, e):
            ground, independent = _point_table(cell, e)
            check_matroid_axioms(independent, len(ground))
            edges = graphic_edges(cell)
            check_matroid_axioms(_graphic_table(edges), len(edges))


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


def test_morphism_names_a_flipped_point_mask(monkeypatch):
    cell = edge_contraction_subdivision(cycle_graph(5), (0, 4))[0]
    ground, independent = _point_table(cell, (0, 4))
    for mask in range(1 << len(ground)):
        flipped = list(independent)
        flipped[mask] = not flipped[mask]
        monkeypatch.setattr(matroid, "_point_table", lambda c, e: (ground, flipped))
        subset = sorted(ground[b] for b in range(len(ground)) if mask >> b & 1)
        with pytest.raises(MorphismViolation) as exc:
            verify_morphism(cell, (0, 4), check_axioms=True)
        assert str(exc.value) == f"dependence mismatch at {subset}"


def test_axiom_check_rejects_downward_closed_non_matroid():
    # Downward closed, but no element of {1, 2} extends {0}.
    family = {0b000, 0b001, 0b010, 0b100, 0b110}
    independent = [m in family for m in range(8)]
    with pytest.raises(MorphismViolation, match="exchange"):
        check_matroid_axioms(independent, 3)


@pytest.mark.parametrize("n", range(5))
def test_axiom_check_matches_exchange_on_every_small_family(n):
    size = 1 << n
    verdicts = set()
    for family in range(1 << size):
        independent = [bool(family >> m & 1) for m in range(size)]
        expected = exchange_axioms_hold(independent, n)
        assert verdict(independent, n) == expected, bin(family)
        verdicts.add(expected)
    assert verdicts == {True, False}


@st.composite
def downward_closed_families(draw, n):
    """The subsets of a few drawn masks: a downward-closed family on n
    elements that contains the empty set."""
    tops = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
    return [any(m & ~t == 0 for t in tops) for m in range(1 << n)]


@pytest.mark.parametrize("n", [5, 6])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_axiom_check_matches_exchange_on_downward_closed_families(n, data):
    independent = data.draw(downward_closed_families(n))
    expected = exchange_axioms_hold(independent, n)
    assert verdict(independent, n) == expected
