import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CORANK2_CELL_ARCS,
    NAMED_LADDER,
    cells_of,
    connected_graphs,
    cycle_graph,
    exchange_axioms_hold,
    integer_determinant,
    random_connected_graph,
    reference_check_matroid_axioms,
    reference_rank,
    running_example,
    wheel_graph,
)
import matroid_tables
from matroid_tables import (
    check_matroid_axioms,
    cut,
    exhaustive_morphism,
    graphic_table,
    point_table,
)

from apx.errors import TheoremViolation
from apx.graphcore import Graph, cyclomatic_number, edge, forest
from apx.matroid import certify_morphism, grouped_ground_set
from apx.polytope import phi
from apx.subdivision import Cell, cell_subgraphs


def corank2_cell():
    cells = cells_of(running_example(), (0, 3))
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
    except TheoremViolation:
        return False
    return True


def outcome(check, independent, n):
    """None when ``check`` passes the family, else its message."""
    try:
        check(independent, n)
    except TheoremViolation as exc:
        return str(exc)
    return None


def test_grouped_ground_set_structure():
    cell = cells_of(cycle_graph(4), (0, 3))[0]
    ground = grouped_ground_set(cell, (0, 3))
    sizes = sorted(len(elem) for elem in ground)
    assert sizes == [1, 1, 2]
    assert ((0, 3), (3, 0)) in ground


def test_point_matroid_basics():
    cell = cells_of(cycle_graph(5), (0, 4))[0]
    ground, independent = point_table(cell, (0, 4))
    full = (1 << len(ground)) - 1
    assert independent[0]
    pair = next(i for i, elem in enumerate(ground) if len(elem) == 2)
    assert independent[1 << pair]
    # The full C5 cell ground set is dependent (corank 1).
    assert not independent[full]
    assert rank(independent, full) == cell.dim


def test_graphic_matroid_basics():
    cell = cells_of(cycle_graph(5), (0, 4))[0]
    ground = graphic_edges(cell)
    independent = graphic_table(ground)
    full = (1 << len(ground)) - 1
    assert independent[0]
    tree = mask_of(ground, forest(ground).tree)
    assert independent[tree]
    assert rank(independent, tree) == rank(independent, full) == cell.dim
    # The 5-cycle is dependent: it is the unique circuit.
    assert not independent[full]


def test_matroid_axioms_on_small_cells():
    for g, e in [(cycle_graph(4), (0, 3)), (cycle_graph(5), (0, 4))]:
        for cell in cells_of(g, e):
            ground, independent = point_table(cell, e)
            check_matroid_axioms(independent, len(ground))
            edges = graphic_edges(cell)
            check_matroid_axioms(graphic_table(edges), len(edges))


def test_morphism_c4_cells():
    for cell in cells_of(cycle_graph(4), (0, 3)):
        report = exhaustive_morphism(cell, (0, 3))
        assert report.subsets_checked == 2 ** report.ground_size


def test_morphism_c5_cells():
    for cell in cells_of(cycle_graph(5), (0, 4)):
        report = exhaustive_morphism(cell, (0, 4))
        assert report.ground_size == 5
        assert report.subsets_checked == 32


def test_morphism_corank2_cell():
    report = exhaustive_morphism(corank2_cell(), (0, 3))
    assert report.ground_size == 8
    assert report.subsets_checked == 256


def test_morphism_random_cells():
    rng = random.Random(109)
    for _ in range(6):
        g = random_connected_graph(rng, max_nodes=5, max_edges=7)
        e = rng.choice(g.sorted_edges())
        for cell in cells_of(g, e):
            exhaustive_morphism(cell, e)


def test_morphism_names_a_flipped_point_mask(monkeypatch):
    cell = cells_of(cycle_graph(5), (0, 4))[0]
    ground, independent = point_table(cell, (0, 4))
    for mask in range(1 << len(ground)):
        flipped = list(independent)
        flipped[mask] = not flipped[mask]
        monkeypatch.setattr(matroid_tables, "point_table", lambda c, e: (ground, flipped))
        subset = sorted(ground[b] for b in range(len(ground)) if mask >> b & 1)
        with pytest.raises(TheoremViolation) as exc:
            exhaustive_morphism(cell, (0, 4))
        assert str(exc.value) == f"dependence mismatch at {subset}"


def test_axiom_check_rejects_downward_closed_non_matroid():
    # Downward closed, but no element of {1, 2} extends {0}.
    family = {0b000, 0b001, 0b010, 0b100, 0b110}
    independent = [m in family for m in range(8)]
    with pytest.raises(TheoremViolation, match="exchange"):
        check_matroid_axioms(independent, 3)


@pytest.mark.parametrize("n", range(5))
def test_axiom_check_matches_exchange_on_every_small_family(n):
    size = 1 << n
    verdicts = set()
    for family in range(1 << size):
        independent = [bool(family >> m & 1) for m in range(size)]
        expected = exchange_axioms_hold(independent, n)
        got = outcome(check_matroid_axioms, independent, n)
        assert (got is None) == expected, bin(family)
        # The same verdict and message as the mask-by-mask scan.
        assert got == outcome(reference_check_matroid_axioms, independent, n), bin(family)
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


@st.composite
def mixed_families(draw, n):
    """A graphic matroid on n drawn edges (loops and parallel edges
    allowed) or the subsets of a few drawn masks, with up to two masks
    flipped: matroids, downward-closed non-matroids and families that are
    not downward closed or lack the empty set."""
    if draw(st.booleans()):
        ends = st.tuples(st.integers(0, 4), st.integers(0, 4))
        independent = graphic_table(tuple(draw(st.lists(ends, min_size=n, max_size=n))))
    else:
        independent = draw(downward_closed_families(n))
    for m in draw(st.lists(st.integers(0, (1 << n) - 1), max_size=2)):
        independent[m] = not independent[m]
    return independent


@pytest.mark.parametrize("n", [5, 6, 7, 8])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_axiom_check_matches_the_scalar_reference(n, data):
    independent = data.draw(mixed_families(n))
    expected = outcome(reference_check_matroid_axioms, independent, n)
    assert outcome(check_matroid_axioms, independent, n) == expected


def test_axiom_check_on_a_17_element_graphic_family():
    edges = sorted(combinations(range(7), 2))[:17]
    independent = graphic_table(tuple(edges))
    check_matroid_axioms(independent, 17)
    # A dependent singleton: closure fails first at the lowest independent
    # mask that holds it, here the pair with element 0.
    b = 9
    independent[1 << b] = False
    lowest = next(m for m in range(1 << 17) if m >> b & 1 and independent[m])
    assert lowest == 1 << b | 1
    with pytest.raises(TheoremViolation) as exc:
        check_matroid_axioms(independent, 17)
    assert str(exc.value) == f"downward closure fails at mask {lowest:b}"


def test_cut_keeps_a_primitive_annihilator_basis():
    # Along random orders of each cell's points, the basis stays
    # primitive, annihilates every homogenized point so far and has
    # d + 1 - rank vectors, with the e_0 slot 0 throughout.
    rng = random.Random(11)
    for cell in cells_of(Graph.from_edges(combinations(range(5), 2)), (0, 1)):
        d = cell.dim
        for _ in range(3):
            labels = rng.sample(cell.points, len(cell.points))
            basis = [[int(k == c) for k in range(d + 2)] for c in range(1, d + 2)]
            rows = []
            for i, j in labels:
                basis = cut(basis, i, j)
                rows.append(phi((i, j), d) + (1,))
                assert len(basis) == d + 1 - reference_rank(rows)
                for a in basis:
                    assert a[0] == 0 and gcd(*a) == 1, a
                    assert all(sum(x * y for x, y in zip(a[1:], row)) == 0 for row in rows)


def test_cut_divides_out_a_common_factor():
    # Point (e_1, 1) in dimension 2: both vectors take the value 2, and
    # 2 * (0, 1, 0, 1) - 2 * (0, 1, 1, 1) = (0, 0, -2, 0).
    assert cut([[0, 1, 1, 1], [0, 1, 0, 1]], 1, 0) == [[0, 0, -1, 0]]
    # A point in the span leaves the basis as it is.
    basis = [[0, 1, 1, 0]]
    assert cut(basis, 1, 2) is basis


def assert_cell_tables_match_definitions(cell, e):
    """Each mask of both walked tables of one cell against a test of its
    own subset: an affine-rank test of its points, and its cyclomatic
    number."""
    ground, independent = point_table(cell, e)
    n = len(ground)
    edges = tuple(edge(*elem[0]) for elem in ground)
    graphic = graphic_table(edges)
    for mask in range(1 << n):
        subset = [b for b in range(n) if mask >> b & 1]
        rows = [phi(lab, cell.dim) + (1,) for b in subset for lab in ground[b]]
        # Independent iff at most d + 1 homogenized points have a
        # nonzero Gram determinant.
        free = len(rows) <= cell.dim + 1 and integer_determinant(
            [[sum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]
        ) != 0
        assert independent[mask] == free, (cell.points, mask)
        cyclic = cyclomatic_number(frozenset(edges[b] for b in subset)) != 0
        assert graphic[mask] != cyclic, (edges, mask)


def assert_tables_match_definitions(g, e):
    for cell in cells_of(g, e):
        assert_cell_tables_match_definitions(cell, e)


@pytest.mark.parametrize(
    "g, e",
    [
        (Graph.from_edges(combinations(range(5), 2)), (0, 1)),
        (Graph.from_edges(combinations(range(6), 2)), (0, 1)),
        (wheel_graph(6), (0, 1)),
        (running_example(), (0, 3)),
        # One cell, the contracted pair alone: a walk with no leaf.
        (Graph.from_edges([(0, 1)]), (0, 1)),
    ],
    ids=["K5", "K6", "W6", "running", "K2"],
)
def test_walked_tables_match_per_subset_definitions(g, e):
    assert_tables_match_definitions(g, e)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_walked_tables_match_per_subset_definitions_on_random_graphs(data):
    g = data.draw(connected_graphs(max_nodes=6))
    e = data.draw(st.sampled_from(g.sorted_edges()))
    assert_tables_match_definitions(g, e)


def test_walked_tables_match_definitions_on_a_large_k7_cell():
    e = (0, 1)
    cells = cells_of(Graph.from_edges(combinations(range(7), 2)), e)
    cell = next(c for c in cells if len(grouped_ground_set(c, e)) >= 12)
    assert_cell_tables_match_definitions(cell, e)


def assert_certificate_matches_tables(cell, e):
    """The certificate's edges, one per grouped element in ground order,
    are the cell subgraph's, and their graphic table is the point table."""
    edges = certify_morphism(cell, e)
    ground, independent = point_table(cell, e)
    assert edges == tuple(edge(*elem[0]) for elem in ground)
    assert set(edges) == cell_subgraphs(cell.points)[1]
    assert independent == graphic_table(edges), cell.points


@pytest.mark.parametrize(
    "name, cells", [("K6", 30), ("W7", 64), ("running", 72), ("petersen", 526)]
)
def test_certificate_matches_the_tables_on_named_graphs(name, cells):
    # Every cell of these four has at most 13 grouped elements.
    g, e = NAMED_LADDER[name]
    compared = 0
    for cell in cells_of(g, e):
        if len(grouped_ground_set(cell, e)) <= 13:
            assert_certificate_matches_tables(cell, e)
            compared += 1
    assert compared == cells


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_certificate_matches_the_tables_on_drawn_graphs(data):
    g = data.draw(connected_graphs(max_nodes=6))
    e = data.draw(st.sampled_from(g.sorted_edges()))
    for cell in cells_of(g, e):
        assert_certificate_matches_tables(cell, e)


def test_certificate_refuses_a_point_off_level_minus_one():
    # The directed triangle 2 -> 3 -> 4 -> 2 beside the pair: no gamma
    # puts all three arcs on level -1, and their points e_2 - e_3,
    # e_3 - e_4 and e_4 - e_2 are affinely independent although their
    # edges close a cycle, so the two tables differ.
    cell = Cell(((0, 1), (1, 0), (2, 3), (3, 4), (4, 2)), (0, 0, 1, 2))
    with pytest.raises(TheoremViolation) as exc:
        certify_morphism(cell, (0, 1))
    assert str(exc.value) == "point (4, 2) off level -1: gamma_4 - gamma_2 = 2"
    ground, independent = point_table(cell, (0, 1))
    triangle = mask_of(ground, {((2, 3),), ((3, 4),), ((4, 2),)})
    assert independent[triangle]
    assert not graphic_table(tuple(edge(*elem[0]) for elem in ground))[triangle]
    with pytest.raises(TheoremViolation, match="dependence mismatch"):
        exhaustive_morphism(cell, (0, 1))


def test_certificate_refuses_a_cell_without_the_pair():
    cell = Cell(((0, 1), (1, 2)), (0, 1))
    with pytest.raises(TheoremViolation) as exc:
        certify_morphism(cell, (0, 1))
    assert str(exc.value) == "contracted pair (0, 1), (1, 0) not both in the cell"


def test_certificate_refuses_a_repeated_point():
    # On level -1 no edge has both arcs as points, so only a repeated
    # point maps two grouped elements to one edge.
    cell = Cell(((0, 1), (1, 0), (1, 2), (1, 2)), (0, 1))
    with pytest.raises(TheoremViolation) as exc:
        certify_morphism(cell, (0, 1))
    assert str(exc.value) == "points (1, 2) and (1, 2) map to edge (1, 2)"
    with pytest.raises(TheoremViolation, match="do not map to distinct edges"):
        exhaustive_morphism(cell, (0, 1))
