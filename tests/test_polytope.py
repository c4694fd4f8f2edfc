import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    NAMED_LADDER,
    DDCone,
    NotFullDimensional,
    at_least,
    brute_force_facets,
    brute_force_subdivision,
    complete_graph,
    connected_graphs,
    cycle_graph,
    grid_graph,
    integer_determinant,
    path_graph,
    petersen_graph,
    placing_triangulation,
    potential_facets,
    prism_graph,
    random_connected_graph,
    random_tree,
    raises_input_error,
    reference_dd,
    reference_is_affinely_independent,
    reference_placing,
    reference_rank,
    reference_solve,
    regular_subdivision_supports,
    running_example,
    star_graph,
    validate_facet,
    wheel_graph,
)

from apx.errors import TheoremViolation
from apx.graphcore import Graph
from apx.polytope import (
    _PlacingState,
    _potential_leaves,
    build_configuration,
    enumerate_facets,
    normalized_volume,
    normalized_volume_of_cell,
    normalized_volume_of_points,
    phi,
)
from apx.exactlin import eliminate


def placing_state(points) -> _PlacingState:
    """The oracle's placing state of spanning lattice points, from their
    own elimination, not yet run."""
    return _PlacingState(points, eliminate([p + (1,) for p in points], len(points[0]) + 1))


def test_phi_map():
    assert phi((1, 2), 3) == (1, -1, 0)
    assert phi((0, 3), 3) == (0, 0, -1)
    assert phi((2, 0), 3) == (0, 1, 0)


def test_build_configuration_edge_graph():
    config = build_configuration(Graph.from_edges([(0, 1)]))
    assert config.dim == 1
    assert set(config.vectors) == {(1,), (-1,)}


def test_build_configuration_c3():
    config = build_configuration(cycle_graph(3))
    assert config.dim == 2
    assert len(config.labels) == 6
    assert set(config.vectors) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}
    for lab, v in zip(config.labels, config.vectors):
        assert v == phi(lab, 2)
        assert tuple(-x for x in v) == phi(lab[::-1], 2)


def test_build_configuration_one_node():
    config = build_configuration(Graph(1, frozenset()))
    assert config.dim == 0
    assert config.labels == ()


def test_build_configuration_disconnected():
    g = Graph.from_edges([(0, 1), (2, 3)])
    with raises_input_error("^adjacency polytopes need a connected graph$"):
        build_configuration(g)
    with raises_input_error("^adjacency polytopes need a connected graph$"):
        enumerate_facets(g)


def test_facets_edge_graph():
    facets = enumerate_facets(Graph.from_edges([(0, 1)]))
    assert [f.normal for f in facets] == [(-1,), (1,)]
    assert all(type(a) is int for f in facets for a in f.normal)
    assert facets[0].support == ((1, 0),)
    assert facets[1].support == ((0, 1),)


def _hull_rays(vectors):
    """(alpha, beta, tight mask) of every facet <x, alpha> + beta >= 0 of
    conv(vectors), read off the double description cone of the valid
    inequalities, with no use of the potential search."""
    rows = [tuple(v) + (1,) for v in vectors]
    return [(v[:-1], v[-1], mask) for v, mask in DDCone(len(rows[0]), rows).rays]


def test_facets_c3_count():
    facets = enumerate_facets(cycle_graph(3))
    assert len(facets) == 6


def test_facets_path3_count():
    facets = enumerate_facets(path_graph(3))
    assert len(facets) == 4


def test_facets_one_node_convention():
    facets = enumerate_facets(Graph(1, frozenset()))
    assert facets == [type(facets[0])((), ())]


def test_facets_match_brute_force():
    rng = random.Random(41)
    graphs = [
        Graph.from_edges([(0, 1)]),
        path_graph(3),
        cycle_graph(3),
        cycle_graph(4),
        cycle_graph(5),
    ]
    for _ in range(8):
        graphs.append(random_connected_graph(rng, max_nodes=5, max_edges=7))
    for g in graphs:
        config = build_configuration(g)
        facets = enumerate_facets(g)
        expected = brute_force_facets(config.vectors, config.dim)
        assert len(facets) == len(expected)
        for facet, (alpha, support_idx) in zip(facets, expected):
            assert facet.normal == alpha
            assert facet.support == tuple(sorted(config.labels[i] for i in support_idx))


def test_facet_certificates_revalidate():
    rng = random.Random(43)
    for _ in range(10):
        g = random_connected_graph(rng, max_nodes=6, max_edges=9)
        config = build_configuration(g)
        for facet in enumerate_facets(g):
            assert validate_facet(config, facet)


def test_facet_list_closed_under_central_symmetry():
    rng = random.Random(47)
    for _ in range(10):
        g = random_connected_graph(rng, max_nodes=6, max_edges=9)
        facets = enumerate_facets(g)
        normals = {f.normal for f in facets}
        assert {tuple(-a for a in n) for n in normals} == normals


def test_every_point_on_a_facet_or_inside():
    # For these symmetric configurations every point is a vertex, hence on
    # some facet; interiorness would show as a point on no facet.
    rng = random.Random(53)
    for _ in range(6):
        g = random_connected_graph(rng, max_nodes=5, max_edges=8)
        config = build_configuration(g)
        facets = enumerate_facets(g)
        for lab in config.labels:
            assert any(lab in f.support for f in facets)


def test_hull_facet_rays_square():
    points = [(0, 0), (1, 0), (0, 1), (1, 1)]
    rays = _hull_rays(points)
    assert len(rays) == 4


def test_volume_segment():
    assert normalized_volume(build_configuration(Graph.from_edges([(0, 1)]))) == 2


def test_volume_c4_c5():
    assert normalized_volume(build_configuration(cycle_graph(4))) == 12
    assert normalized_volume(build_configuration(cycle_graph(5))) == 30


def test_volume_unit_shapes():
    # nvol = d! * euclidean volume.
    simplex = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert normalized_volume_of_points(simplex) == 1
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert normalized_volume_of_points(square) == 2
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert normalized_volume_of_points(cube) == 6
    cross3 = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    assert normalized_volume_of_points(cross3) == 8


def test_volume_invariant_under_point_order():
    rng = random.Random(59)
    for _ in range(20):
        d = rng.randint(1, 3)
        pts = {tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(d + 1, 8))}
        pts = sorted(pts)
        if reference_rank([p + (1,) for p in pts]) != d + 1:
            continue
        reference = normalized_volume_of_points(pts)
        assert reference > 0
        for _ in range(3):
            shuffled = pts[:]
            rng.shuffle(shuffled)
            assert normalized_volume_of_points(shuffled) == reference


def test_volume_with_interior_and_boundary_points():
    # Interior or collinear extra points must not change the volume.
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert normalized_volume_of_points(square) == 8
    assert normalized_volume_of_points(square + [(1, 1)]) == 8
    assert normalized_volume_of_points([(1, 1)] + square) == 8
    assert normalized_volume_of_points(square + [(1, 0)]) == 8
    # In dimension 1 a horizon face is empty: each end of the segment is
    # the other's neighbour.
    assert normalized_volume_of_points([(0,), (2,), (1,), (-3,), (5,)]) == 8


def test_volume_of_a_set_that_does_not_span_is_zero():
    # The oracle answers the normalized d-volume of a set that does not
    # span R^d, 0; the references refuse it.  Empty input is an error.
    assert normalized_volume_of_points([(0, 0), (1, 1), (2, 2)]) == 0
    assert normalized_volume_of_points([(1, 0, 2)]) == 0
    assert normalized_volume_of_cell([(1,)], eliminate([(1, 1)], 2)) == 0
    with raises_input_error("^empty point set$"):
        normalized_volume_of_points([])
    with pytest.raises(NotFullDimensional):
        placing_triangulation([(0, 0), (1, 1), (2, 2)])
    # Hulls and lower hulls raise from their cone's rank test, on points
    # that span a line, and on points that span R^2 linearly but lie on
    # one affine line, whose volume is 0.
    line = ((1, 1), (-1, -1), (2, 2))
    for vectors in (line, ((1, 0), (0, 1), (2, -1))):
        assert normalized_volume_of_points(vectors) == 0
        with pytest.raises(NotFullDimensional):
            _hull_rays(vectors)
        with pytest.raises(NotFullDimensional):
            regular_subdivision_supports(vectors, [0, 1, 0])


def _reference_greedy_basis(rows, size):
    """The first rows that each raise the rank, by reference ranks."""
    basis = []
    for i, row in enumerate(rows):
        if len(basis) < size and reference_rank([rows[k] for k in basis] + [row]) > len(basis):
            basis.append(i)
    return basis


def test_seed_basis_skips_dependent_rows():
    # Row 1 = 2 * row 0 and row 3 = row 0 + row 2 raise no rank.
    rows = [(1, 2, 0), (2, 4, 0), (0, 1, 1), (1, 3, 1), (0, 0, 5), (3, 1, 4)]
    seed = eliminate(rows, 3)
    basis, d = seed.basis, seed.det
    assert basis == [0, 2, 4] == _reference_greedy_basis(rows, 3)
    assert abs(d) == abs(integer_determinant([rows[i] for i in basis])) == 5
    # Random rows, each a combination of earlier ones with probability
    # one half: the basis is the greedy one, also when it is short, and
    # on a full basis B the right block is d * B^-T with d = +-det B.
    rng = random.Random(89)
    for _ in range(80):
        dim = rng.randint(1, 5)
        rows = []
        for _ in range(rng.randint(0, dim + 3)):
            if rows and rng.random() < 0.5:
                row = [0] * dim
                for earlier in rng.sample(rows, rng.randint(1, len(rows))):
                    c = rng.randint(-2, 2)
                    row = [a + c * b for a, b in zip(row, earlier)]
            else:
                row = [rng.randint(-3, 3) for _ in range(dim)]
            rows.append(tuple(row))
        seed = eliminate(rows, dim)
        basis, rays, d = seed.basis, seed.inverse, seed.det
        assert basis == _reference_greedy_basis(rows, dim)
        if len(basis) < dim:
            with pytest.raises(NotFullDimensional):
                DDCone(dim, rows)
            continue
        b = [rows[i] for i in basis]
        assert abs(d) == abs(integer_determinant(b)) > 0
        for j, ray in enumerate(rays):
            assert [sum(x * y for x, y in zip(row, ray)) for row in b] == [
                d * (i == j) for i in range(dim)
            ]
        # The placing oracle places the greedy affine basis first: its
        # positions 0..d are the bits of the seed simplex's mask.
        points = sorted(set(rows))
        homogenized = [p + (1,) for p in points]
        if reference_rank(homogenized) == dim + 1:
            state = placing_state(points)
            assert state.order[: dim + 1] == _reference_greedy_basis(homogenized, dim + 1)
            # Seed facet j is primitive, tight on every seed row but the
            # j-th, positive on that one, and holds the face opposite it.
            seed = state.rows[: dim + 1]
            full = (1 << (dim + 1)) - 1
            assert state.volume == abs(integer_determinant(seed))
            for j, (normal, mask, faces) in enumerate(state.facets):
                values = [sum(a * b for a, b in zip(normal, row)) for row in seed]
                assert gcd(*normal) == 1 and values[j] > 0
                assert values[:j] + values[j + 1 :] == [0] * dim
                assert mask == full ^ (1 << j)
                assert faces == {full ^ (1 << j): (state.volume, j)}


@pytest.mark.parametrize("n", range(2, 8))
def test_complete_graph_known_answers(n):
    # Ardila-Beck-Hosten-Pfeifle-Seashore 2011, "Root polytopes".
    g = Graph.from_edges(combinations(range(n), 2))
    assert normalized_volume(build_configuration(g)) == comb(2 * n - 2, n - 1)
    assert len(enumerate_facets(g)) == 2**n - 2


@pytest.mark.parametrize("m", range(3, 11))
def test_cycle_known_volumes(m):
    # Chen-Davis-Mehta 2018: C_{2k+1} has (2k+1) C(2k, k), C_{2k} has k C(2k, k).
    k = m // 2
    expected = (m if m % 2 else k) * comb(2 * k, k)
    assert normalized_volume(build_configuration(cycle_graph(m))) == expected


def test_volume_cell_simplex():
    assert normalized_volume_of_cell([(1,), (-1,)], eliminate([(1, 1), (-1, 1)], 2)) == 2


def test_placing_triangulation_simplices_are_independent():
    rng = random.Random(61)
    for _ in range(15):
        d = rng.randint(2, 3)
        pts = sorted(
            {tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(4, 9))}
        )
        if reference_rank([p + (1,) for p in pts]) != d + 1:
            continue
        tri = placing_triangulation(pts)
        for simplex in tri:
            assert len(simplex) == d + 1
            assert reference_is_affinely_independent([pts[i] for i in simplex])


def test_regular_subdivision_matches_brute_force():
    rng = random.Random(67)
    for _ in range(10):
        g = random_connected_graph(rng, max_nodes=5, max_edges=7)
        config = build_configuration(g)
        weights = [rng.randint(0, 2) for _ in config.labels]
        # Weights 0 to 2 can give rational lower facets: divide each ray
        # (t * gamma, t * h, t) by t here, and sort as the brute force does.
        got = sorted(
            (tuple(Fraction(a, ray[-1]) for a in ray[:-2]), Fraction(ray[-2], ray[-1]), mask)
            for ray, mask in regular_subdivision_supports(config.vectors, weights)
        )
        expected = brute_force_subdivision(config.vectors, weights, config.dim)
        assert len(got) == len(expected)
        for (gamma, h, mask), ((bg, bh), bsupport) in zip(got, expected):
            assert gamma == bg and h == bh
            assert tuple(i for i in range(len(config.labels)) if mask >> i & 1) == bsupport


def test_ddcone_seed_is_primitive_inverse_columns():
    # The seed must give, for each basis row j, the primitive
    # integer multiple of column j of the inverse, oriented into the cone.
    rng = random.Random(83)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)]
        if reference_rank(rows) < n:
            continue
        rays = DDCone(n, rows).rays
        for j, (ray, mask) in enumerate(rays):
            col = reference_solve(rows, [int(i == j) for i in range(n)])
            scale = lcm(*(x.denominator for x in col))
            expected = [int(x * scale) for x in col]
            g = gcd(*expected)
            expected = [x // g for x in expected]
            if sum(a * b for a, b in zip(rows[j], expected)) < 0:
                expected = [-x for x in expected]
            assert ray == tuple(expected)
            assert mask == ((1 << n) - 1) ^ (1 << j)


class _CheckedCone(DDCone):
    """A DDCone that checks every insert against ``reference_dd``: the
    rays, their masks and the cut rays, and every maintained ``tight``
    bitset against one rebuilt from the masks.  Freed ids are reused, so
    the id range never exceeds the largest ray list so far.  Records the
    inserted rows and that largest ray list."""

    def __init__(self, dim, rows):
        self.inserted = []
        self.peak = dim
        super().__init__(dim, rows)

    def _insert(self, idx, row):
        before = list(self.rays)
        cut = super()._insert(idx, row)
        after, ref_cut = reference_dd(before, self.dim, idx, row)
        assert sorted(self.rays) == sorted(after)
        assert sorted(cut) == sorted(ref_cut)
        assert self.rays == [s for s in self.slots if s is not None]
        rebuilt = [0] * len(self.rows)
        for j, slot in enumerate(self.slots):
            if slot is not None:
                for i in range(len(self.rows)):
                    if slot[1] >> i & 1:
                        rebuilt[i] |= 1 << j
        assert self.tight == rebuilt
        self.inserted.append(idx)
        self.peak = max(self.peak, len(self.rays))
        assert len(self.slots) <= self.peak
        return cut


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 2**40 - 1), max_size=20), st.integers(0, 22))
def test_bit_sliced_count_matches_a_plain_count(sets, needed):
    got = at_least(sets, needed)
    for x in range(41):
        count = sum(s >> x & 1 for s in sets)
        assert (got >> x & 1) == (count >= needed)


@st.composite
def integer_cones(draw):
    """Integer rows in dimension <= 6, split into a first batch of full
    rank and rows added one by one after it."""
    dim = draw(st.integers(1, 6))
    row = st.tuples(*[st.integers(-3, 3)] * dim)
    first = draw(st.lists(row, min_size=dim, max_size=dim + 6))
    assume(reference_rank(first) == dim)
    return dim, first, draw(st.lists(row, max_size=6))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(integer_cones())
def test_ddcone_matches_reference_on_random_cones(case):
    dim, first, added = case
    cone = _CheckedCone(dim, first)
    for row in added:
        cone.add_row(row)
    assert len(cone.inserted) == len(first) + len(added) - dim


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(connected_graphs(), st.data())
def test_ddcone_matches_reference_on_hull_and_lower_hull_cones(g, data):
    vectors = build_configuration(g).vectors
    d = len(vectors[0])
    _CheckedCone(d + 1, [v + (1,) for v in vectors])
    weights = data.draw(st.lists(st.integers(0, 3), min_size=len(vectors), max_size=len(vectors)))
    lifted = [v + (-1, w) for v, w in zip(vectors, weights)]
    _CheckedCone(d + 2, lifted + [(0,) * (d + 1) + (1,)])


def test_ddcone_counters_on_w10_hull_cone():
    # perfbench counts one _insert per row added and reads len(rays)
    # after each; _CheckedCone compares that list with the reference.
    wheel = [(0, i) for i in range(1, 10)] + [(i, i % 9 + 1) for i in range(1, 10)]
    vectors = build_configuration(Graph.from_edges(wheel)).vectors
    rows = [v + (1,) for v in vectors]
    cone = _CheckedCone(10, rows)
    assert len(set(cone.inserted)) == len(cone.inserted) == len(rows) - 10
    assert (cone.peak, len(cone.rays)) == (1643, 1598)


def test_facet_ids_stay_narrow_in_the_grid_placing_run():
    # A new facet takes the lowest free id, so no id reaches the largest
    # live facet count so far, and ``live`` names the live ids.
    grid = [(v, v + 1) for v in range(12) if v % 4 != 3] + [(v, v + 4) for v in range(8)]
    state = placing_state(list(build_configuration(Graph.from_edges(grid)).vectors))
    peak = width = 0
    for k in range(len(state.rows[0]), len(state.rows)):
        state.insert(k)
        live = [j for j, facet in enumerate(state.facets) if facet is not None]
        assert state.live == sum(1 << j for j in live)
        peak = max(peak, len(live))
        width = max(width, len(state.facets))
    assert width <= peak
    assert state.volume == 22720


def test_placing_raises_on_an_inexact_volume_ratio():
    # Seed [0, 2] has volume 2 on its face {2}, whose facet normal is
    # (-1, 2); placing 3 scales that volume by 1/2.  A boundary volume
    # of 1 instead makes the ratio inexact, which no triangulation gives.
    state = placing_state([(0,), (2,), (3,)])
    for _, _, faces in state.facets:
        for m, (_, j) in faces.items():
            faces[m] = (1, j)
    with pytest.raises(TheoremViolation, match="not an integer"):
        state.run()


def test_placing_raises_when_no_facet_holds_a_boundary_face():
    # Seed facet j is opposite position j: 0 is x + y <= 1, 1 is x >= 0
    # and 2 is y >= 0.  Placing (1, 1) sees facet 0 only, and leaves the
    # horizon faces (1, 0), on facets 0 and 2, and (0, 1), on 0 and 1.
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    # No facet holds (1, 0) once its row's tight bitset is blanked.
    state = placing_state(square)
    state.tight[1] = 0
    with pytest.raises(TheoremViolation, match="one visible and one other facet"):
        state.run()
    # A copy of y >= 0 under a fourth id makes (1, 0) lie on three.
    state = placing_state(square)
    state.facets.append(state.facets[2])
    state.tight[0] |= 1 << 3
    state.tight[1] |= 1 << 3
    state.live |= 1 << 3
    with pytest.raises(TheoremViolation, match="one visible and one other facet"):
        state.run()


def _determinant_volume(points) -> int:
    """Sum of |det| over the simplices of the placing triangulation."""
    total = 0
    for simplex in placing_triangulation(points):
        base = points[simplex[0]]
        rows = [[a - b for a, b in zip(points[j], base)] for j in simplex[1:]]
        det = integer_determinant(rows)
        assert det != 0
        total += abs(det)
    return total


def test_placing_volumes_match_determinants_on_random_points():
    # Boxes with random extra points give interior points and points
    # coplanar with hull facets; small grids give coplanar points anyway.
    rng = random.Random(89)
    checked = 0
    for case in range(80):
        d = rng.randint(1, 4)
        pts = set()
        if case % 2:
            pts |= {tuple(rng.choice((-2, 2)) for _ in range(d)) for _ in range(2 * 2**d)}
        pts |= {tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(d + 1, d + 8))}
        pts = sorted(pts)
        rng.shuffle(pts)
        if reference_rank([p + (1,) for p in pts]) != d + 1:
            continue
        assert normalized_volume_of_points(pts) == _determinant_volume(pts)
        checked += 1
    assert checked >= 50


@st.composite
def point_sets(draw):
    """Distinct lattice points in R^d, 1 <= d <= 4.  Half of the draws are
    the image of points of Z^k, k < d, under an integer affine map, so
    they do not span R^d; the other half may or may not."""
    d = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    k = d if draw(st.booleans()) else draw(st.integers(0, d - 1))
    base = draw(st.lists(st.tuples(*[small] * k), min_size=1, max_size=d + 6, unique=True))
    if k == d:
        return base
    matrix = draw(st.lists(st.tuples(*[small] * k), min_size=d, max_size=d))
    offset = draw(st.tuples(*[small] * d))
    image = {
        tuple(o + sum(a * x for a, x in zip(row, p)) for row, o in zip(matrix, offset))
        for p in base
    }
    return draw(st.permutations(sorted(image)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(point_sets())
def test_volume_is_zero_exactly_when_the_points_do_not_span(points):
    d = len(points[0])
    volume = normalized_volume_of_points(points)
    if reference_rank([p + (1,) for p in points]) < d + 1:
        assert volume == 0
    else:
        assert volume == _determinant_volume(points) > 0


@pytest.mark.parametrize(
    "g",
    [Graph.from_edges(combinations(range(n), 2)) for n in range(3, 7)]
    + [cycle_graph(m) for m in range(4, 9)]
    + [running_example()],
    ids=[f"K{n}" for n in range(3, 7)] + [f"C{m}" for m in range(4, 9)] + ["running"],
)
def test_placing_volumes_match_determinants_on_graphs(g):
    vectors = build_configuration(g).vectors
    assert normalized_volume_of_points(vectors) == _determinant_volume(vectors)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(connected_graphs())
def test_facets_match_potential_oracle(g):
    expected = potential_facets(g)
    got = {f.normal: f.support for f in enumerate_facets(g)}
    assert got == expected


NAMED_GRAPHS = {
    "W10": wheel_graph(10),
    "petersen": petersen_graph(),
    "prism5": prism_graph(5),
    "grid3x4": grid_graph(3, 4),
    "C12": cycle_graph(12),
    "K7": complete_graph(7),
    "W12": wheel_graph(12),
}


def _cone_facets(config):
    """(normal, support) of every facet, read off the double description
    cone of ``_hull_rays`` with no use of the potential search."""
    out = []
    for alpha, beta, mask in _hull_rays(config.vectors):
        assert beta == 1
        out.append((alpha, tuple(lab for i, lab in enumerate(config.labels) if mask >> i & 1)))
    return sorted(out)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(connected_graphs(max_nodes=8))
def test_potential_search_matches_the_cone_on_drawn_graphs(g):
    assert [tuple(f) for f in enumerate_facets(g)] == _cone_facets(build_configuration(g))


@pytest.mark.parametrize("name", NAMED_GRAPHS)
def test_potential_search_matches_the_cone_on_named_graphs(name):
    g = NAMED_GRAPHS[name]
    facets = enumerate_facets(g)
    assert [tuple(f) for f in facets] == _cone_facets(build_configuration(g))
    if name == "W12":
        assert len(facets) == 8230


@pytest.mark.parametrize("name", ["W10", "C12", "grid3x4"])
def test_every_leaf_of_the_potential_search_is_a_facet(name):
    # The cuts leave no leaf to discard: one leaf per facet, no repeats.
    config = build_configuration(NAMED_GRAPHS[name])
    leaves = list(_potential_leaves(config))
    assert len(leaves) == len(set(leaves)) == len(_hull_rays(config.vectors))


@pytest.mark.parametrize("m", range(3, 15))
def test_cycle_facet_counts(m):
    # C_m has C(m, m/2) facets for even m and m C(m-1, (m-1)/2) for odd m.
    expected = comb(m, m // 2) if m % 2 == 0 else m * comb(m - 1, (m - 1) // 2)
    assert len(enumerate_facets(cycle_graph(m))) == expected


def test_tree_facet_counts():
    # Every +-1 potential on a tree is a facet: 2^(n-1) of them.
    rng = random.Random(101)
    trees = [path_graph(n) for n in range(2, 11)] + [star_graph(n) for n in range(2, 11)]
    trees += [random_tree(rng, max_nodes=11) for _ in range(10)]
    for g in trees:
        assert len(enumerate_facets(g)) == 2 ** (g.node_count - 1)


def _placed_in_step_with_the_reference(points) -> int:
    """Place ``points`` with the oracle and with ``reference_placing`` in
    step: after every point, the facets (normal, tight mask, boundary
    faces) and the volume agree.  Returns the volume."""
    state, ref = placing_state(points), reference_placing(points)
    assert state.order == ref.order
    for k in range(len(state.rows[0]), len(state.rows)):
        state.insert(k)
        ref.insert(k)
        got = {v: (m, faces) for v, m, faces in filter(None, state.facets)}
        assert got == {v: (m, ref.faces[v]) for v, m in ref.cone.rays}
        assert state.volume == ref.volume
    return state.volume


@st.composite
def placing_point_sets(draw):
    """Distinct lattice points spanning R^d, 1 <= d <= 5, from [-2, 2]^d.
    Half of them hold box corners, so that points lie on one facet
    hyperplane with others (coplanar) or inside the hull."""
    d = draw(st.integers(1, 5))
    point = st.tuples(*[st.integers(-2, 2)] * d)
    pts = draw(st.lists(point, min_size=1, max_size=d + 8, unique=True))
    if draw(st.booleans()):
        corner = st.tuples(*[st.sampled_from((-2, 2))] * d)
        pts += [c for c in draw(st.lists(corner, max_size=8, unique=True)) if c not in pts]
    pts = draw(st.permutations(pts))
    assume(reference_rank([p + (1,) for p in pts]) == d + 1)
    return pts


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(placing_point_sets())
def test_placing_oracle_matches_the_reference_on_drawn_points(points):
    assert _placed_in_step_with_the_reference(points) == _determinant_volume(points)


@pytest.mark.parametrize("name", NAMED_LADDER)
def test_placing_oracle_matches_the_reference_on_the_ladder(name):
    vectors = list(build_configuration(NAMED_LADDER[name][0]).vectors)
    volume = _placed_in_step_with_the_reference(vectors)
    assert volume == normalized_volume_of_points(vectors)
    if len(vectors) <= 30:
        assert volume == _determinant_volume(vectors)
