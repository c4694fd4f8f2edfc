import json
import os
import random
import re
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import pytest

import apx
from conftest import (
    cells_of,
    complete_graph,
    cycle_graph,
    random_connected_graph,
    running_example,
    star_graph,
    wheel_graph,
)

from apx.errors import TheoremViolation
from apx.graphcore import Graph, edge, split_at
from apx.polytope import build_configuration
from apx.verify import run_verification


def test_c4_full_pass():
    report = run_verification(cycle_graph(4), (0, 3), level="full")
    assert report.passed()
    assert "matroid_morphism" in report.checks
    assert len(report.cell_reports) == 6


def test_c5_full_pass():
    report = run_verification(cycle_graph(5), (0, 4), level="full")
    assert report.passed()
    assert all(r.corank == 1 for r in report.cell_reports)


def test_fast_level_subset():
    report = run_verification(cycle_graph(5), (0, 4), level="fast")
    assert report.passed()
    assert "matroid_morphism" not in report.checks
    assert "max_corank_equals_balanced_circuit_rank" not in report.checks


def test_split_at_contraction_running_example():
    # The running example splits at (0, 3) into two sides sharing only the
    # contracted edge, so verify checks the product bijection.
    g = running_example()
    split = split_at(g, (0, 3))
    assert split is not None
    side1, side2 = split
    assert len(side1) + len(side2) == len(g.edges) + 1
    assert set(side1) & set(side2) == {(0, 3)}
    report = run_verification(g, (0, 3), level="fast")
    assert report.checks["product_correspondence"].passed


def test_split_at_contraction_cycle_none():
    # A cycle has no split, so verify leaves the product bijection out.
    assert split_at(cycle_graph(5), (0, 4)) is None
    report = run_verification(cycle_graph(5), (0, 4), level="fast")
    assert "product_correspondence" not in report.checks


def test_star_tree_report():
    g = star_graph(5)
    report = run_verification(g, (0, 1), level="full")
    assert report.passed()
    assert report.checks["special_graph_classes"].detail == "tree"


def test_single_edge_graph():
    report = run_verification(Graph.from_edges([(0, 1)]), (0, 1), level="full")
    assert report.passed()


def test_random_corpus_fast():
    rng = random.Random(113)
    for _ in range(6):
        g = random_connected_graph(rng, max_nodes=6, max_edges=9)
        e = rng.choice(g.sorted_edges())
        report = run_verification(g, e, level="fast")
        assert report.passed(), [name for name, c in report.checks.items() if not c.passed]


def test_cell_oracle_runs_once_per_cell(monkeypatch):
    import apx.polytope as polytope

    calls = []
    run = polytope._PlacingState.run

    def counting(state):
        calls.append(len(state.rows))
        return run(state)

    monkeypatch.setattr(polytope._PlacingState, "run", counting)
    report = run_verification(running_example(), (0, 3), level="fast")
    assert report.passed()
    # One run per cell, shared by the cell analysis and volume additivity,
    # plus one for the whole polytope.
    assert len(calls) == len(report.cell_reports) + 1


def test_affine_elimination_runs_once_per_cell(monkeypatch):
    import apx.exactlin as exactlin
    import apx.graphcore as graphcore
    import apx.subdivision as subdivision
    import apx.verify as verify

    passes, forests, analysing = [], [], []
    gauss_jordan, forest, analyze = exactlin.gauss_jordan, graphcore.forest, verify.analyze_cell

    def counting(m):
        passes.append(len(m[0]))
        return gauss_jordan(m)

    def counting_forest(edges):
        forests.append(len(edges))
        return forest(edges)

    def graph_forest(edges):
        # graphcore's own readers run on whole graphs, never for a cell.
        assert not analysing, "a second forest pass inside a cell's analysis"
        return forest(edges)

    def analysing_cell(*args):
        analysing.append(True)
        try:
            return analyze(*args)
        finally:
            analysing.pop()

    monkeypatch.setattr(exactlin, "gauss_jordan", counting)
    monkeypatch.setattr(subdivision, "forest", counting_forest)
    monkeypatch.setattr(graphcore, "forest", graph_forest)
    monkeypatch.setattr(verify, "analyze_cell", analysing_cell)
    k6 = Graph.from_edges(combinations(range(6), 2))
    # The maximum corank (at full) and the odd-cycle statement (C7) read
    # the coranks and circuit verdicts of the cell analyses.
    for g, e, level in [
        (running_example(), (0, 3), "fast"),
        (k6, (0, 1), "full"),
        (cycle_graph(7), (0, 6), "fast"),
    ]:
        passes.clear()
        forests.clear()
        report = run_verification(g, e, level=level)
        assert report.passed()
        # One elimination of [M | I] and one forest pass per cell, in its
        # analysis: every per-cell statement, and the cell's volume, read
        # that one record.  The one other pass is the whole polytope's.
        cells = cells_of(g, e)
        n = g.node_count - 1
        whole = len(build_configuration(g).labels) + n + 1
        assert passes == [len(c.points) + n + 1 for c in cells] + [whole], (g, level)
        assert forests == [len({edge(*lab) for lab in c.points}) for c in cells], (g, level)


def test_failed_cell_analyses_are_failing_evidence(monkeypatch):
    # A cell whose analysis raised is not analysed again: the maximum
    # corank leaves it out and says how many cells it left out, and the
    # odd-cycle class counts it as no circuit.
    import apx.cellanalysis as cellanalysis

    corank = cellanalysis.corank

    def failing_on_odd_corank(rec, e):
        value = corank(rec, e)
        if value % 2:
            raise TheoremViolation(f"injected at corank {value}")
        return value

    monkeypatch.setattr(cellanalysis, "corank", failing_on_odd_corank)
    k4 = Graph.from_edges(combinations(range(4), 2))
    checks = run_verification(k4, (0, 1), level="full").checks
    assert not checks["cell_invariants"].passed
    check = checks["max_corank_equals_balanced_circuit_rank"]
    assert not check.passed
    assert check.detail == "max corank 2, balanced circuit rank 2, 4 of 6 cells not analysed"
    checks = run_verification(cycle_graph(5), (0, 4), level="fast").checks
    assert not checks["special_graph_classes"].passed
    assert checks["special_graph_classes"].detail == "odd_cycle"


def test_max_corank_check_refuses_a_balanced_circuit_rank_off_by_one(monkeypatch):
    # The comparison itself: every cell is analysed, and a balanced
    # circuit rank one above the true one fails the check, which names
    # both numbers.
    import apx.verify as verify

    true_rank = verify.balanced_circuit_rank
    monkeypatch.setattr(verify, "balanced_circuit_rank", lambda g, e: true_rank(g, e) + 1)
    checks = run_verification(complete_graph(4), (0, 1), level="full").checks
    assert checks["cell_invariants"].passed
    check = checks["max_corank_equals_balanced_circuit_rank"]
    assert not check.passed
    assert check.detail == "max corank 2, balanced circuit rank 3"


def test_simpliciality_transfer_names_the_cell_and_the_facet(monkeypatch):
    # C4's cell 1 paired with a square facet of C5 // {0, 4}.  The facet
    # check fails first, and the transfer reads "correspondence
    # unavailable"; with the facet check passed over, the transfer names
    # the cell and the facet's support.
    import apx.verify as verify

    real = verify.cells_with_facets
    _, square = real(cycle_graph(5), (0, 4))[0]

    def swapped(g, e):
        pairs = real(g, e)
        pairs[1] = (pairs[1][0], square)
        return pairs

    monkeypatch.setattr(verify, "cells_with_facets", swapped)
    checks = run_verification(cycle_graph(4), (0, 3), level="fast").checks
    assert not checks["facet_correspondence"].passed
    assert checks["simpliciality_transfer"] == (False, "correspondence unavailable")
    monkeypatch.setattr(verify, "facet_correspondence", lambda g, e, pairs: None)
    checks = run_verification(cycle_graph(4), (0, 3), level="fast").checks
    assert checks["simpliciality_transfer"] == (
        False,
        f"simplicial cell 1 maps to the non-simplicial facet {square.support}",
    )


def test_report_json_shape():
    report = run_verification(cycle_graph(4), (0, 3), level="full")
    payload = report.to_json_dict()
    assert payload["edge"] == [0, 3]
    assert payload["passed"] is True
    assert list(payload["checks"]) == list(report.checks)
    assert len(payload["cells"]) == 6
    for cell in payload["cells"]:
        assert set(cell) == {
            "corank",
            "simplicial",
            "circuit",
            "properties",
            "volume_closed_form",
            "volume_oracle",
            "checks",
        }
        assert set(cell["checks"]) <= {"properties", "radon_split"}
        assert cell["volume_closed_form"] == cell["volume_oracle"] == 2


def test_theorem_checks_survive_python_O():
    # With one side of "corank = cyclomatic number" broken, the failure
    # must still be reported, with the statement, when asserts are off.
    script = textwrap.dedent(
        """
        import json
        import apx.subdivision as subdivision
        from apx.graphcore import Graph
        from apx.verify import run_verification

        real = subdivision.forest

        def forest(edges):
            # One cycle too many on the graph side.
            result = real(edges)
            return result._replace(cycles=result.cycles + (result.tree,))

        subdivision.forest = forest
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
        report = run_verification(g, (0, 1), level="fast")
        check = report.checks["cell_invariants"]
        print(json.dumps({"debug": __debug__, "passed": check.passed, "detail": check.detail}))
        """
    )
    src = str(Path(apx.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    result = json.loads(out.stdout)
    assert result["debug"] is False
    assert result["passed"] is False
    assert "cell 0: TheoremViolation: corank 0 != cyclomatic number 1" in result["detail"]


def test_cell_invariants_names_failing_checks(monkeypatch):
    # C4's cell 2 reads spans_all_nodes false, and cell 4 two properties
    # false, one of them the derived at_most_one_odd.  The detail names
    # each failing property, and each reads false in that cell's report.
    import apx.cellanalysis as cellanalysis

    real = cellanalysis.verify_cell_properties
    faults = {
        2: {"spans_all_nodes": False},
        4: {"closed_under_swap": False, "basis_odd_cycles": 2},
    }
    calls = []

    def failing(g, e, rec):
        calls.append(rec)
        return real(g, e, rec)._replace(**faults.get(len(calls) - 1, {}))

    monkeypatch.setattr(cellanalysis, "verify_cell_properties", failing)
    report = run_verification(cycle_graph(4), (0, 3), level="fast")
    check = report.checks["cell_invariants"]
    assert not check.passed
    assert check.detail == (
        "cell 2: properties (spans_all_nodes); "
        "cell 4: properties (closed_under_swap, at_most_one_odd)"
    )
    for part in check.detail.split("; "):
        i, names = re.fullmatch(r"cell (\d+): properties \((.*)\)", part).groups()
        properties = report.cell_reports[int(i)].properties
        assert all(getattr(properties, name) is False for name in names.split(", "))
    passing = [i not in faults for i in range(6)]
    assert [r.checks["properties"] for r in report.cell_reports] == passing


def test_special_edge_names_the_cell_and_the_point_it_lacks(monkeypatch):
    # Cell 3 of C5 with its point (4, 0) dropped: the check names the
    # first cell without both contracted points, and a point it lacks.
    import apx.verify as verify

    real = verify.cells_with_facets

    def dropped(g, e):
        pairs = real(g, e)
        cell, facet = pairs[3]
        pairs[3] = (cell._replace(points=tuple(p for p in cell.points if p != (4, 0))), facet)
        return pairs

    monkeypatch.setattr(verify, "cells_with_facets", dropped)
    report = run_verification(cycle_graph(5), (0, 4), level="fast")
    check = report.checks["special_edge"]
    assert check == (False, "cell 3 lacks (4, 0) of the contracted pair")
    found = re.fullmatch(r"cell (\d+) lacks \((\d+), (\d+)\) .*", check.detail)
    i, a, b = map(int, found.groups())
    cells = [cell for cell, _ in dropped(cycle_graph(5), (0, 4))]
    assert (a, b) not in cells[i].points
    assert all(c.contains_contracted_pair((0, 4)) for c in cells[:i])


def test_verify_enumerates_each_contracted_graph_once(monkeypatch):
    # The correspondences check the facets the cells were built from: one
    # enumeration of G // e, and one of each contracted half when G splits
    # at e, as the running example does at (0, 3).  W7 and K6 do not split
    # at (0, 1), so they report no product correspondence.
    import apx.subdivision as subdivision

    real = subdivision.enumerate_facets
    calls = []

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(subdivision, "enumerate_facets", counting)
    for g, e, count in [
        (wheel_graph(7), (0, 1), 1),
        (complete_graph(6), (0, 1), 1),
        (running_example(), (0, 3), 3),
    ]:
        calls.clear()
        checks = run_verification(g, e, level="fast").checks
        assert all(c.passed for c in checks.values())
        assert len(calls) == count, g
        assert ("product_correspondence" in checks) == (count == 3)
    assert checks["facet_correspondence"].detail == "72 cells <-> 72 facets"
    assert checks["product_correspondence"].detail == "72 cells = 6 x 12 facet pairs"


K33 = [(a, b) for a in range(3) for b in range(3, 6)]
# K_{3,3} on the parts {0, 4, 5} and {1, 2, 3}, without (3, 5), or
# without (2, 5) and (3, 4).
K33_LESS_ONE = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4)]
K33_LESS_TWO = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (3, 5)]
# K_{3,3} on the parts {0, 1, 5} and {2, 3, 4}, with (0, 1) added.
K33_PLUS_ONE = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)]


@pytest.mark.parametrize(
    "edges, e, rank",
    [
        pytest.param(edges, e, rank, id=f"{name}-{e[0]},{e[1]}")
        for name, edges, es, rank in [
            ("K33", K33, K33, 2),
            ("K33_less_two", K33_LESS_TWO, [(0, 1)], 0),
            ("K33_less_one", K33_LESS_ONE, [(0, 1), (0, 2), (1, 4), (2, 4)], 1),
            ("K33_plus_one", K33_PLUS_ONE, [(2, 5), (3, 5), (4, 5)], 2),
            ("K33_plus_two", K33_PLUS_ONE + [(2, 3)], [(4, 5)], 2),
        ]
        for e in es
    ],
)
def test_full_passes_where_a_balanced_subgraph_without_e_has_more_cycles(edges, e, rank):
    # On these 18 instances, all of the connected 6-node graphs where it
    # happens, a balanced subgraph that drops e has a larger cyclomatic
    # number than any that holds it.  Every cell subgraph holds e, so the
    # balanced circuit rank counts only subgraphs that do.
    report = run_verification(Graph.from_edges(edges), e, level="full")
    assert report.passed()
    check = report.checks["max_corank_equals_balanced_circuit_rank"]
    assert check.detail == f"max corank {rank}, balanced circuit rank {rank}"


def test_k8_full_proves_the_morphism_on_every_cell():
    # 30 of K8's 126 cells have 17 grouped elements, 2^17 subsets each;
    # the certificate proves every cell in one pass over its points.  The
    # other checks are pinned to their values.
    report = run_verification(Graph.from_edges(combinations(range(8), 2)), (0, 1), level="full")
    assert report.checks == {
        "special_edge": (True, "126 cells"),
        "lower_facet_normalization": (True, "h = 0 and gamma agrees on the merged nodes"),
        "facet_correspondence": (True, "126 cells <-> 126 facets"),
        "simpliciality_transfer": (True, ""),
        "cell_invariants": (True, "all cells pass"),
        "volume_additivity": (True, "sum of cells 3432, polytope 3432"),
        "special_graph_classes": (True, "general"),
        "max_corank_equals_balanced_circuit_rank": (
            True,
            "max corank 10, balanced circuit rank 10",
        ),
        "matroid_morphism": (True, ""),
    }


def test_matroid_morphism_names_the_cell_point_and_premise(monkeypatch):
    # Cell 2 of C5 with gamma_1 raised by 5: its point (1, 0) leaves the
    # level -1 hyperplane, and the check names the cell and the point.
    import apx.verify

    real = apx.verify.cells_with_facets

    def shifted(g, e):
        pairs = real(g, e)
        cell, facet = pairs[2]
        pairs[2] = (cell._replace(gamma=(cell.gamma[0] + 5, *cell.gamma[1:])), facet)
        return pairs

    monkeypatch.setattr(apx.verify, "cells_with_facets", shifted)
    report = run_verification(cycle_graph(5), (0, 4), level="full")
    check = report.checks["matroid_morphism"]
    assert not check.passed
    assert check.detail == "cell 2: point (1, 0) off level -1: gamma_1 - gamma_0 = 4"
