import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import apx
from conftest import cycle_graph, running_example, random_connected_graph, star_graph

from apx.graphcore import Graph
from apx.verify import run_verification, split_at_contraction


def check_names(report):
    return {c.name for c in report.checks}


def test_c4_full_pass():
    report = run_verification(cycle_graph(4), (0, 3), level="full")
    assert report.passed()
    assert "matroid_morphism" in check_names(report)
    assert len(report.cell_reports) == 6


def test_c5_full_pass():
    report = run_verification(cycle_graph(5), (0, 4), level="full")
    assert report.passed()
    assert all(r.corank == 1 for r in report.cell_reports)


def test_fast_level_subset():
    report = run_verification(cycle_graph(5), (0, 4), level="fast")
    assert report.passed()
    names = check_names(report)
    assert "matroid_morphism" not in names
    assert "max_corank_equals_balanced_circuit_rank" not in names


def test_split_at_contraction_running_example():
    g = running_example()
    split = split_at_contraction(g, (0, 3))
    assert split is not None
    side1, side2 = split
    assert len(side1) + len(side2) == len(g.edges) + 1
    shared = set(side1) & set(side2)
    assert shared == {(0, 3)}


def test_split_at_contraction_cycle_none():
    assert split_at_contraction(cycle_graph(5), (0, 4)) is None


def test_star_tree_report():
    g = star_graph(5)
    report = run_verification(g, (0, 1), level="full")
    assert report.passed()
    special = next(c for c in report.checks if c.name == "special_graph_classes")
    assert special.detail == "tree"


def test_single_edge_graph():
    report = run_verification(Graph.from_edges([(0, 1)]), (0, 1), level="full")
    assert report.passed()


def test_random_corpus_fast():
    rng = random.Random(113)
    for _ in range(6):
        g = random_connected_graph(rng, max_nodes=6, max_edges=9)
        e = rng.choice(g.sorted_edges())
        report = run_verification(g, e, level="fast")
        assert report.passed(), [c.name for c in report.checks if not c.passed]


def test_cell_oracle_runs_once_per_cell(monkeypatch):
    import apx.polytope as polytope

    calls = []
    oracle = polytope.normalized_volume_of_points

    def counting(vectors):
        calls.append(len(vectors))
        return oracle(vectors)

    monkeypatch.setattr(polytope, "normalized_volume_of_points", counting)
    report = run_verification(running_example(), (0, 3), level="fast")
    assert report.passed()
    # One run per cell, shared by the cell analysis and volume additivity,
    # plus one for the whole polytope.
    assert len(calls) == len(report.cell_reports) + 1


def test_report_json_shape():
    report = run_verification(cycle_graph(4), (0, 3), level="full")
    payload = report.to_json_dict()
    assert payload["edge"] == [0, 3]
    assert payload["passed"] is True
    assert set(payload["checks"]) == check_names(report)
    assert len(payload["cells"]) == 6
    for cell in payload["cells"]:
        assert cell["volume_closed_form"] == cell["volume_oracle"] == 2


def test_theorem_checks_survive_python_O():
    # With one side of "corank = cyclomatic number" broken, the failure
    # must still be reported, with the statement, when asserts are off.
    script = textwrap.dedent(
        """
        import json
        import apx.cellanalysis as cellanalysis
        from apx.graphcore import Graph
        from apx.verify import run_verification

        real = cellanalysis.cyclomatic_number
        cellanalysis.cyclomatic_number = lambda edges: real(edges) + 1
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
        report = run_verification(g, (0, 1), level="fast")
        check = next(c for c in report.checks if c.name == "cell_invariants")
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
    import dataclasses

    import apx.cellanalysis as cellanalysis

    real = cellanalysis.verify_cell_properties

    def failing(g, e, cell):
        return dataclasses.replace(real(g, e, cell), spans_all_nodes=False)

    monkeypatch.setattr(cellanalysis, "verify_cell_properties", failing)
    report = run_verification(cycle_graph(4), (0, 3), level="fast")
    check = next(c for c in report.checks if c.name == "cell_invariants")
    assert not check.passed
    assert check.detail == "; ".join(f"cell {i}: properties" for i in range(6))
