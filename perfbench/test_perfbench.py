"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

import checks
import graphs
import layers
import run

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def runner(tmp_path):
    """Runner factory; every runner's launcher process is stopped after the test."""
    made = []

    def make(workload: str, seed: int = 7) -> run.Runner:
        made.append(run.Runner(ROOT, tmp_path, workload, seed, time.monotonic() + 120))
        return made[-1]

    yield make
    for r in made:
        r.launcher.close()


def op_named(workload: str, graph: str, kind: str) -> graphs.Op:
    return next(op for op in graphs.WORKLOADS[workload] if op.graph == graph and op.kind == kind)


@pytest.mark.parametrize("workload", sorted(graphs.WORKLOADS))
def test_same_seed_gives_identical_files(tmp_path, workload):
    for sub in "abc":
        (tmp_path / sub).mkdir()
    a = graphs.write_instances(workload, 11, tmp_path / "a")
    b = graphs.write_instances(workload, 11, tmp_path / "b")
    c = graphs.write_instances(workload, 12, tmp_path / "c")
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].read_bytes() == b[name].read_bytes()
    assert any(a[name].read_bytes() != c[name].read_bytes() for name in a)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_other_seeds_give_the_same_invariants(seed):
    for workload, ops in graphs.WORKLOADS.items():
        for op in ops:
            inst = graphs.relabelled(op.graph, seed)
            base = graphs.relabelled(op.graph, 0)
            degrees = sorted(sum(v in e for e in inst.edges) for v in range(inst.node_count))
            assert degrees == sorted(sum(v in e for e in base.edges) for v in range(base.node_count))
            if op.edge is not None:
                count = checks.facet_count_by_potentials(
                    checks.contract(inst.edges, inst.map_edge(op.edge)))
                assert count == checks.facet_count_by_potentials(
                    checks.contract(base.edges, base.map_edge(op.edge)))
            if op.graph in ("K5", "K6", "K7"):
                assert checks.facet_count_by_potentials(inst.edges) == checks.KNOWN[op.graph][0]


@pytest.mark.parametrize("name", ["W10", "petersen", "prism5", "grid3x4", "C12"])
def test_fixed_facet_counts_match_the_potential_characterization(name):
    inst = graphs.relabelled(name, 3)
    assert checks.facet_count_by_potentials(inst.edges) == checks.KNOWN[name][0]


def test_checks_reject_wrong_reports(tmp_path, runner):
    r = runner("geometry")
    op = op_named("geometry", "K7", "facets")
    report_path = tmp_path / "facets.json"
    wall, code, _ = r.spawn(r.op_argv(op, report_path, None), 60)
    assert code == 0
    report = json.loads(report_path.read_text())
    inst = r.instances["K7"]
    assert checks.check_report(op, inst, report) is None
    bad = json.loads(report_path.read_text())
    bad["facets"][5]["normal"][0] = "7"
    assert "facet 5" in checks.check_report(op, inst, bad)
    bad = json.loads(report_path.read_text())
    bad["facets"][3]["support"].pop()
    assert "facet 3" in checks.check_report(op, inst, bad)
    volume = op_named("geometry", "K7", "volume")
    assert "expected 924" in checks.check_report(
        volume, inst, {"graph": report["graph"], "normalized_volume": "923"})


def test_traced_report_is_byte_identical_and_self_times_fit_in_wall(tmp_path, runner):
    r = runner("cells")
    for op in graphs.WORKLOADS["cells"]:
        if op.graph != "C7":
            continue
        plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
        spans = tmp_path / "spans.jsonl"
        _, code, _ = r.spawn(r.op_argv(op, plain, None), 60)
        assert code == 0
        wall, code, _ = r.spawn(r.op_argv(op, traced, spans), 60)
        assert code == 0
        assert plain.read_bytes() == traced.read_bytes()
        rows, counts = layers.read_spans(spans)
        selfs = layers.self_times(rows)
        assert all(s >= -1e-9 for s, _ in selfs.values())
        assert sum(s for s, _ in selfs.values()) <= wall
        assert "cli.main" in selfs and counts["polytope.normalized_volume_of_points.calls"] > 0


def test_hung_child_is_killed_at_the_deadline(runner):
    r = runner("full")
    start = time.monotonic()
    wall, code, _ = r.spawn([sys.executable, "-c", "import time; time.sleep(60)"], 0.5)
    assert code is None
    assert wall < 10 and time.monotonic() - start < 10


def test_child_rss_excludes_the_benchmark_process(runner):
    r = runner("full")
    ballast = bytearray(200 * 2**20)
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])
    _, code, rss_kb = r.spawn([sys.executable, "-c", "pass"], 30)
    assert code == 0 and rss_kb < 100 * 1024


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == layers.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(graphs.WORKLOADS)
    for m in spec["per_layer"]:
        assert m["unit"] == layers.unit_of(m["name"])
