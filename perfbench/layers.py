"""Per-layer metrics from the tracer's spans, and the map from each layer
metric to the end-to-end metric and workload it should move.

A span's self time is its duration minus the durations of its direct
child spans.  A layer is one module of ``src/apx``; its self time is the
sum over its functions.  Time in a function listed in
``tracer.COUNT_ONLY`` stays with its caller.
"""

from __future__ import annotations

import json
from collections import defaultdict

MODULES = ("exactlin", "graphcore", "polytope", "subdivision",
           "cellanalysis", "matroid", "verify", "cli")

# layer -> (metrics, end-to-end metric they should move, workloads).
# The per-command sums (facets_s, subdivide_s, volume_s, verify_fast_s,
# verify_full_s) are printed by run.py above its result line.
LAYER_MAP = {
    "polytope oracle": {
        "metrics": [
            "polytope.normalized_volume_of_cell.self_s",
            "polytope.normalized_volume_of_cell.calls",
            "polytope.cell_volume_calls_per_cell",
            "subdivision.cells",
            "polytope.ddcone.inits",
            "polytope.ddcone.inits_per_oracle_call",
            "polytope.normalized_volume_of_points.calls",
        ],
        "moves": "verify_fast_s and subdivide_s on cells; volume_s on geometry must not worsen",
        "workloads": ["cells", "geometry"],
    },
    "polytope DD": {
        "metrics": [
            "polytope.enumerate_facets.self_s",
            "polytope.regular_subdivision_supports.self_s",
            "polytope.normalized_volume.self_s",
            "polytope.ddcone.rows",
            "polytope.ddcone.peak_rays",
            "polytope.facets",
        ],
        "moves": "facets_s and volume_s on geometry (at most 5 % of cells)",
        "workloads": ["geometry"],
    },
    "exactlin": {
        "metrics": [
            f"exactlin.{fn}.{kind}"
            for fn in ("solve_consistent", "solve_unique", "integer_rank", "rank",
                       "integer_determinant")
            for kind in ("calls", "self_s")
        ],
        "moves": "verify_fast_s on cells",
        "workloads": ["cells"],
    },
    "cellanalysis": {
        "metrics": [
            "cellanalysis.analyze_cell.self_s",
            "cellanalysis.analyze_cell.calls",
            "cellanalysis.max_corank.self_s",
            "cellanalysis.classify_special_graphs.self_s",
        ],
        "moves": "verify_fast_s on cells",
        "workloads": ["cells"],
    },
    "matroid": {
        "metrics": [
            "matroid.verify_morphism.self_s",
            "matroid.verify_morphism.calls",
            "matroid.subsets_checked",
        ],
        "moves": "verify_full_s on full; zero on cells and geometry",
        "workloads": ["full"],
    },
    "graphcore": {
        "metrics": [
            "graphcore.balanced_circuit_rank.self_s",
            "graphcore.contract_edge.calls",
        ],
        "moves": "verify_full_s on full",
        "workloads": ["full"],
    },
    "subdivision": {
        "metrics": [
            "subdivision.edge_contraction_subdivision.self_s",
            "subdivision.facet_correspondence.self_s",
            "subdivision.product_correspondence.self_s",
            "subdivision.verify_cell_support.self_s",
            "polytope.build_configuration.calls",
        ],
        "moves": "verify_fast_s and verify_full_s on cells and full",
        "workloads": ["cells", "full"],
    },
    "verify / cli": {
        "metrics": [
            "verify.run_verification.self_s",
            "cli.load_graph.self_s",
            "cli.emit.self_s",
            "cli.main.self_s",
            "process.startup.self_s",
            "process.import.self_s",
        ],
        "moves": "wall_s on every workload; largest share on the small geometry ops",
        "workloads": ["cells", "geometry", "full"],
    },
    "layer totals": {
        "metrics": [f"{m}.self_s" for m in MODULES],
        "moves": "wall_s of the workloads that run the module",
        "workloads": ["cells", "geometry", "full"],
    },
    "trace": {
        "metrics": ["trace_overhead", "trace.attributed_share"],
        "moves": "nothing: traced wall_s / untraced wall_s, and the share of "
                 "traced op time inside root spans",
        "workloads": ["cells", "geometry", "full"],
    },
}

PER_LAYER = [name for layer in LAYER_MAP.values() for name in layer["metrics"]]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("trace_overhead", "trace.attributed_share") or "_per_" in name:
        return "ratio"
    return "count"


def read_spans(path) -> tuple[list[list], dict[str, int]]:
    """Spans ``[op, id, parent, name, start, end]`` and the counters line."""
    spans, counts = [], {}
    with open(path) as lines:
        for line in lines:
            item = json.loads(line)
            if isinstance(item, dict):
                counts = item["counts"]
            else:
                spans.append(item)
    return spans, counts


def self_times(spans: list[list]) -> dict[str, list]:
    """name -> [self seconds, calls] for the spans of one op."""
    covered: dict[int, float] = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for _, idx, _, name, start, end in spans:
        entry = out[name]
        entry[0] += end - start - covered[idx]
        entry[1] += 1
    return dict(out)


def root_time(spans: list[list]) -> float:
    return sum(end - start for _, _, parent, _, start, end in spans if parent < 0)


class PassTrace:
    """Sums of one traced pass over its ops."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.cells = 0
        self.rooted_s = 0.0
        self.op_wall_s = 0.0

    def add_op(self, spans: list[list], counts: dict[str, int], cells: int, wall: float) -> None:
        for name, (seconds, calls) in self_times(spans).items():
            self.self_s[name] += seconds
            self.calls[name] += calls
        for name, value in counts.items():
            if name == "polytope.ddcone.peak_rays":
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value
        self.cells += cells
        self.rooted_s += root_time(spans)
        self.op_wall_s += wall

    def timings(self) -> dict[str, float]:
        """The per-layer metrics that are times."""
        out = {f"{name}.self_s": s for name, s in self.self_s.items()}
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                s for name, s in self.self_s.items() if name.split(".")[0] == module
            )
        out["trace.attributed_share"] = self.rooted_s / self.op_wall_s if self.op_wall_s else 0.0
        return out

    def tallies(self) -> dict[str, float]:
        """The per-layer metrics that are counts, and their ratios."""
        out: dict[str, float] = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counts)
        out["subdivision.cells"] = self.cells
        cell_calls = out.get("polytope.normalized_volume_of_cell.calls", 0)
        out["polytope.cell_volume_calls_per_cell"] = cell_calls / self.cells if self.cells else 0.0
        oracle_calls = out.get("polytope.normalized_volume_of_points.calls", 0)
        oracle_inits = out.get("polytope.ddcone.oracle_inits", 0)
        out["polytope.ddcone.inits_per_oracle_call"] = (
            oracle_inits / oracle_calls if oracle_calls else 0.0
        )
        return out
