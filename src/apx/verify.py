"""End-to-end verification suite: run every structural statement against
one (graph, contraction edge) instance and report pass/fail evidence."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cellanalysis import (
    CellInvariantReport,
    analyze_cell,
    classify_special_graphs,
    max_corank,
)
from .errors import ApxError
from .graphcore import Graph, balanced_circuit_rank, components_of_edges, edge, vertices_of
from .matroid import verify_morphism
from .polytope import build_configuration, normalized_volume
from .subdivision import (
    Cell,
    check_simpliciality_transfer,
    edge_contraction_subdivision,
    facet_correspondence,
    product_correspondence,
    verify_cell_support,
)

MATROID_GROUND_LIMIT = 16


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"passed": self.passed, "detail": self.detail}


@dataclass
class VerificationReport:
    graph: Graph
    contraction: tuple[int, int]
    level: str
    checks: list[CheckResult] = field(default_factory=list)
    cell_reports: list[CellInvariantReport] = field(default_factory=list)

    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "edge": list(self.contraction),
            "level": self.level,
            "passed": self.passed(),
            "checks": {c.name: c.to_json_dict() for c in self.checks},
            "cells": [r.to_json_dict() for r in self.cell_reports],
        }


def split_at_contraction(g: Graph, e) -> tuple[list, list] | None:
    """Decompose the edge set into two sides sharing exactly e, when the
    contracted endpoints form a cut set; None otherwise."""
    e = edge(*e)
    rest = frozenset(f for f in g.edges if not set(f) <= set(e) and not set(f) & set(e))
    outside = vertices_of(g.edges) - set(e)
    comps = components_of_edges(rest)
    covered = set().union(*comps) if comps else set()
    comps = comps + [{v} for v in outside - covered]
    if len(comps) < 2:
        return None
    side1_nodes = set(min(comps, key=min)) | set(e)
    side1, side2 = [e], [e]
    for f in g.edges:
        if f == e:
            continue
        if set(f) <= side1_nodes:
            side1.append(f)
        else:
            side2.append(f)
    return side1, side2


def run_verification(g: Graph, e, level: str = "full") -> VerificationReport:
    """Check every theorem statement on (g, e); collect all evidence."""
    e = edge(*e)
    report = VerificationReport(g, e, level)
    cells = edge_contraction_subdivision(g, e)

    report.add(
        "special_edge",
        all(c.contains_contracted_pair(e) for c in cells),
        f"{len(cells)} cells",
    )

    config = build_configuration(g)
    ok = True
    for cell in cells:
        full_gamma = (Fraction(0),) + tuple(cell.gamma)
        if cell.height != 0 or full_gamma[e[0]] != full_gamma[e[1]]:
            ok = False
            break
        if not verify_cell_support(g, e, cell, config):
            ok = False
            break
    report.add("lower_facet_normalization", ok, "h = 0 and gamma agrees on the merged nodes")

    try:
        corr = facet_correspondence(g, e, cells)
        report.add(
            "facet_correspondence",
            True,
            f"{len(cells)} cells <-> {len(corr.facets)} facets",
        )
        transfer = all(check_simpliciality_transfer(c, corr) for c in cells)
        report.add("simpliciality_transfer", transfer)
    except ApxError as exc:
        report.add("facet_correspondence", False, str(exc))
        report.add("simpliciality_transfer", False, "correspondence unavailable")

    split = split_at_contraction(g, e)
    if split is None:
        # Degenerate decomposition: the second side is the edge itself.
        split = (list(g.edges), [e])
    try:
        pcorr = product_correspondence(g, split[0], split[1], e, cells)
        f1, f2 = pcorr.facets
        report.add(
            "product_correspondence",
            True,
            f"{len(cells)} cells = {len(f1)} x {len(f2)} facet pairs",
        )
    except ApxError as exc:
        report.add("product_correspondence", False, str(exc))

    def analyze(cell: Cell) -> CellInvariantReport | str:
        # An ApxError inside the analysis, above all a TheoremViolation,
        # is failing evidence for the cell, not a crash.
        try:
            return analyze_cell(g, e, cell)
        except ApxError as exc:
            return f"{type(exc).__name__}: {exc}"

    results = [analyze(c) for c in cells]
    report.cell_reports = [r for r in results if isinstance(r, CellInvariantReport)]
    failures = [
        f"cell {i}: {r}"
        if isinstance(r, str)
        else f"cell {i}: " + ", ".join(name for name, ok in sorted(r.checks.items()) if not ok)
        for i, r in enumerate(results)
        if isinstance(r, str) or not r.passed()
    ]
    report.add(
        "cell_invariants",
        not failures,
        "all cells pass" if not failures else "; ".join(failures),
    )

    total = sum(c.nvol for c in cells)
    polytope_volume = normalized_volume(config)
    report.add(
        "volume_additivity",
        total == polytope_volume,
        f"sum of cells {total}, polytope {polytope_volume}",
    )

    special = classify_special_graphs(g, e, cells)
    report.add("special_graph_classes", special.passed(), special.graph_class)

    if level == "full":
        rank = balanced_circuit_rank(g, e)
        value, _ = max_corank(g, e, cells)
        report.add(
            "max_corank_equals_balanced_circuit_rank",
            value == rank,
            f"max corank {value}, balanced circuit rank {rank}",
        )
        ok = True
        detail = ""
        for cell in cells:
            if len(cell.points) - 1 > MATROID_GROUND_LIMIT:
                detail = "skipped cells beyond the exhaustive-enumeration limit"
                continue
            try:
                verify_morphism(cell, e, check_axioms=True)
            except ApxError as exc:
                ok = False
                detail = str(exc)
                break
        report.add("matroid_morphism", ok, detail)

    return report
