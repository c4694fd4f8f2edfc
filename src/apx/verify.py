"""End-to-end verification suite: run every structural statement against
one (graph, contraction edge) instance and report pass/fail evidence."""

from __future__ import annotations

from typing import NamedTuple

from .cellanalysis import CellInvariantReport, analyze_cell, classify_special_graphs
from .errors import ApxError, TheoremViolation
from .graphcore import Graph, balanced_circuit_rank, edge
from .polytope import build_configuration, normalized_volume, normalized_volume_of_cell
from .subdivision import (
    cells_with_facets,
    check_simpliciality_transfer,
    contracted_pair,
    facet_correspondence,
    product_correspondence,
    prove_cover,
    prove_lower_faces,
)


class CheckResult(NamedTuple):
    passed: bool
    detail: str = ""


class VerificationReport(NamedTuple):
    """The result of one run: ``checks`` maps each check's name to its
    result, in the order the checks ran, and ``cell_reports`` holds the
    analyses of the cells whose analysis did not raise, in cell order."""

    graph: Graph
    contraction: tuple[int, int]
    level: str
    checks: dict[str, CheckResult]
    cell_reports: list[CellInvariantReport]

    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "edge": list(self.contraction),
            "level": self.level,
            "passed": self.passed(),
            "checks": {name: c._asdict() for name, c in self.checks.items()},
            "cells": [r.to_json_dict() for r in self.cell_reports],
        }


def run_verification(g: Graph, e, level: str = "full") -> VerificationReport:
    """Check every theorem statement on (g, e); collect all evidence."""
    e = edge(*e)
    checks: dict[str, CheckResult] = {}

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks[name] = CheckResult(passed, detail)

    pairs = cells_with_facets(g, e)
    cells = [cell for cell, _ in pairs]

    lacking = [(i, p) for i, c in enumerate(cells) for p in contracted_pair(e) if p not in c.points]
    detail = "cell {} lacks {} of the contracted pair".format(*lacking[0]) if lacking else ""
    add("special_edge", not lacking, detail or f"{len(cells)} cells")

    config = build_configuration(g)
    try:
        prove_lower_faces(config, e, cells)
        add("lower_facet_normalization", True, "h = 0 and gamma agrees on the merged nodes")
    except TheoremViolation as exc:
        add("lower_facet_normalization", False, str(exc))

    try:
        facet_correspondence(g, e, pairs)
        add("facet_correspondence", True, f"{len(cells)} cells <-> {len(pairs)} facets")
    except TheoremViolation as exc:
        add("facet_correspondence", False, str(exc))
        add("simpliciality_transfer", False, "correspondence unavailable")
    else:
        try:
            check_simpliciality_transfer(pairs)
            add("simpliciality_transfer", True)
        except TheoremViolation as exc:
            add("simpliciality_transfer", False, str(exc))

    # The product bijection is checked only when G splits at e.
    try:
        sides = product_correspondence(g, e, cells)
        if sides is not None:
            f1, f2 = sides
            add(
                "product_correspondence",
                True,
                f"{len(cells)} cells = {len(f1)} x {len(f2)} facet pairs",
            )
    except TheoremViolation as exc:
        add("product_correspondence", False, str(exc))

    # An ApxError inside a cell's analysis, above all a TheoremViolation,
    # is failing evidence for the cell, not a crash.
    reports, volumes, failures = [], [], []
    for i, cell in enumerate(cells):
        rec = cell.record()
        volumes.append(normalized_volume_of_cell(rec.vectors, rec.elimination))
        try:
            r = analyze_cell(g, e, rec, volumes[-1])
        except ApxError as exc:
            failures.append(f"cell {i}: {type(exc).__name__}: {exc}")
            continue
        reports.append(r)
        if not r.passed():
            names = [
                f"properties ({', '.join(r.properties.failed())})" if name == "properties" else name
                for name, ok in sorted(r.checks.items())
                if not ok
            ]
            failures.append(f"cell {i}: " + ", ".join(names))
    missing = len(cells) - len(reports)
    add("cell_invariants", not failures, "; ".join(failures) or "all cells pass")

    polytope_volume = normalized_volume(config)
    try:
        total = prove_cover(cells, volumes, polytope_volume)
        add("volume_additivity", True, f"sum of cells {total}, polytope {polytope_volume}")
    except TheoremViolation as exc:
        add("volume_additivity", False, str(exc))

    # A cell whose analysis failed is failing evidence for the odd-cycle
    # class and the maximum corank.
    special = classify_special_graphs(g, cells, not missing and all(r.circuit for r in reports))
    add("special_graph_classes", special.passed(), special.graph_class)

    if level == "full":
        from .matroid import certify_morphism

        rank = balanced_circuit_rank(g, e)
        value = max((r.corank for r in reports), default=-1)
        detail = f"max corank {value}, balanced circuit rank {rank}"
        if missing:
            detail += f", {missing} of {len(cells)} cells not analysed"
        add("max_corank_equals_balanced_circuit_rank", value == rank and not missing, detail)
        detail = ""
        for i, cell in enumerate(cells):
            try:
                certify_morphism(cell, e)
            except TheoremViolation as exc:
                detail = f"cell {i}: {exc}"
                break
        add("matroid_morphism", not detail, detail)

    return VerificationReport(g, e, level, checks, reports)
