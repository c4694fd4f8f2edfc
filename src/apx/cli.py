"""Command-line interface.

Commands: ``apx facets FILE``, ``apx subdivide FILE --edge K1,K2``,
``apx volume FILE [--method ...]``, ``apx verify FILE --edge K1,K2``.
Graphs are read from "u v"-per-line text or {"edges": [[u, v], ...]}
JSON.  All output is canonical JSON (sorted keys, exact "p/q" rationals),
byte-identical across runs.  Exit codes: 0 success, 1 verification
failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cellanalysis import subset_corank
from .errors import (
    ApxError,
    CorrespondenceViolation,
    MorphismViolation,
    ParseError,
    TheoremViolation,
)
from .graphcore import Graph, directed_subgraph_to_dot, edge, graph_to_dot
from .polytope import build_configuration, enumerate_facets, normalized_volume
from .subdivision import edge_contraction_subdivision, facet_correspondence
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2


def load_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if path.endswith(".json") or stripped.startswith("{"):
        return Graph.from_json(text)
    return Graph.from_text(text)


def parse_edge(text: str, g: Graph) -> tuple[int, int]:
    try:
        k1, k2 = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"--edge expects 'K1,K2', got {text!r}") from exc
    if not (0 <= k1 < g.node_count and 0 <= k2 < g.node_count) or k1 == k2:
        raise ParseError(f"edge labels {text!r} out of range for {g.node_count} nodes")
    if edge(k1, k2) not in g.edges:
        raise ParseError(f"{{{k1},{k2}}} is not an edge of the graph")
    return (k1, k2)


def emit(payload: dict, json_path: str | None) -> None:
    """Stream the canonical JSON report to ``json_path``, or to stdout."""
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def cmd_facets(args) -> int:
    g = load_graph(args.file)
    facets = enumerate_facets(build_configuration(g))
    payload = {
        "graph": g.to_json_dict(),
        "facet_count": len(facets),
        "facets": [f.to_json_dict() for f in facets],
    }
    emit(payload, args.json)
    return EXIT_OK


def cmd_subdivide(args) -> int:
    g = load_graph(args.file)
    e = parse_edge(args.edge, g)
    cells = edge_contraction_subdivision(g, e)
    correspondence = facet_correspondence(g, e, cells)
    total = 0
    cell_dicts = []
    for cell, image in zip(cells, correspondence.images):
        total += cell.nvol
        entry = cell.to_json_dict()
        entry["corank"] = subset_corank(cell.points, e, cell.dim)
        entry["nvol"] = str(cell.nvol)
        entry["facet_image"] = image.to_json_dict()
        cell_dicts.append(entry)
    payload = {
        "graph": g.to_json_dict(),
        "edge": list(e),
        "cell_count": len(cells),
        "total_nvol": str(total),
        "cells": cell_dicts,
    }
    if args.dot:
        out = Path(args.dot)
        out.mkdir(parents=True, exist_ok=True)
        (out / "graph.dot").write_text(graph_to_dot(g, e))
        width = len(str(len(cells) - 1))
        for i, cell in enumerate(cells):
            name = f"cell_{i:0{width}d}"
            (out / f"{name}.dot").write_text(
                directed_subgraph_to_dot(cell.points, e, name=name)
            )
    emit(payload, args.json)
    return EXIT_OK


def cmd_volume(args) -> int:
    g = load_graph(args.file)
    if args.method == "triangulation":
        value = normalized_volume(build_configuration(g))
    else:
        e = parse_edge(args.edge, g) if args.edge else g.sorted_edges()[0]
        cells = edge_contraction_subdivision(g, e)
        value = sum(c.nvol for c in cells)
    payload = {
        "graph": g.to_json_dict(),
        "method": args.method,
        "normalized_volume": str(value),
    }
    emit(payload, args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = load_graph(args.file)
    e = parse_edge(args.edge, g)
    report = run_verification(g, e, level=args.level)
    emit(report.to_json_dict(), args.json)
    return EXIT_OK if report.passed() else EXIT_VERIFICATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apx",
        description="Exact adjacency polytopes, edge contraction subdivisions, "
        "and their structural invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("facets", help="enumerate facet certificates")
    p.add_argument("file")
    p.add_argument("--json", help="write the report to this path instead of stdout")
    p.set_defaults(func=cmd_facets)

    p = sub.add_parser("subdivide", help="edge contraction subdivision report")
    p.add_argument("file")
    p.add_argument("--edge", required=True, metavar="K1,K2")
    p.add_argument("--json", help="write the report to this path instead of stdout")
    p.add_argument("--dot", help="directory for DOT exports of the cell subgraphs")
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("volume", help="normalized volume of the adjacency polytope")
    p.add_argument("file")
    p.add_argument(
        "--method",
        choices=("subdivision", "triangulation"),
        default="triangulation",
    )
    p.add_argument("--edge", metavar="K1,K2", help="contraction edge for --method subdivision")
    p.add_argument("--json", help="write the report to this path instead of stdout")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("verify", help="run the full theorem suite on one instance")
    p.add_argument("file")
    p.add_argument("--edge", required=True, metavar="K1,K2")
    p.add_argument("--level", choices=("fast", "full"), default="full")
    p.add_argument("--json", help="write the report to this path instead of stdout")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CorrespondenceViolation, MorphismViolation, TheoremViolation, AssertionError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except ApxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
