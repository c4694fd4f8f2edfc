"""Command-line interface.

Commands: ``apx facets FILE``, ``apx subdivide FILE --edge K1,K2``,
``apx volume FILE [--method triangulation]``, ``apx verify FILE --edge K1,K2``.
Graphs are read from "u v"-per-line text or {"edges": [[u, v], ...]}
JSON, as UTF-8 with or without a byte-order mark.  All output is
canonical JSON (sorted keys; normals, levels and volumes as exact
integers written as decimal strings), byte-identical across runs,
written by ``emit``.  Exit codes:
0 success, 1 verification failure, 2 input error or output that cannot be
written (an unwritable path, or a reader of stdout that has gone).

Each command imports only the layers it runs: ``facets`` and ``volume``
neither subdivision nor verification, ``subdivide`` neither cell analysis
nor matroids, and ``verify --level fast`` no matroids.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import ApxError, TheoremViolation
from .graphcore import Graph, directed_subgraph_to_dot, edge, graph_to_dot, parse_labels
from .polytope import build_configuration, enumerate_facets, normalized_volume

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2


def load_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ApxError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ApxError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from exc
    stripped = text.lstrip()
    if path.endswith(".json") or stripped.startswith("{"):
        return Graph.from_json(text)
    return Graph.from_text(text)


def parse_edge(text: str, g: Graph) -> tuple[int, int]:
    try:
        k1, k2 = parse_labels(text.split(","))
    except ValueError as exc:
        raise ApxError(f"--edge expects 'K1,K2', got {text!r}") from exc
    if k1 == k2:
        raise ApxError(f"edge {text!r} is a loop at node {k1}")
    if not (0 <= k1 < g.node_count and 0 <= k2 < g.node_count):
        raise ApxError(f"edge labels {text!r} out of range for {g.node_count} nodes")
    e = edge(k1, k2)
    if e not in g.edges:
        raise ApxError(f"{{{k1},{k2}}} is not an edge of the graph")
    return e


def _is_leaf(value: tuple) -> bool:
    """Whether every item of a tuple is exactly an int or a str: only
    those tuples share memoised text, since ``True == 1``."""
    for v in value:
        if type(v) is not int and type(v) is not str:
            return False
    return True


def _encode(value, newline: str, memo: dict) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes
    it when ``newline`` is a newline plus its indentation; the types are
    tested in the order ``json`` tests them.  Reports hold no floats, so
    a float is refused like any other type.

    ``memo`` maps an indentation to {leaf tuple: text}, for the leaf
    tuples met as items of a list or tuple at that indentation (one dict
    per indentation hashes faster than (tuple, indentation) keys)."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        texts = memo.get(inner)
        if texts is None:
            texts = memo[inner] = {}
        items = []
        for v in value:
            # Strings and ints, most of every report, skip the call; what
            # the call would return for them is the same.
            if type(v) is str:
                items.append(encode_basestring_ascii(v))
            elif type(v) is int:
                items.append(int.__repr__(v))
            elif type(v) is tuple and _is_leaf(v):
                text = texts.get(v)
                if text is None:
                    text = texts[v] = _encode(v, inner, memo)
                items.append(text)
            else:
                items.append(_encode(v, inner, memo))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [
            encode_basestring_ascii(k) + ": " + _encode(v, inner, memo)
            for k, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_canonical(payload: dict, fh) -> None:
    """Write the bytes of ``json.dump(payload, fh, indent=2,
    sort_keys=True)`` and a newline.  Each item of a top-level list is
    encoded and written on its own, so the report is never held as one
    string; the text of leaf tuples is memoised for the one write."""
    if not payload:
        fh.write("{}\n")
        return
    memo: dict = {}
    head = "{"
    for key, value in sorted(payload.items()):
        fh.write(head + "\n  " + encode_basestring_ascii(key) + ": ")
        head = ","
        if isinstance(value, (list, tuple)) and value:
            sep = "["
            for item in value:
                fh.write(sep + "\n    " + _encode(item, "\n    ", memo))
                sep = ","
            fh.write("\n  ]")
        else:
            fh.write(_encode(value, "\n  ", memo))
    fh.write("\n}\n")


def emit(payload: dict, json_path: str | None) -> None:
    """Write the canonical JSON report to ``json_path``, or to stdout."""
    if json_path:
        try:
            with open(json_path, "w") as fh:
                _write_canonical(payload, fh)
        except OSError as exc:
            raise ApxError(f"cannot write {json_path}: {exc}") from exc
    else:
        _write_canonical(payload, sys.stdout)


def cmd_facets(args) -> int:
    g = load_graph(args.file)
    facets = enumerate_facets(g)
    payload = {
        "graph": g.to_json_dict(),
        "facet_count": len(facets),
        "facets": [f.to_json_dict() for f in facets],
    }
    emit(payload, args.json)
    return EXIT_OK


def cmd_subdivide(args) -> int:
    """The cells built from the facets of G // e, proved to subdivide P by
    ``prove_lower_faces`` and ``prove_cover``; a failed proof raises
    TheoremViolation."""
    from .polytope import normalized_volume_of_cell
    from .subdivision import cells_with_facets, corank, prove_cover, prove_lower_faces

    g = load_graph(args.file)
    e = parse_edge(args.edge, g)
    config = build_configuration(g)
    cells, facets = zip(*cells_with_facets(g, e))
    # P's placing state is freed before the cells' records are built.
    volume = normalized_volume(config)
    prove_lower_faces(config, e, cells)
    # Each cell's one record gives its volume and its corank.
    volumes, coranks = [], []
    for cell in cells:
        rec = cell.record()
        volumes.append(normalized_volume_of_cell(rec.vectors, rec.elimination))
        coranks.append(corank(rec, e))
    total = prove_cover(cells, volumes, volume)
    cell_dicts = [
        dict(cell.to_json_dict(), corank=k, nvol=str(v), facet_image=facet.to_json_dict())
        for cell, facet, k, v in zip(cells, facets, coranks, volumes)
    ]
    payload = {
        "graph": g.to_json_dict(),
        "edge": list(e),
        "cell_count": len(cells),
        "total_nvol": str(total),
        "cells": cell_dicts,
    }
    if args.dot:
        out = Path(args.dot)
        width = len(str(len(cells) - 1))
        try:
            out.mkdir(parents=True, exist_ok=True)
            (out / "graph.dot").write_text(graph_to_dot(g, e))
            for i, cell in enumerate(cells):
                name = f"cell_{i:0{width}d}"
                (out / f"{name}.dot").write_text(
                    directed_subgraph_to_dot(cell.points, e, name=name)
                )
        except OSError as exc:
            raise ApxError(f"cannot write {args.dot}: {exc}") from exc
    emit(payload, args.json)
    return EXIT_OK


def cmd_volume(args) -> int:
    g = load_graph(args.file)
    payload = {
        "graph": g.to_json_dict(),
        "method": args.method,
        "normalized_volume": str(normalized_volume(build_configuration(g))),
    }
    emit(payload, args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_verification

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
    p.add_argument("--method", choices=("triangulation",), default="triangulation")
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # The reader of stdout is gone (``apx facets G | head``).  What is
        # still buffered goes to devnull, so the flush at exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except TheoremViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except ApxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
