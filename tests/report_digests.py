"""SHA-256 digests of the reports of a fixed sweep of CLI runs.

Each run calls ``apx.cli.main`` in-process on a graph file written to a
temporary directory.  Its digest covers the exit code, stdout, stderr,
and every file the run writes (the ``--json`` report, the ``--dot``
directory).  The sweep is ``facets`` and ``volume`` on each graph below,
and ``subdivide``, ``verify --level fast`` and ``verify --level full`` on
every edge of each, in both orientations, plus inputs the CLI refuses.
``tests/test_report_digests.py`` compares the sweep with the committed
``report_digests.json``; a change that alters a report regenerates it:

    PYTHONPATH=src python3 tests/report_digests.py

and names every changed digest.
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from apx.cli import main

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"

GRAPHS = {
    "C4": [(0, 1), (1, 2), (2, 3), (0, 3)],
    "C5": [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
    "K4": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    "bowtie": [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)],
    "running": [
        (0, 1), (0, 3), (1, 2), (0, 2), (2, 3), (0, 6), (3, 4), (4, 5), (6, 5), (5, 3), (5, 0),
    ],
    "W7": [(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)],
    "tree5": [(0, 1), (0, 2), (1, 3), (1, 4)],
    "K33": [(a, b) for a in range(3) for b in range(3, 6)],
}

# Graph files and --edge arguments the CLI refuses with exit 2.
REFUSED = {
    "disconnected": ("0 1\n2 3\n", "facets", None),
    "loop": ("0 1\n1 1\n", "facets", None),
    "underscore-label": ("0 1\n1_0 2\n", "facets", None),
    "huge-label": ("0 1\n1 1000000000000\n", "facets", None),
    "edge-not-in-graph": ("0 1\n1 2\n2 3\n", "verify", "0,2"),
    "edge-out-of-range": ("0 1\n1 2\n", "subdivide", "0,1000000000000"),
    "edge-malformed": ("0 1\n1 2\n", "verify", "0;1"),
    "edge-underscore-label": ("0 1\n1 2\n", "verify", "0,1_0"),
    "edge-loop": ("0 1\n1 2\n", "subdivide", "1,1"),
}


def sweep():
    """(name, graph text, command, options, extra output) for every run;
    extra output is None, "json" or "dot"."""
    for name, edges in GRAPHS.items():
        text = "".join(f"{u} {v}\n" for u, v in edges)
        yield f"facets {name}", text, "facets", [], None
        yield f"volume {name}", text, "volume", [], None
        for u, v in sorted(edges):
            for a, b in ((u, v), (v, u)):
                argv = ["--edge", f"{a},{b}"]
                yield f"subdivide {name} {a},{b}", text, "subdivide", argv, "dot"
                for level, extra in (("fast", None), ("full", "json")):
                    run = f"verify-{level} {name} {a},{b}"
                    yield run, text, "verify", [*argv, "--level", level], extra
    for name, (text, command, arg) in REFUSED.items():
        argv = [] if arg is None else ["--edge", arg]
        yield f"{command} refused {name}", text, command, argv, None


def digest(text: str, command: str, argv: list[str], extra: str | None) -> str:
    """The digest of one in-process run of ``apx COMMAND FILE ARGV`` on a
    graph file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        graph = root / "graph.txt"
        graph.write_text(text)
        out = root / "out"
        if extra == "json":
            argv = [*argv, "--json", str(out)]
        elif extra == "dot":
            argv = [*argv, "--dot", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([command, str(graph), *argv])
        h = hashlib.sha256()
        for part in (f"exit {code}", stdout.getvalue(), stderr.getvalue()):
            h.update(part.encode() + b"\0")
        files = sorted(out.rglob("*")) if out.is_dir() else [out] if out.exists() else []
        for path in files:
            h.update(f"{path.relative_to(root)}\0".encode() + path.read_bytes() + b"\0")
        return h.hexdigest()


def compute() -> dict[str, str]:
    return {name: digest(*run) for name, *run in sweep()}


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
