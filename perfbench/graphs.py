"""Benchmark inputs: the graph families, the three workloads, and the
seeded relabelling that turns them into the files the CLI reads.

Graphs are lists of (u, v) pairs on nodes 0..n-1.  W_k is hub 0 plus the
rim cycle 1..k-1.  A workload op names a graph, an apx command and, for
``subdivide`` and ``verify``, the contraction edge in the unrelabelled
graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

# The seven-node running example: two subgraphs sharing the edge {0, 3}.
RUNNING_EXAMPLE = [
    (0, 1), (0, 3), (1, 2), (0, 2), (2, 3), (0, 6),
    (3, 4), (4, 5), (6, 5), (5, 3), (5, 0),
]


def cycle(k: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % k) for i in range(k)]


def complete(k: int) -> list[tuple[int, int]]:
    return list(combinations(range(k), 2))


def wheel(k: int) -> list[tuple[int, int]]:
    rim = [(1 + u, 1 + v) for u, v in cycle(k - 1)]
    return [(0, i) for i in range(1, k)] + rim


def petersen() -> list[tuple[int, int]]:
    outer = cycle(5)
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + inner + [(i, i + 5) for i in range(5)]


def prism(k: int) -> list[tuple[int, int]]:
    """C_k x K_2."""
    top = cycle(k)
    bottom = [(k + u, k + v) for u, v in top]
    return top + bottom + [(i, i + k) for i in range(k)]


def grid(rows: int, cols: int) -> list[tuple[int, int]]:
    out = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                out.append((v, v + 1))
            if r + 1 < rows:
                out.append((v, v + cols))
    return out


GRAPHS = {
    "running": RUNNING_EXAMPLE,
    "W6": wheel(6),
    "W7": wheel(7),
    "W10": wheel(10),
    "C7": cycle(7),
    "C12": cycle(12),
    "K5": complete(5),
    "K6": complete(6),
    "K7": complete(7),
    "petersen": petersen(),
    "prism5": prism(5),
    "grid3x4": grid(3, 4),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``command`` is the apx subcommand plus the
    options that select its mode; ``edge`` is in unrelabelled labels."""

    graph: str
    command: tuple[str, ...]
    edge: tuple[int, int] | None = None

    @property
    def kind(self) -> str:
        """The command family the per-command timings are summed over."""
        if self.command[0] == "verify":
            return "verify_" + self.command[-1]
        return self.command[0]


def _cells_ops() -> list[Op]:
    ops = []
    for graph, e in (("running", (0, 3)), ("W7", (0, 1)), ("C7", (0, 1))):
        ops.append(Op(graph, ("subdivide",), e))
        ops.append(Op(graph, ("verify", "--level", "fast"), e))
    return ops


def _geometry_ops() -> list[Op]:
    ops = []
    for graph in ("W10", "petersen", "prism5", "grid3x4", "C12", "K7"):
        ops.append(Op(graph, ("facets",)))
        ops.append(Op(graph, ("volume", "--method", "triangulation")))
    return ops


def _full_ops() -> list[Op]:
    return [Op(g, ("verify", "--level", "full"), (0, 1)) for g in ("K6", "W6", "K5")]


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "cells": _cells_ops(),
    "geometry": _geometry_ops(),
    "full": _full_ops(),
}


@dataclass(frozen=True)
class Instance:
    """A graph as the CLI sees it: relabelled edges in file order, the
    relabelling itself, and the text written to the graph file."""

    name: str
    edges: tuple[tuple[int, int], ...]
    relabel: tuple[int, ...]

    @property
    def node_count(self) -> int:
        return len(self.relabel)

    def text(self) -> str:
        return "".join(f"{u} {v}\n" for u, v in self.edges)

    def map_edge(self, e: tuple[int, int]) -> tuple[int, int]:
        return (self.relabel[e[0]], self.relabel[e[1]])


def relabelled(name: str, seed: int) -> Instance:
    """Draw a node relabelling and an edge-line order from (seed, name).

    Each graph gets its own stream, so adding a graph to a workload does
    not change the files of the others.
    """
    edges = GRAPHS[name]
    n = 1 + max(max(e) for e in edges)
    rng = random.Random(f"{seed}:{name}")
    perm = list(range(n))
    rng.shuffle(perm)
    lines = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(lines)
    return Instance(name, tuple(lines), tuple(perm))


def write_instances(workload: str, seed: int, directory: Path) -> dict[str, Path]:
    """Write each graph of the workload once; return name -> file path."""
    paths = {}
    for op in WORKLOADS[workload]:
        if op.graph not in paths:
            path = directory / f"{op.graph}.txt"
            path.write_text(relabelled(op.graph, seed).text())
            paths[op.graph] = path
    return paths
