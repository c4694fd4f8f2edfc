"""Output checks: every CLI report is compared with answers that do not
come from apx.

Known answers are closed forms from the literature (K_n: 2^n - 2 facets,
volume C(2n-2, n-1), Ardila-Beck-Hosten-Pfeifle-Seashore 2011; C_2k:
C(2k, k) facets, volume k C(2k, k); C_2k+1: volume (2k+1) C(2k, k),
Chen-Davis-Mehta 2018), or values fixed at the commit that introduced
the benchmark for graphs without a closed form.  Facet counts of
contracted graphs come from the combinatorial characterization of facets
by integer potentials (Higashitani-Jochemko-Michalek 2019), and every
facet certificate is re-validated from the points.  Every check is
invariant under relabelling the nodes.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from graphs import Instance, Op

# (facet count, normalized volume); None where the workloads need no value.
KNOWN = {
    "K5": (2**5 - 2, comb(8, 4)),
    "K6": (2**6 - 2, comb(10, 5)),
    "K7": (2**7 - 2, comb(12, 6)),
    "C7": (None, 7 * comb(6, 3)),
    "C12": (comb(12, 6), 6 * comb(12, 6)),
    # No closed form used: values of the commit that added the benchmark.
    "W10": (1598, 8480),
    "petersen": (1410, 7560),
    "prism5": (770, 6020),
    "grid3x4": (374, 22720),
    "running": (None, 328),
    "W7": (None, 414),
}


def contract(edges, e) -> list[tuple[int, int]]:
    """Edges of G//e: merge e's endpoints, drop the loop and parallels."""
    keep, gone = e
    out = set()
    for u, v in edges:
        u, v = (keep if u == gone else u), (keep if v == gone else v)
        if u != v:
            out.add((min(u, v), max(u, v)))
    return sorted(out)


def facet_count_by_potentials(edges) -> int:
    """Facets of the adjacency polytope of a connected graph, counted as
    integer potentials f with f(root) = 0 and |f(u) - f(v)| <= 1 on every
    edge whose tight edges (|f(u) - f(v)| = 1) form a connected spanning
    subgraph."""
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    root = min(adj)
    order, parent = [root], {root: None}
    for v in order:
        for w in sorted(adj[v]):
            if w not in parent:
                parent[w] = v
                order.append(w)
    if len(order) != len(adj):
        raise ValueError("graph is not connected")
    f = {root: 0}
    count = 0

    def spans(tight) -> bool:
        seen, stack = {root}, [root]
        while stack:
            v = stack.pop()
            for w in tight.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(adj)

    def extend(k: int) -> None:
        nonlocal count
        if k == len(order):
            tight: dict[int, list[int]] = {}
            for u, v in edges:
                if abs(f[u] - f[v]) == 1:
                    tight.setdefault(u, []).append(v)
                    tight.setdefault(v, []).append(u)
            count += spans(tight)
            return
        v = order[k]
        base = f[parent[v]]
        for value in (base - 1, base, base + 1):
            if all(abs(value - f[w]) <= 1 for w in adj[v] if w in f):
                f[v] = value
                extend(k + 1)
                del f[v]

    extend(1)
    return count


def _points(inst: Instance) -> list[tuple[int, int]]:
    return sorted({(u, v) for u, v in inst.edges} | {(v, u) for u, v in inst.edges})


def check_facet_certificates(inst: Instance, facets: list[dict]) -> str | None:
    """<x, a> >= -1 on every point x = e_i - e_j (e_0 = 0), with equality
    exactly on the certificate's support; supports must be distinct."""
    points = _points(inst)
    seen = set()
    for k, cert in enumerate(facets):
        a = [Fraction(0)] + [Fraction(s) for s in cert["normal"]]
        if len(a) != inst.node_count:
            return f"facet {k}: normal has {len(a) - 1} coordinates"
        support = frozenset(tuple(p) for p in cert["support"])
        if support in seen:
            return f"facet {k}: repeated support"
        seen.add(support)
        for i, j in points:
            value = a[i] - a[j]
            if value < -1 or (value == -1) != ((i, j) in support):
                return f"facet {k}: point ({i}, {j}) has <x, a> = {value}"
        if not support <= set(points):
            return f"facet {k}: support has a point outside the polytope"
    return None


def check_report(op: Op, inst: Instance, report: dict) -> str | None:
    """Why the report is wrong, or None when every check passes."""
    graph = report.get("graph", {})
    if graph.get("node_count") != inst.node_count or sorted(
        map(tuple, graph.get("edges", []))
    ) != sorted((min(u, v), max(u, v)) for u, v in inst.edges):
        return "report names another graph"
    facets, volume = KNOWN.get(op.graph, (None, None))
    kind = op.kind
    if kind == "facets":
        if report["facet_count"] != facets or len(report["facets"]) != facets:
            return f"facet_count {report['facet_count']}, expected {facets}"
        return check_facet_certificates(inst, report["facets"])
    if kind == "volume":
        if report["normalized_volume"] != str(volume):
            return f"volume {report['normalized_volume']}, expected {volume}"
        return None
    edge = inst.map_edge(op.edge)
    if sorted(report["edge"]) != sorted(edge):
        return f"report edge {report['edge']}, expected {list(edge)}"
    if kind == "subdivide":
        cells = facet_count_by_potentials(contract(inst.edges, edge))
        if report["cell_count"] != cells or len(report["cells"]) != cells:
            return f"cell_count {report['cell_count']}, expected {cells} facets of G//e"
        if report["total_nvol"] != str(volume):
            return f"total_nvol {report['total_nvol']}, expected {volume}"
        if sum(int(c["nvol"]) for c in report["cells"]) != volume:
            return "cell volumes do not sum to total_nvol"
        return None
    level = op.command[-1]
    if report.get("level") != level or report.get("passed") is not True:
        return f"verify level {report.get('level')!r}, passed {report.get('passed')!r}"
    return None
