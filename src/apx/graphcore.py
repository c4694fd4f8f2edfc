"""Simple undirected graphs: contraction, cycle space, balanced circuit rank.

Nodes are labelled 0..n.  Edges are unordered pairs stored as sorted
tuples.  An edge subset ("subgraph") is any frozenset of such pairs; its
vertex set is the set of endpoints.

What this module says about the cycle space of a subgraph reads one
``forest`` pass over it: a Kruskal spanning forest in the caller's edge
order, the components, and the fundamental cycle of each non-tree edge.
Connectedness, the split at an edge, cyclomatic number (the number of
those cycles) and the plain-cycle test are reads of that pass.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import ApxError

Edge = tuple[int, int]
EdgeSet = frozenset[Edge]


def edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"loop at node {u}")
    return (u, v) if u < v else (v, u)


def parse_labels(texts) -> list[int]:
    """Node labels as a graph file writes them: ASCII digits after an
    optional '-' (int() alone would also read '+1', '1_0', ' 1' and the
    digits of other scripts).  Every label is checked before any is
    converted; raises ValueError, which names int()'s digit limit when a
    label has more digits than it converts."""
    digits = [t.removeprefix("-") for t in texts]
    if not all(d.isascii() and d.isdigit() for d in digits):
        raise ValueError("non-integer label")
    return [int(t) for t in texts]


class Graph(NamedTuple):
    """Simple graph on nodes 0..node_count-1."""

    node_count: int
    edges: EdgeSet

    @classmethod
    def from_edges(cls, pairs) -> "Graph":
        es = frozenset(edge(u, v) for u, v in pairs)
        return cls(max((v for e in es for v in e), default=-1) + 1, es)

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        """One "u v" pair per line; blank lines and '#' comments ignored."""
        pairs = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ApxError(f"line {lineno}: expected 'u v', got {line!r}")
            try:
                u, v = parse_labels(parts)
            except ValueError as exc:
                raise ApxError(f"line {lineno}: {exc}") from exc
            if u < 0 or v < 0:
                raise ApxError(f"line {lineno}: negative node label")
            if u == v:
                raise ApxError(f"line {lineno}: loop at node {u}")
            pairs.append((u, v))
        if not pairs:
            raise ApxError("no edges in input")
        return cls.from_edges(pairs)

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        """JSON object {"edges": [[u, v], ...]}."""
        # Too deep a nesting raises RecursionError, and an integer of too
        # many digits ValueError, of which JSONDecodeError is a subclass.
        try:
            data = json.loads(text)
        except (RecursionError, ValueError) as exc:
            raise ApxError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict) or "edges" not in data:
            raise ApxError('expected an object with an "edges" key')
        try:
            pairs = [(u, v) for u, v in data["edges"]]
        except (TypeError, ValueError) as exc:
            raise ApxError("edges must be pairs of integers") from exc
        # Exact type test: bool is a subclass of int, and int() would also
        # truncate floats and parse strings.
        if any(type(x) is not int for pair in pairs for x in pair):
            raise ApxError("edges must be pairs of integers")
        if not pairs:
            raise ApxError("no edges in input")
        if any(u == v or u < 0 or v < 0 for u, v in pairs):
            raise ApxError("edges must join two distinct nonnegative labels")
        return cls.from_edges(pairs)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(self.node_count)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def is_connected(self) -> bool:
        if self.node_count <= 1:
            return True
        # Too few edges to connect every label.
        if self.node_count > len(self.edges) + 1:
            return False
        components = forest(self.edges).components
        return len(components) == 1 and len(components[0]) == self.node_count

    def to_json_dict(self) -> dict:
        return {"node_count": self.node_count, "edges": [list(e) for e in self.sorted_edges()]}


def vertices_of(edges) -> set[int]:
    return {v for e in edges for v in e}


class Forest(NamedTuple):
    """What one Kruskal pass says about an edge set: a spanning forest,
    the connected components, and the fundamental cycle of each non-tree
    edge, in the order the edges came."""

    tree: EdgeSet
    components: list[set[int]]
    cycles: tuple[EdgeSet, ...]

    @property
    def is_cycle(self) -> bool:
        """The edge set is one plain cycle: connected, with one cycle that
        holds every edge."""
        return (
            len(self.components) == 1
            and len(self.cycles) == 1
            and len(self.cycles[0]) == len(self.tree) + 1
        )


def forest(edges) -> Forest:
    """One Kruskal pass over distinct edges in the order given.  An edge
    joins the forest unless the edges before it already connect its ends,
    so the first edge is always in the forest and the last is in it
    exactly when it is a bridge.  Each tree is then rooted, and a non-tree
    edge's cycle is found by walking its two ends up to where they meet."""
    root: dict[int, int] = {}

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    adj: dict[int, list[int]] = {}
    tree, nontree = [], []
    for u, v in edges:
        a, b = find(root.setdefault(u, u)), find(root.setdefault(v, v))
        if a == b:
            nontree.append((u, v))
            continue
        root[a] = b
        tree.append((u, v))
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    parent: dict[int, int] = {}
    depth: dict[int, int] = {}
    components = []
    for r in adj:
        if r in depth:
            continue
        depth[r] = 0
        component, stack = {r}, [r]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in depth:
                    depth[y], parent[y] = depth[x] + 1, x
                    component.add(y)
                    stack.append(y)
        components.append(component)

    cycles = []
    for u, v in nontree:
        cycle = {(u, v)}
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            cycle.add(edge(u, parent[u]))
            u = parent[u]
        cycles.append(frozenset(cycle))
    return Forest(frozenset(tree), components, tuple(cycles))


def split_at(g: Graph, e: Edge) -> tuple[EdgeSet, EdgeSet] | None:
    """The two sides of G at e, each holding e, when G - {k1, k2} has at
    least two components, a node left with no edge counting as one; None
    otherwise.  The first side is the component of the least node, with
    k1 and k2; the second is every other node, with k1 and k2."""
    e = edge(*e)
    outside = vertices_of(g.edges) - set(e)
    if not outside:
        return None
    least = min(outside)
    rest = forest(f for f in g.edges if e[0] not in f and e[1] not in f)
    first = next((c for c in rest.components if least in c), {least})
    if first == outside:
        return None
    nodes = first | set(e)
    one = frozenset(f for f in g.edges if set(f) <= nodes)
    return one, (g.edges - one) | {e}


def contract_edge(g: Graph, e: Edge) -> tuple[Graph, dict[int, int]]:
    """Contract g along e; returns (G // e, node relabelling map).

    Endpoints merge into min(k1, k2); labels above max(k1, k2) shift down
    so the result is contiguous on 0..n-1.  Parallel edges collapse and
    the loop is dropped (simple-graph contraction).
    """
    e = edge(*e)
    if e not in g.edges:
        raise ApxError(f"{e} not in graph")
    lo, hi = e
    mapping = {}
    for v in range(g.node_count):
        if v == hi:
            mapping[v] = lo
        elif v > hi:
            mapping[v] = v - 1
        else:
            mapping[v] = v
    new_edges = set()
    for u, v in g.edges:
        a, b = mapping[u], mapping[v]
        if a != b:
            new_edges.add(edge(a, b))
    return Graph(g.node_count - 1, frozenset(new_edges)), mapping


def cyclomatic_number(edges) -> int:
    """|E| - |V| + number of components: the number of fundamental cycles."""
    return len(forest(frozenset(edges)).cycles)


def balanced_circuit_rank(g: Graph, e: Edge) -> int:
    """Maximum cyclomatic number over the balanced subgraphs of g that
    contain e: those whose every cycle has an even number of edges other
    than e.  Every cell subgraph of the subdivision at e holds e, so this
    is the rank the maximum cell corank equals (arXiv:1912.02841).

    A subgraph is balanced iff its edge weights (1 off e, 0 on e) form a
    Z2 coboundary, i.e. some 2-coloring of the nodes has every subgraph
    edge bicolored except e, whose endpoints must agree.  The maximal
    balanced subgraph for such a coloring is e and the bicolored edges,
    and cyclomatic number is monotone under adding edges, so scanning the
    2^(n-2) colorings with node 0 at 0 and e's ends alike is exhaustive
    and exact.
    """
    e = edge(*e)
    if e not in g.edges:
        raise ApxError(f"{e} not in graph")
    n = g.node_count
    k1, k2 = e
    free = [v for v in range(1, n) if v != k2]
    edges = g.sorted_edges()
    best = 0
    for bits in range(1 << (n - 2)):
        color = [0] * n
        for i, v in enumerate(free):
            color[v] = bits >> i & 1
        color[k2] = color[k1]
        chosen = [f for f in edges if color[f[0]] != color[f[1]]]
        best = max(best, cyclomatic_number(chosen + [e]))
    return best


def graph_to_dot(g: Graph, contraction_edge: Edge) -> str:
    """DOT rendering; the contraction edge is doubled and highlighted."""
    ce = edge(*contraction_edge)
    lines = ["graph G {"]
    for v in range(g.node_count):
        lines.append(f"  {v};")
    for u, v in g.sorted_edges():
        if (u, v) == ce:
            lines.append(f'  {u} -- {v} [color="red:red", penwidth=2];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def directed_subgraph_to_dot(arcs, contraction_edge: Edge, name: str) -> str:
    """DOT rendering of a directed cell subgraph.

    The contracted edge appears as its two arcs, highlighted to match the
    doubled-edge styling of the undirected exports.
    """
    ce = edge(*contraction_edge)
    lines = [f"digraph {name} {{"]
    for v in sorted({x for a in arcs for x in a}):
        lines.append(f"  {v};")
    for i, j in sorted(arcs):
        if edge(i, j) == ce:
            lines.append(f"  {i} -> {j} [color=red, penwidth=2];")
        else:
            lines.append(f"  {i} -> {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
