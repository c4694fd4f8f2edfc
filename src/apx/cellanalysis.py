"""Cell subgraphs and the combinatorics of cells and their subsets:
structural properties, affine independence/circuits/corank, signatures,
and closed-form cell volumes.

Every statement about a point set takes its ``subdivision.CellRecord``
and the contracted edge: ``Cell.record()`` for a cell, and
``cell_record(labels, dim)`` for any subset of one; the volume statements
also take the cell's volume from the triangulation oracle.  The record holds
the affine rank and integer kernel of the points, and the components and
fundamental cycles of their subgraph.  Corank, dependence, the corank-1
signature and the Radon split come from the kernel; cyclomatic number,
balancedness, the plain-cycle test, the odd basis cycles and the
corank-1 and corank-2 cycles come from the cycles.  Each check compares
that point side with the graph side and never derives one from the
other.  A record is built where a statement needs it and passed down,
not kept for the run.

Every closed form is cross-checked against the exact triangulation
oracle, so these functions double as theorem checkers; a disagreement
raises TheoremViolation (never a bare assert, so ``python -O`` keeps
every check) instead of returning silently.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ApxError, TheoremViolation
from .graphcore import Graph, edge, forest
from .polytope import DirectedEdge
from .subdivision import Cell, CellRecord, check_pairing, contracted_pair, corank

Edge = tuple[int, int]


def is_circuit(rec: CellRecord, e: Edge) -> bool:
    """Minimal affine dependence; agrees with G_X being a plain cycle
    (the contracted pair counting as one undirected edge)."""
    # Dropping point i leaves an independent set iff every dependence is
    # nonzero at i.  With corank >= 2 some combination of two dependences
    # vanishes at i, so a circuit has corank 1 and one dependence with no
    # zero coefficient.
    check_pairing(rec.labels, e)
    minimal = len(rec.kernel) == 1 and all(rec.kernel[0])
    graph_side = rec.forest.is_cycle
    if minimal != graph_side:
        raise TheoremViolation(f"circuit test {minimal} != cycle test {graph_side}")
    return minimal


class Signature(NamedTuple):
    positive: int
    negative: int
    zero: int


def corank1_signature(rec: CellRecord, e: Edge) -> Signature:
    """Sign census of the affine dependence of a corank-1 subset,
    canonicalized so positive >= negative; must match the closed form
    (ceil(m/2), ceil(m/2), |X| - 2 ceil(m/2)) with m the circumference."""
    value = corank(rec, e)
    if value != 1:
        raise ApxError(f"corank {value} != 1")
    # The corank check has matched one dependence with one cycle.
    (lam,) = rec.kernel
    (cycle,) = rec.forest.cycles
    pos = sum(1 for x in lam if x > 0)
    neg = sum(1 for x in lam if x < 0)
    zero = len(lam) - pos - neg
    if pos < neg:
        pos, neg = neg, pos
    half = -(-len(cycle) // 2)
    expected = (half, half, len(rec.labels) - 2 * half)
    if (pos, neg, zero) != expected:
        raise TheoremViolation(f"signature {(pos, neg, zero)} != {expected}")
    return Signature(pos, neg, zero)


def separates_contracted_pair(rec: CellRecord, e: Edge) -> bool:
    """For a corank-1 circuit through the contracted pair, the two points
    carry dependence coefficients of opposite signs (Radon split).  False
    for a subset without the pair or without a dependence."""
    if not check_pairing(rec.labels, e) or not rec.kernel:
        return False
    lam = rec.kernel[0]
    p, q = contracted_pair(e)
    return lam[rec.labels.index(p)] * lam[rec.labels.index(q)] < 0


# ---------------------------------------------------------------------------
# The five structural properties of a cell's subgraphs.
# ---------------------------------------------------------------------------


class CellPropertiesReport(NamedTuple):
    only_directed_cycle_is_pair: bool
    spans_all_nodes: bool
    closed_under_swap: bool
    undirected_balanced: bool
    basis_odd_cycles: int

    @property
    def at_most_one_odd(self) -> bool:
        return self.basis_odd_cycles <= 1

    def all_pass(self) -> bool:
        return (
            self.only_directed_cycle_is_pair
            and self.spans_all_nodes
            and self.closed_under_swap
            and self.undirected_balanced
            and self.at_most_one_odd
        )

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "at_most_one_odd": self.at_most_one_odd}


def _is_acyclic(arcs: list[DirectedEdge]) -> bool:
    """Kahn's algorithm: a digraph is acyclic iff taking away nodes of
    in-degree zero, and their arcs, takes away every arc."""
    out: dict[int, list[int]] = {}
    indegree: dict[int, int] = {}
    for i, j in arcs:
        out.setdefault(i, []).append(j)
        indegree[j] = indegree.get(j, 0) + 1
    ready = [v for v in out if v not in indegree]
    taken = 0
    while ready:
        for w in out.get(ready.pop(), ()):
            taken += 1
            indegree[w] -= 1
            if not indegree[w]:
                ready.append(w)
    return taken == len(arcs)


def verify_cell_properties(g: Graph, e: Edge, rec: CellRecord) -> CellPropertiesReport:
    """Check the five structural properties of a cell's subgraphs, read
    off the cell's record."""
    k1, k2 = e
    arcs = rec.arcs
    p, q = contracted_pair(e)

    # With k2 renamed k1, the other arcs have a directed cycle exactly
    # when they had one before or had a path between k1 and k2.
    merged = [(k1 if i == k2 else i, k1 if j == k2 else j) for i, j in arcs - {p, q}]
    only_cycle = p in arcs and q in arcs and _is_acyclic(merged)

    spans = rec.vertices == set(range(g.node_count))

    def swap(v: int) -> int:
        return k2 if v == k1 else k1 if v == k2 else v

    closed = True
    for i, j in arcs:
        si, sj = swap(i), swap(j)
        if si == sj:
            continue
        if edge(si, sj) in g.edges and (si, sj) not in arcs:
            closed = False
            break

    # Balancedness is Z2-linear on the cycle space, so the fundamental
    # cycles of any spanning forest decide it.  The record's forest avoids
    # the contracted edge unless it is a bridge of G_C.
    cycles = rec.forest.cycles
    balanced = all(len(c - {edge(*e)}) % 2 == 0 for c in cycles)
    odd = sum(len(c) % 2 for c in cycles)

    return CellPropertiesReport(only_cycle, spans, closed, balanced, odd)


# ---------------------------------------------------------------------------
# Closed-form cell volumes.
# ---------------------------------------------------------------------------


def corank2_cycle_pair(cycles, e: Edge) -> tuple[frozenset[Edge], frozenset[Edge]]:
    """Basis pair of plain cycles for a corank-2 cell subgraph, given its
    two fundamental ``cycles``: the second cycle even and avoiding the
    contracted edge; lexicographically least such pair.  Any two distinct
    cycles of a cyclomatic-number-2 graph are a basis of its cycle space."""
    e = edge(*e)
    c1, c2 = cycles
    # The third element of the cycle space is a plain cycle exactly when
    # the two share an edge: their union is then a theta graph.
    plain = [c1, c2, c1 ^ c2] if c1 & c2 else [c1, c2]
    candidates = []
    for o2 in plain:
        if len(o2) % 2 != 0 or e in o2:
            continue
        for o1 in plain:
            if o1 != o2:
                candidates.append((tuple(sorted(o1)), tuple(sorted(o2))))
    if not candidates:
        raise TheoremViolation("no basis pair with an even cycle avoiding the edge")
    o1, o2 = min(candidates)
    return frozenset(o1), frozenset(o2)


def _cycle_vertex_order(cycle_edges) -> list[int]:
    adj: dict[int, list[int]] = {}
    for u, v in cycle_edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = min(adj)
    order = [start, min(adj[start])]
    while len(order) < len(adj):
        prev, cur = order[-2], order[-1]
        order.append(next(w for w in adj[cur] if w != prev))
    return order


def _arc_signs_along(cycle_edges, arcs) -> dict[Edge, int]:
    """Sign of each cycle edge's arc relative to one traversal: +1 when
    the arc of the directed cell subgraph points along the traversal."""
    order = _cycle_vertex_order(cycle_edges)
    signs = {}
    m = len(order)
    for i in range(m):
        u, v = order[i], order[(i + 1) % m]
        if (u, v) in arcs:
            signs[edge(u, v)] = 1
        else:
            if (v, u) not in arcs:
                raise TheoremViolation(f"cycle edge {(u, v)} missing from the cell")
            signs[edge(u, v)] = -1
    return signs


def corank2_gamma_delta(arcs, o1, o2) -> tuple[int, int]:
    """Orientation census of the shared edges of the two basis cycles.

    gamma counts the shared edges oriented along the even cycle like its
    least edge outside the other cycle; delta the rest.  Another edge
    outside would swap gamma and delta or leave them, so the product used
    by the volume formula does not depend on the choice.
    """
    o1, o2 = frozenset(o1), frozenset(o2)
    shared = o1 & o2
    if not shared:
        return 0, 0
    signs = _arc_signs_along(o2, arcs)
    ref_sign = signs[min(o2 - o1)]
    gamma = sum(1 for f in sorted(shared) if signs[f] == ref_sign)
    return gamma, len(shared) - gamma


def closed_form_volume(rec: CellRecord, e: Edge, oracle: int) -> int | None:
    """Closed-form normalized volume of a cell of corank 0, 1 or 2, from
    its record ``rec``; always cross-checked against ``oracle``, the
    cell's volume from the triangulation oracle.  None above corank 2: no
    closed form."""
    value = corank(rec, e)
    if value == 0:
        result = 2
    elif value == 1:
        result = len(rec.forest.cycles[0])
    elif value == 2:
        o1, o2 = corank2_cycle_pair(rec.forest.cycles, e)
        gamma, delta = corank2_gamma_delta(rec.arcs, o1, o2)
        m1, m2 = len(o1), len(o2)
        twice = m1 * m2 - 4 * gamma * delta
        if twice % 2 or twice <= 0:
            raise TheoremViolation(f"corank-2 closed form {twice}/2 is not a positive integer")
        result = twice // 2
    else:
        return None
    if result != oracle:
        raise TheoremViolation(f"closed form {result} != oracle {oracle}")
    return result


class CellInvariantReport(NamedTuple):
    """Everything the theorems say about one cell, with pass/fail flags.
    The report's cyclomatic number is the corank, which ``corank`` has
    proved equal to it."""

    corank: int
    simplicial: bool
    circuit: bool
    properties: CellPropertiesReport
    volume_closed_form: int | None
    volume_oracle: int
    checks: dict

    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            **self._asdict(),
            "cyclomatic": self.corank,
            "properties": self.properties.to_json_dict(),
        }


def analyze_cell(g: Graph, e: Edge, rec: CellRecord, volume: int) -> CellInvariantReport:
    """Evaluate every per-cell statement on a cell's record ``rec`` and
    its ``volume`` from the triangulation oracle: the five subgraph
    properties, corank = cyclomatic number, simplicial iff spanning tree,
    circuit iff plain cycle, signatures of corank-1 cells, and volume
    closed forms against the oracle.  A zero volume, a cell that does not
    span, raises TheoremViolation naming its affine dimension."""
    n = g.node_count - 1
    properties = verify_cell_properties(g, e, rec)
    k = corank(rec, e)
    simplicial = len(rec.labels) == n + 1
    spanning_tree = (
        rec.cyclomatic == 0
        and rec.vertices == set(range(g.node_count))
        and len(rec.forest.components) == 1
    )
    circuit = is_circuit(rec, e)
    if not volume:
        raise TheoremViolation(f"not full-dimensional: affine dimension {rec.rank - 1} < {n}")
    closed = closed_form_volume(rec, e, volume)
    # Each True is a statement that a call here proves or raises
    # TheoremViolation: corank (corank = cyclomatic number; the kernel's
    # size is the corank, so dependent iff cyclic), is_circuit,
    # closed_form_volume and corank1_signature.
    checks = {
        "properties": properties.all_pass(),
        "corank_equals_cyclomatic": True,
        "simplicial_iff_spanning_tree": simplicial == spanning_tree,
        "circuit_iff_plain_cycle": True,
        "dependent_iff_cyclic": True,
        "volume_closed_form": True,
    }
    if k == 1:
        corank1_signature(rec, e)
        checks["signature_closed_form"] = True
        if circuit:
            checks["radon_split"] = separates_contracted_pair(rec, e)
    return CellInvariantReport(k, simplicial, circuit, properties, closed, volume, checks)


# ---------------------------------------------------------------------------
# Special graph families.
# ---------------------------------------------------------------------------


class SpecialGraphReport(NamedTuple):
    graph_class: str
    all_simplicial: bool | None = None
    all_circuits: bool | None = None

    def passed(self) -> bool:
        return all(v is not False for v in (self.all_simplicial, self.all_circuits))

    def to_json_dict(self) -> dict:
        return {k: v for k, v in self._asdict().items() if v is not None}


def classify_special_graphs(g: Graph, cells: list[Cell], all_circuits: bool) -> SpecialGraphReport:
    """Check the tree / even cycle / odd cycle statements when they apply:
    trees and even cycles give only simplicial cells (a triangulation),
    odd cycles give only circuits.  ``all_circuits`` says whether every
    cell's analysis found it a circuit; a failed analysis counts as no
    circuit."""
    whole = forest(g.edges)
    if not whole.cycles:
        kind = "tree"
    elif whole.is_cycle and whole.components[0] == set(range(g.node_count)):
        kind = "even_cycle" if len(g.edges) % 2 == 0 else "odd_cycle"
    else:
        return SpecialGraphReport("general")
    if kind in ("tree", "even_cycle"):
        return SpecialGraphReport(kind, all_simplicial=all(c.is_simplicial() for c in cells))
    return SpecialGraphReport(kind, all_circuits=all_circuits)
