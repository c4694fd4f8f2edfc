"""The morphism from a cell's grouped point matroid to the graphic matroid
of its cell subgraph, proved from the cell's representation.

The point matroid lives on the grouped ground set: each point other than
the contracted pair is a singleton element, and the pair's two points
(d and -d, with d = e_k1 - e_k2 and e_0 = 0) form one element.  A grouped
subset is independent when the union of its points is affinely
independent, that is when their homogenized vectors (x, 1) are linearly
independent.  The graphic matroid lives on the edges of the undirected
cell subgraph G_X; an edge set is independent when it is acyclic.  Each
grouped element maps to the edge of its points.

The lemma.  Suppose that both points of the pair are in the cell, that
every other point x = e_i - e_j has gamma_i - gamma_j = -1 (gamma_0 = 0),
and that those points map to distinct edges, none of them the contracted
edge e.
- For such an x, <x, gamma> = -1, so (x, 1) = (x, -<x, gamma>): the image
  of x under the injective linear map x -> (x, -<x, gamma>).  A grouped
  subset without the pair is independent iff its vectors x are linearly
  independent.
- span{(d, 1), (-d, 1)} = span{(d, 0), (0, 1)}, and (x, 1) = (x, 0) +
  (0, 1).  A grouped subset with the pair is independent iff its vectors
  x and d are linearly independent.
- Those vectors are the signed columns of the incidence matrix of G_X
  with node 0's row deleted, one column per edge, each edge once.  Their
  column matroid is the graphic matroid (Oxley, *Matroid Theory*, 2nd ed.
  2011, section 5.1).

So grouped subsets map to edge sets with independence preserved both
ways: bases go to spanning forests, circuits to plain cycles, and rank to
rank.  The certificate checks the premises in one pass over the points.
The exhaustive tables over all 2^n grouped subsets are the tests' second
derivation (``tests/matroid_tables.py``).
"""

from __future__ import annotations

from .errors import TheoremViolation
from .graphcore import Edge, edge
from .subdivision import Cell

GroundElement = tuple  # tuple of point labels (size 1, or 2 for the pair)


def grouped_ground_set(cell: Cell, e) -> tuple[GroundElement, ...]:
    k1, k2 = e
    pair = tuple(sorted([(k1, k2), (k2, k1)]))
    singles = [(lab,) for lab in cell.points if lab not in pair]
    return tuple(sorted(singles) + [pair])


def certify_morphism(cell: Cell, e) -> tuple[Edge, ...]:
    """The edge of each grouped element, in ground-set order, once the
    lemma's premises hold on the cell; raise TheoremViolation naming the
    point and the premise otherwise.  No single maps to e: the singles
    are the points other than the pair's two arcs."""
    k1, k2 = e
    if not cell.contains_contracted_pair(e):
        raise TheoremViolation(f"contracted pair {(k1, k2)}, {(k2, k1)} not both in the cell")
    gamma = (0, *cell.gamma)
    owner: dict[Edge, tuple] = {}
    for (i, j), in grouped_ground_set(cell, e)[:-1]:
        if gamma[i] - gamma[j] != -1:
            raise TheoremViolation(
                f"point {(i, j)} off level -1: gamma_{i} - gamma_{j} = {gamma[i] - gamma[j]}"
            )
        f = edge(i, j)
        if f in owner:
            raise TheoremViolation(f"points {owner[f]} and {(i, j)} map to edge {f}")
        owner[f] = (i, j)
    return (*owner, edge(k1, k2))
