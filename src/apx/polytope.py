"""Point configurations of adjacency polytopes, facet enumeration, and an
exact normalized-volume oracle.

Geometry is done on integer vectors throughout.  Facets and regular
subdivisions are read off the extreme rays of polyhedral cones computed
with the double description method (exact, incremental); volumes come
from a placing triangulation that places an affine basis first and the
remaining points in label order, summing integer determinants.  The two
pipelines share no logic beyond the cone engine, and tests re-derive
facets with an independent brute-force hyperplane search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import exactlin
from .errors import DisconnectedGraph, NotFullDimensional
from .exactlin import Vector, integer_determinant
from .graphcore import Graph

DirectedEdge = tuple[int, int]
IntVector = tuple[int, ...]


def phi(label: DirectedEdge, dim: int) -> IntVector:
    """Point of the directed edge (i, j): e_i - e_j with e_0 = 0."""
    i, j = label
    v = [0] * dim
    if i > 0:
        v[i - 1] += 1
    if j > 0:
        v[j - 1] -= 1
    return tuple(v)


@dataclass(frozen=True)
class PointConfiguration:
    """Labeled points of an adjacency polytope, one per directed edge."""

    dim: int
    labels: tuple[DirectedEdge, ...]
    vectors: tuple[IntVector, ...]

    def vector_of(self, label: DirectedEdge) -> IntVector:
        return phi(label, self.dim)

    def index_of(self, label: DirectedEdge) -> int:
        return self.labels.index(label)


def build_configuration(g: Graph) -> PointConfiguration:
    """All points +-(e_i - e_j) over the edges of a connected graph.

    The one-node graph yields the empty configuration in R^0 (whose only
    facet is the empty set by convention).
    """
    if not g.is_connected():
        raise DisconnectedGraph("adjacency polytopes need a connected graph")
    n = g.node_count - 1
    labels = sorted({(i, j) for i, j in g.edges} | {(j, i) for i, j in g.edges})
    return PointConfiguration(n, tuple(labels), tuple(phi(lab, n) for lab in labels))


@dataclass(frozen=True)
class FacetCertificate:
    """A facet as (inner normal, support), normalized so that every
    supported point x satisfies <x, normal> = -1 and all points satisfy
    <x, normal> >= -1 (valid because 0 is interior)."""

    normal: Vector
    support: tuple[DirectedEdge, ...]

    def to_json_dict(self) -> dict:
        return {
            "normal": [exactlin.format_scalar(a) for a in self.normal],
            "support": [list(lab) for lab in self.support],
        }


# ---------------------------------------------------------------------------
# Double description: extreme rays of {z : <row_i, z> >= 0} over the integers.
# ---------------------------------------------------------------------------


def _reduce_ray(v: list[int]) -> IntVector:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g > 1:
        v = [x // g for x in v]
    return tuple(v)


def _idot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _greedy_basis(rows, size: int) -> list[int]:
    """Indices of the first rows, in order, that each raise the rank of
    the rows chosen so far; stops once ``size`` rows are chosen."""
    chosen: list[list[int]] = []
    basis: list[int] = []
    for i, row in enumerate(rows):
        if exactlin.integer_rank(chosen + [list(row)]) == len(chosen) + 1:
            basis.append(i)
            chosen.append(list(row))
            if len(basis) == size:
                break
    return basis


class DDCone:
    """Incremental double description for a pointed cone.

    ``rows`` are integer constraint vectors; the initial batch must have
    full rank (pointedness).  Each ray carries a bitmask of the rows it is
    tight on, maintained exactly; adjacency of rays uses the standard
    combinatorial test.  ``add_row`` returns the rays cut off by the new
    halfspace, whose masks identify the facets visible from it.
    """

    def __init__(self, dim: int, rows: list[IntVector]):
        self.dim = dim
        basis_idx = _greedy_basis(rows, dim)
        if len(basis_idx) < dim:
            raise NotFullDimensional(f"constraint rank {len(basis_idx)} < {dim}")
        fr_rows = [exactlin.vec(rows[i]) for i in basis_idx]
        # Simplicial start: rays are the columns of the basis inverse, so
        # ray j is tight on every basis row except row basis_idx[j].
        cols = []
        for j in range(dim):
            rhs = [Fraction(int(k == j)) for k in range(dim)]
            cols.append(exactlin.solve_unique(fr_rows, rhs))
        self.rows = list(rows)
        self.rays: list[tuple[IntVector, int]] = []
        for j in range(dim):
            mask = 0
            for k in range(dim):
                if k != j:
                    mask |= 1 << basis_idx[k]
            v = [int(x) for x in exactlin.canonical_integer_vector(cols[j])]
            # canonical form may flip orientation; re-orient into the cone.
            if _idot(rows[basis_idx[j]], v) < 0:
                v = [-x for x in v]
            self.rays.append((tuple(v), mask))
        basis_set = set(basis_idx)
        for i, row in enumerate(rows):
            if i not in basis_set:
                self._insert(i, row)

    def add_row(self, row: IntVector) -> list[tuple[IntVector, int]]:
        idx = len(self.rows)
        self.rows.append(tuple(row))
        return self._insert(idx, tuple(row))

    def _insert(self, idx: int, row: IntVector) -> list[tuple[IntVector, int]]:
        bit = 1 << idx
        pos, zero, neg = [], [], []
        dots = {}
        for ray in self.rays:
            d = _idot(row, ray[0])
            dots[id(ray)] = d
            (pos if d > 0 else zero if d == 0 else neg).append(ray)
        if not neg:
            self.rays = pos + [(v, m | bit) for v, m in zero]
            return []
        needed = self.dim - 2
        masks = [m for _, m in self.rays]
        new_rays = []
        for rp in pos:
            mp = rp[1]
            dp = dots[id(rp)]
            for rn in neg:
                z = mp & rn[1]
                if z.bit_count() < needed:
                    continue
                if any(m != mp and m != rn[1] and (z & ~m) == 0 for m in masks):
                    continue
                dn = dots[id(rn)]
                combo = [dp * a - dn * b for a, b in zip(rn[0], rp[0])]
                new_rays.append((_reduce_ray(combo), z | bit))
        self.rays = pos + [(v, m | bit) for v, m in zero] + new_rays
        return neg


# ---------------------------------------------------------------------------
# Facets of the convex hull of a full-dimensional point set.
# ---------------------------------------------------------------------------


def _integerize_row(row) -> IntVector:
    fr = exactlin.vec(row)
    lcm = 1
    for x in fr:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    return tuple(int(x * lcm) for x in fr)


def hull_facet_rays(vectors) -> list[tuple[IntVector, int, int]]:
    """Facets of conv(vectors) for a full-dimensional point set in R^d.

    Returns (alpha, beta, tight_mask) triples: <x, alpha> + beta >= 0
    holds on all points with equality exactly on the tight set, and each
    facet appears once.  Derived from the extreme rays of the cone of
    valid inequalities, which is pointed iff the set affinely spans.
    """
    d = len(vectors[0])
    rows = [_integerize_row(tuple(v) + (1,)) for v in vectors]
    cone = DDCone(d + 1, rows)
    out = []
    for v, mask in cone.rays:
        alpha, beta = v[:-1], v[-1]
        if all(a == 0 for a in alpha):
            raise AssertionError("trivial inequality reported as extreme")
        out.append((alpha, beta, mask))
    return out


def enumerate_facets(config: PointConfiguration) -> list[FacetCertificate]:
    """All facets of the adjacency polytope, canonically ordered.

    Normals are scaled so supported points sit at level -1, which is
    possible because the origin is interior.  For the zero-dimensional
    configuration the single facet is the empty set.
    """
    if config.dim == 0:
        return [FacetCertificate((), ())]
    if exactlin.rank(config.vectors, config.dim) < config.dim:
        raise NotFullDimensional("configuration does not span its space")
    certs = []
    for alpha, beta, mask in hull_facet_rays(config.vectors):
        if beta <= 0:
            raise AssertionError("origin not interior; cannot normalize facet")
        normal = tuple(Fraction(a, beta) for a in alpha)
        support = tuple(
            sorted(config.labels[i] for i in range(len(config.labels)) if mask >> i & 1)
        )
        certs.append(FacetCertificate(normal, support))
    certs.sort(key=lambda c: c.normal)
    return certs


def validate_facet(config: PointConfiguration, cert: FacetCertificate) -> bool:
    """Re-check a certificate against the definitional inequalities."""
    support = set(cert.support)
    tight_vectors = []
    for lab, x in zip(config.labels, config.vectors):
        val = exactlin.dot(x, cert.normal)
        if lab in support:
            if val != -1:
                return False
            tight_vectors.append(x)
        elif val < -1:
            return False
    return exactlin.rank(tight_vectors, config.dim) == config.dim


# ---------------------------------------------------------------------------
# Regular subdivisions via lower-hull supports.
# ---------------------------------------------------------------------------


def regular_subdivision_supports(vectors, weights) -> list[tuple[Vector, Fraction, int]]:
    """Full-dimensional cells of the regular subdivision of a point set.

    Each cell is the tight set of a lower facet of the lifted hull, i.e.
    a vertex (gamma, h) of {(a, h) : <x_i, a> + w_i >= h}; those vertices
    are the extreme rays with positive last coordinate of the homogenized
    cone.  Returns (gamma, h, tight_mask) with masks over point indices.
    """
    d = len(vectors[0])
    if exactlin.rank(vectors, d) < d:
        raise NotFullDimensional("point set does not span its space")
    rows = [tuple(v) + (-1, int(w)) for v, w in zip(vectors, weights)]
    rows.append((0,) * (d + 1) + (1,))
    cone = DDCone(d + 2, rows)
    cells = []
    for v, mask in cone.rays:
        t = v[-1]
        if t == 0:
            continue
        gamma = tuple(Fraction(a, t) for a in v[:-2])
        h = Fraction(v[-2], t)
        cells.append((gamma, h, mask & ~(1 << len(vectors))))
    cells.sort(key=lambda c: (c[0], c[1]))
    return cells


# ---------------------------------------------------------------------------
# Placing triangulation and normalized volume.
# ---------------------------------------------------------------------------


class _PlacingState:
    """Placing triangulation of a full-dimensional point set: place an
    affine basis first (the first points, in label order, that raise the
    rank of the homogenized rows (x, 1)), then every other point in label
    order, coning each new point over the hull facets it is beyond.

    Any placing order yields a triangulation.  Starting from a basis
    keeps the hull full-dimensional throughout, so its facet list is the
    ray list of one DDCone over the homogenized integer points, and
    placing one more point is one incremental cone update whose removed
    rays are the visible facets.  Simplices and masks are over placing
    positions; ``run`` maps them back to point indices.
    """

    def __init__(self, vectors: list[IntVector]):
        if not vectors:
            raise NotFullDimensional("empty point set")
        d = len(vectors[0])
        rows = [v + (1,) for v in vectors]
        basis = _greedy_basis(rows, d + 1)
        if len(basis) < d + 1:
            raise NotFullDimensional(f"affine dimension {len(basis) - 1} < {d}")
        chosen = set(basis)
        self.order = basis + [i for i in range(len(vectors)) if i not in chosen]
        self.rows = [rows[i] for i in self.order]
        self.cone = DDCone(d + 1, self.rows[: d + 1])
        full = (1 << (d + 1)) - 1
        self.simplices: list[tuple[frozenset[int], int]] = [(frozenset(range(d + 1)), full)]

    def insert(self, k: int) -> None:
        removed = self.cone.add_row(self.rows[k])
        if not removed:
            return
        bit = 1 << k
        new: dict[frozenset[int], int] = {}
        for _, fmask in removed:
            for s, smask in self.simplices:
                if (smask & ~fmask).bit_count() != 1:
                    continue
                drop = (smask & ~fmask).bit_length() - 1
                face = s - {drop}
                new[frozenset(face | {k})] = (smask & fmask) | bit
        self.simplices.extend(new.items())

    def run(self) -> list[tuple[int, ...]]:
        for k in range(self.cone.dim, len(self.rows)):
            self.insert(k)
        return sorted(tuple(sorted(self.order[k] for k in s)) for s, _ in self.simplices)


def _lattice_points(vectors) -> list[IntVector]:
    out = []
    for v in vectors:
        if any(x != int(x) for x in v):
            raise ValueError(f"non-lattice point {tuple(v)}")
        out.append(tuple(int(x) for x in v))
    return out


def placing_triangulation(vectors) -> list[tuple[int, ...]]:
    """Simplices (index tuples) of the placing triangulation that places
    the greedy affine basis first and the other points in the given
    order.  Interior points are skipped, so every simplex is
    full-dimensional.  Raises NotFullDimensional unless the points span
    their ambient space affinely."""
    vectors = _lattice_points(vectors)
    if len(set(vectors)) != len(vectors):
        raise ValueError("points must be distinct")
    return _PlacingState(vectors).run()


def normalized_volume_of_points(vectors) -> int:
    """Exact normalized volume (d! times Euclidean) of conv(vectors).

    Triangulation oracle: sums |det| of vertex-difference matrices over
    the placing triangulation; a positive integer for full-dimensional
    lattice input.
    """
    vectors = _lattice_points(vectors)
    total = 0
    for simplex in _PlacingState(vectors).run():
        base = vectors[simplex[0]]
        rows = [[a - b for a, b in zip(vectors[j], base)] for j in simplex[1:]]
        det = integer_determinant(rows)
        if det == 0:
            raise AssertionError("degenerate simplex in placing triangulation")
        total += abs(det)
    return total


def normalized_volume(config: PointConfiguration) -> int:
    """Normalized volume of the adjacency polytope (1 in dimension zero,
    where the polytope is the single point 0)."""
    if config.dim == 0:
        return 1
    return normalized_volume_of_points(config.vectors)


def normalized_volume_of_cell(vectors) -> int:
    """Triangulation oracle applied to a cell's point set."""
    return normalized_volume_of_points(vectors)
