"""Point configurations of adjacency polytopes, facet enumeration, and an
exact normalized-volume oracle.

Geometry is done in integers and bitsets throughout.  Facets and regular
subdivisions are read off the extreme rays of polyhedral cones computed
with the double description method (exact, incremental).  A cone starts
from the primitive columns of the adjugate of a row basis, found by one
fraction-free Gauss-Jordan pass, and decides ray adjacency by ANDing
per-row bitsets of tight rays.  Volumes come from a placing triangulation
that places an affine basis first and the remaining points in label
order: one determinant for the seed simplex, then each new simplex's
volume as an exact integer ratio off the simplex it is glued to.  The
two pipelines share no logic beyond the cone engine, and tests re-derive
facets from brute-force hyperplanes and from integer potentials, and
volumes from per-simplex determinants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

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
    the rows chosen so far; stops once ``size`` rows are chosen.

    The chosen rows are kept in fraction-free echelon form, each with its
    pivot column, zero in the pivot columns of the rows before it.  A
    candidate reduced against them in turn raises the rank iff anything
    is left of it.
    """
    echelon: list[tuple[int, IntVector]] = []
    basis: list[int] = []
    for i, row in enumerate(rows):
        r = tuple(row)
        for c, e in echelon:
            f = r[c]
            if f:
                p = e[c]
                r = tuple(p * a - f * b for a, b in zip(r, e))
        pivot = next((c for c, x in enumerate(r) if x), None)
        if pivot is None:
            continue
        echelon.append((pivot, _reduce_ray(list(r))))
        basis.append(i)
        if len(basis) == size:
            break
    return basis


def _adjugate_columns(basis: list[IntVector]) -> list[list[int]]:
    """Columns of adj(B), up to one common sign, for a nonsingular
    integer matrix B.

    One fraction-free Gauss-Jordan pass on [B | I] (Bareiss 1968): after
    pivot k every entry is a (k+1)-minor of [B | I], so each division by
    the previous pivot is exact, and the pass ends at [d*I | d*B^-1]
    with d = +-det(B).
    """
    n = len(basis)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(basis)]
    prev = 1
    for k in range(n):
        p = next(i for i in range(k, n) if m[i][k])
        m[k], m[p] = m[p], m[k]
        pivot_row = m[k]
        pv = pivot_row[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(pv * a - f * b) // prev for a, b in zip(m[i], pivot_row)]
        prev = pv
    return [[m[i][n + j] for i in range(n)] for j in range(n)]


class DDCone:
    """Incremental double description for a pointed cone, in integers.

    ``rows`` are integer constraint vectors; the initial batch must have
    full rank (pointedness).  The start is simplicial: the columns of the
    adjugate of a greedy row basis, each reduced to a primitive vector
    and oriented into the cone, so ray j is tight on every basis row but
    the j-th.  Each ray carries a bitmask of the rows it is tight on,
    maintained exactly.  Adjacency uses the combinatorial test (Fukuda and
    Prodon 1996): two rays are adjacent iff no third ray is tight on every
    row both are tight on, decided by ANDing per-row bitsets over ray
    positions.  ``add_row`` returns the rays cut off by the new halfspace,
    whose masks identify the facets visible from it.
    """

    def __init__(self, dim: int, rows: list[IntVector]):
        self.dim = dim
        basis_idx = _greedy_basis(rows, dim)
        if len(basis_idx) < dim:
            raise NotFullDimensional(f"constraint rank {len(basis_idx)} < {dim}")
        cols = _adjugate_columns([rows[i] for i in basis_idx])
        full = sum(1 << i for i in basis_idx)
        self.rows = list(rows)
        self.rays: list[tuple[IntVector, int]] = []
        for i, col in zip(basis_idx, cols):
            v = _reduce_ray(col)
            if _idot(rows[i], v) < 0:
                v = tuple(-x for x in v)
            self.rays.append((v, full ^ (1 << i)))
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
        rays = self.rays
        dots = [_idot(row, v) for v, _ in rays]
        pos = [p for p, d in enumerate(dots) if d > 0]
        zero = [(v, m | bit) for (v, m), d in zip(rays, dots) if d == 0]
        neg = [p for p, d in enumerate(dots) if d < 0]
        if not neg:
            self.rays = [rays[p] for p in pos] + zero
            return []
        # tight[i]: bitset of the ray positions tight on row i.
        tight = [0] * len(self.rows)
        for p, (_, m) in enumerate(rays):
            b = 1 << p
            while m:
                low = m & -m
                tight[low.bit_length() - 1] |= b
                m ^= low
        everything = (1 << len(rays)) - 1
        needed = self.dim - 2
        new_rays = []
        negs = [(q, rays[q][1]) for q in neg]
        for p in pos:
            vp, mp = rays[p]
            dp = dots[p]
            for q, mn in [(q, mn) for q, mn in negs if (mp & mn).bit_count() >= needed]:
                # The rays tight on every row of z include p and q; the
                # pair is adjacent iff there are no others.
                z = mp & mn
                pair = (1 << p) | (1 << q)
                common = everything
                rest = z
                while rest and common != pair:
                    low = rest & -rest
                    common &= tight[low.bit_length() - 1]
                    rest ^= low
                if common != pair:
                    continue
                dn = dots[q]
                combo = [dp * a - dn * b for a, b in zip(rays[q][0], vp)]
                new_rays.append((_reduce_ray(combo), z | bit))
        self.rays = [rays[p] for p in pos] + zero + new_rays
        return [rays[q] for q in neg]


# ---------------------------------------------------------------------------
# Facets of the convex hull of a full-dimensional point set.
# ---------------------------------------------------------------------------


def _integerize_row(row) -> IntVector:
    fr = exactlin.vec(row)
    scale = exactlin.common_denominator(fr)
    return tuple(int(x * scale) for x in fr)


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
    rays = hull_facet_rays(config.vectors)
    if any(beta <= 0 for _, beta, _ in rays):
        raise AssertionError("origin not interior; cannot normalize facet")
    # alpha * (scale / beta) is the normal times one common positive
    # integer, so these integer keys sort the normals exactly.
    scale = lcm(*(beta for _, beta, _ in rays))
    rays.sort(key=lambda r: tuple(a * (scale // r[1]) for a in r[0]))
    certs = []
    for alpha, beta, mask in rays:
        normal = tuple(Fraction(a, beta) for a in alpha)
        support = tuple(
            sorted(config.labels[i] for i in range(len(config.labels)) if mask >> i & 1)
        )
        certs.append(FacetCertificate(normal, support))
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
    """Placing triangulation of a full-dimensional point set, with the
    normalized volume of every simplex.

    Places an affine basis first (the first points, in label order, that
    raise the rank of the homogenized rows r = (x, 1)), then every other
    point in label order, coning each new point over the hull facets it
    is beyond.  Any placing order yields a triangulation.  Starting from
    a basis keeps the hull full-dimensional throughout, so its facet list
    is the ray list of one DDCone over the homogenized integer points,
    and placing one more point is one incremental cone update whose
    removed rays are the visible facets.

    The boundary of the triangulation is kept per hull facet, as facet
    ray -> {face mask: (volume of the simplex on the face, position of its
    opposite vertex)}, so a visible facet hands over its faces directly.
    Only the seed simplex takes a determinant.  Every other volume
    follows from the simplex it is glued to: det(b, w) over the rows of
    a face b is linear in w and vanishes on the facet hyperplane <v, .> = 0
    of the face, so coning b to the new point r_k instead of its opposite
    vertex r_j scales the volume by -<v, r_k> / <v, r_j>.  The new
    boundary faces are the ridges that occur in exactly one new simplex,
    each filed under the one facet through r_k that contains it.  Masks
    are over placing positions; ``order`` maps them back to point indices.
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
        seed = abs(integer_determinant(self.rows[: d + 1]))
        self.simplices: list[int] = [full]
        self.volume = seed
        # facet ray -> {boundary face mask: (volume, opposite position)}
        self.faces: dict[IntVector, dict[int, tuple[int, int]]] = {
            v: {m: (seed, (full ^ m).bit_length() - 1)} for v, m in self.cone.rays
        }

    def insert(self, k: int) -> None:
        row = self.rows[k]
        removed = self.cone.add_row(row)
        if not removed:
            return
        bit = 1 << k
        # ridge mask -> (volume, opposite position), or None once it is
        # shared by two new simplices.
        ridges: dict[int, tuple[int, int] | None] = {}
        for v, _ in removed:
            beyond = -_idot(v, row)
            for face, (vol, j) in self.faces.pop(v).items():
                vol, rem = divmod(vol * beyond, _idot(v, self.rows[j]))
                if rem:
                    raise AssertionError("placing volume is not an integer")
                simplex = face | bit
                self.simplices.append(simplex)
                self.volume += vol
                rest = face
                while rest:
                    low = rest & -rest
                    ridge = simplex ^ low
                    ridges[ridge] = None if ridge in ridges else (vol, low.bit_length() - 1)
                    rest ^= low
        # holders[i]: bitset of the facets through k that contain point i.
        through_k = [(v, m) for v, m in self.cone.rays if m & bit]
        holders = [0] * (k + 1)
        for f, (_, m) in enumerate(through_k):
            b = 1 << f
            while m:
                low = m & -m
                holders[low.bit_length() - 1] |= b
                m ^= low
        for ridge, entry in ridges.items():
            if entry is None:
                continue
            common = -1
            rest = ridge
            while rest:
                low = rest & -rest
                common &= holders[low.bit_length() - 1]
                rest ^= low
            if not common or common & (common - 1):
                raise AssertionError("boundary face is not in exactly one hull facet")
            facet = through_k[common.bit_length() - 1][0]
            self.faces.setdefault(facet, {})[ridge] = entry

    def run(self) -> _PlacingState:
        for k in range(self.cone.dim, len(self.rows)):
            self.insert(k)
        return self


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
    state = _PlacingState(vectors).run()
    return sorted(
        tuple(sorted(i for p, i in enumerate(state.order) if s >> p & 1))
        for s in state.simplices
    )


def normalized_volume_of_points(vectors) -> int:
    """Exact normalized volume (d! times Euclidean) of conv(vectors).

    Triangulation oracle: the sum of the simplex volumes of the placing
    triangulation, one determinant for the seed simplex and exact integer
    ratios for the rest; a positive integer for full-dimensional lattice
    input.
    """
    return _PlacingState(_lattice_points(vectors)).run().volume


def normalized_volume(config: PointConfiguration) -> int:
    """Normalized volume of the adjacency polytope (1 in dimension zero,
    where the polytope is the single point 0)."""
    if config.dim == 0:
        return 1
    return normalized_volume_of_points(config.vectors)


def normalized_volume_of_cell(vectors) -> int:
    """Triangulation oracle applied to a cell's point set."""
    return normalized_volume_of_points(vectors)
