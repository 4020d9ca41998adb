"""Polytopes from vertex sets: exact hulls, facets, lattices, JSON.

A Polytope always stores full-dimensional intrinsic coordinates.  Inputs
whose affine hull is lower dimensional are restricted automatically: an
orthogonal (unnormalized) rational basis of the hull is chosen and the
polytope keeps the affine embedding back into the ambient space together
with a diagonal metric (the squared basis lengths).  The metric is what
lets angle computations on restricted polytopes agree with the ambient
geometry while every coordinate stays rational.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from . import _hull
from .errors import (
    BadInputError,
    EmptyInputError,
    MixedDimensionsError,
    NotAFaceError,
    TooLargeError,
)
from .exact import (
    Hyperplane,
    Vector,
    affine_basis_indices,
    affine_dim,
    gram_schmidt,
    integer_scaled,
    vadd,
    vector,
    vscale,
    vsub,
    wdot,
)
from .lattice import Face, FaceLattice, FVector, build_face_lattice

MAX_POINTS = 64
MAX_DIM = 7
# A coordinate string may spell at most this many digits, the magnitude of
# its exponent counted as that many: "1e1000" is a 1001-digit integer.  An
# integer coordinate may have at most this many digits.
MAX_COORD_DIGITS = 1000
_COORD_INT_BOUND = 10**MAX_COORD_DIGITS


@dataclass(frozen=True)
class FacetRecord:
    """A facet: its vertex indices and outward supporting hyperplane."""

    vertex_set: frozenset[int]
    plane: Hyperplane


@dataclass(frozen=True)
class AffineEmbedding:
    """Affine map from intrinsic to ambient coordinates: x = offset + B c."""

    offset: Vector
    basis: tuple[Vector, ...]

    def apply(self, point: Vector) -> Vector:
        out = self.offset
        for c, b in zip(point, self.basis):
            if c != 0:
                out = vadd(out, vscale(c, b))
        return out

    @staticmethod
    def identity(dim: int) -> "AffineEmbedding":
        zero = tuple(Fraction(0) for _ in range(dim))
        basis = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(dim))
            for i in range(dim)
        )
        return AffineEmbedding(zero, basis)


class Polytope:
    """An immutable polytope: intrinsic vertices, facets, embedding, metric.

    Construct via :func:`hull_from_points` (or the generators module); the
    constructor itself trusts its arguments.
    """

    def __init__(self, ambient_dim: int, dim: int, vertices: Sequence[Vector],
                 facets: Sequence[FacetRecord], embedding: AffineEmbedding,
                 metric: Sequence[Fraction]):
        self.ambient_dim = ambient_dim
        self.dim = dim
        self.vertices = tuple(vertices)
        self.facets = tuple(facets)
        self.embedding = embedding
        self.metric = tuple(metric)
        self._memo: dict = {}

    def memo(self, key, build: Callable[[], Any]) -> Any:
        """The value cached under key, computed once by build().

        Everything derived from this immutable polytope lives here: its
        face lattice, and from projection the integer geometry, its float
        rows ("float-geometry"), each face dimension's table (its faces'
        affine data, read off the lattice's `containing` rows and the
        integer facet planes, and their filter data), and the shadow and
        facet partition of each direction.
        A build that raises stores nothing, so it raises again on the next
        call.
        """
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- basic combinatorics -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    def face_lattice(self) -> FaceLattice:
        return self.memo("lattice", lambda: build_face_lattice(
            self.n_vertices, [f.vertex_set for f in self.facets], self.dim))

    def f_vector(self) -> FVector:
        return self.face_lattice().f_vector()

    def is_simple(self) -> bool:
        """Every vertex lies in exactly dim facets."""
        counts = [0] * self.n_vertices
        for f in self.facets:
            for v in f.vertex_set:
                counts[v] += 1
        return all(c == self.dim for c in counts)

    def is_simplicial(self) -> bool:
        """Every facet has exactly dim vertices."""
        return all(len(f.vertex_set) == self.dim for f in self.facets)

    def require_face(self, face: Face | Iterable[int]) -> Face:
        """The lattice's own nonempty Face for a Face or vertex collection;
        NotAFaceError when it names no face or the empty one."""
        found = self.face_lattice().find(face)
        if not found.vertex_set:
            raise NotAFaceError("the empty face is not allowed here")
        return found

    # -- geometry ------------------------------------------------------------

    def centroid_of(self, vertex_set: Iterable[int]) -> Vector:
        vs = sorted(set(vertex_set))
        acc = self.vertices[vs[0]]
        for i in vs[1:]:
            acc = vadd(acc, self.vertices[i])
        return vscale(Fraction(1, len(vs)), acc)

    def ambient_vertices(self) -> tuple[Vector, ...]:
        return tuple(self.embedding.apply(v) for v in self.vertices)

    def __repr__(self):
        return (f"Polytope(dim={self.dim}, vertices={self.n_vertices}, "
                f"facets={self.n_facets})")


def _restrict(points: list[Vector], metric: tuple[Fraction, ...]):
    """Orthogonal affine restriction onto the hull of the points.

    Returns (intrinsic points, embedding, child metric).  The basis is
    Gram-Schmidt orthogonalized with respect to the given diagonal metric
    but not normalized, so the child metric is again diagonal.
    """
    idx = affine_basis_indices(points)
    base = points[idx[0]]
    pairs = list(gram_schmidt((vsub(points[i], base) for i in idx[1:]), metric))
    intrinsic = [
        tuple(wdot(vsub(p, base), b, metric) / nb for b, nb in pairs)
        for p in points
    ]
    embedding = AffineEmbedding(base, tuple(b for b, _ in pairs))
    return intrinsic, embedding, tuple(nb for _, nb in pairs)


def _build(points: Sequence[Vector], metric: Sequence[Fraction]) -> Polytope:
    """Shared construction path: dedupe, restrict, enumerate facets, drop
    non-vertex points, assemble the Polytope.

    A full-dimensional input is scaled to integers once
    (``exact.integer_scaled``); the dimension test and the hull both read
    those rows, and the hull's offsets, Fractions already, are divided by
    the multiplier unless it is 1.  A lower-dimensional input goes to the
    hull in its intrinsic rational coordinates."""
    if not points:
        raise EmptyInputError("a polytope needs at least one point")
    ambient = len(points[0])
    if any(len(p) != ambient for p in points):
        raise MixedDimensionsError("points of mixed dimensions")
    metric = tuple(metric)

    seen: dict[Vector, int] = {}
    distinct: list[Vector] = []
    for p in points:
        if p not in seen:
            seen[p] = len(distinct)
            distinct.append(p)
    if len(distinct) > MAX_POINTS:
        raise TooLargeError(
            f"{len(distinct)} points exceeds the guard of {MAX_POINTS}"
        )

    scaled, mult = integer_scaled(distinct)
    dim = affine_dim(scaled)
    if dim > MAX_DIM:
        raise TooLargeError(f"dimension {dim} exceeds the guard of {MAX_DIM}")

    if dim == ambient:
        intrinsic = distinct
        embedding = AffineEmbedding.identity(ambient)
        child_metric = metric
        hull_points = scaled
    else:
        intrinsic, embedding, child_metric = _restrict(distinct, metric)
        hull_points, mult = intrinsic, 1

    if dim == 0:
        return Polytope(ambient, 0, intrinsic, (), embedding, child_metric)

    raw = _hull.incremental_facets(hull_points, dim)

    # A point is a vertex iff the facets through it meet in that point
    # alone: every nonempty proper face is the intersection of the facets
    # containing it.  A point on no facet is interior.
    meet: dict[int, frozenset[int]] = {}
    for _, _, on in raw:
        for i in on:
            meet[i] = meet[i] & on if i in meet else on
    keep = [i for i in range(len(intrinsic)) if meet.get(i) == {i}]
    remap = {old: new for new, old in enumerate(keep)}
    vertices = [intrinsic[i] for i in keep]

    facets = []
    for normal, offset, on in raw:
        vs = frozenset(remap[i] for i in on if i in remap)
        facets.append(FacetRecord(
            vs, Hyperplane(normal, offset if mult == 1 else offset / mult)))
    facets.sort(key=lambda f: sorted(f.vertex_set))
    return Polytope(ambient, dim, vertices, facets, embedding, child_metric)


def hull_from_points(points: Sequence) -> Polytope:
    """Convex hull of a finite point set, exactly.

    Coordinates may be ints, strings ("p/q") or Fractions.  Lower
    dimensional inputs are restricted to intrinsic coordinates rather than
    rejected.  Redundant (non-vertex) points are dropped; facets are
    enumerated with exact arithmetic and never trusted from anywhere else.
    """
    if not points:
        raise EmptyInputError("a polytope needs at least one point")
    pts = [vector(p) for p in points]
    ones = tuple(Fraction(1) for _ in range(len(pts[0])))
    return _build(pts, ones)


# -- serialization ----------------------------------------------------------


def polytope_to_json(p: Polytope) -> dict:
    """The interchange form: ambient dimension plus exact vertex strings.

    Facets and the lattice are recomputed on load, never trusted."""
    return {
        "ambient_dim": p.ambient_dim,
        "vertices": [
            [str(c) for c in v] for v in p.ambient_vertices()
        ],
    }


def _coordinate(c) -> Fraction:
    """An exact coordinate; TooLargeError for a string or an integer past
    MAX_COORD_DIGITS, checked before parsing, since Fraction("1e10000000")
    builds 10**10000000 exactly.  Whatever the check passes, Fraction
    parses or refuses."""
    if isinstance(c, int) and abs(c) >= _COORD_INT_BOUND:
        raise TooLargeError(f"integer coordinate of {c.bit_length()} bits "
                            f"has more than {MAX_COORD_DIGITS} digits")
    if isinstance(c, str):
        mantissa, _, exponent = c.strip().lower().partition("e")
        magnitude = exponent.lstrip("+-").replace("_", "").lstrip("0") or "0"
        if magnitude.isdecimal():
            digits = sum(ch.isdecimal() for ch in mantissa)
            if (len(magnitude) > len(str(MAX_COORD_DIGITS))
                    or digits + int(magnitude) > MAX_COORD_DIGITS):
                raise TooLargeError(
                    f"coordinate {c[:40]!r} spells more than "
                    f"{MAX_COORD_DIGITS} digits")
    return Fraction(c)


def polytope_from_json(data: dict) -> Polytope:
    try:
        ambient, rows = data["ambient_dim"], data["vertices"]
        # JSON true/false load as 1 and 0; a string row splits into digits.
        if type(ambient) is not int or any(
                type(row) is not list or any(type(c) is bool for c in row)
                for row in rows):
            raise TypeError("ambient_dim must be an integer and each vertex "
                            "a list of non-boolean coordinates")
        rows = [tuple(_coordinate(c) for c in row) for row in rows]
    except (KeyError, TypeError, ValueError, ZeroDivisionError,
            OverflowError) as exc:
        raise BadInputError(f"malformed polytope JSON: {exc!r}") from exc
    if any(len(row) != ambient for row in rows):
        raise MixedDimensionsError("vertex length does not match ambient_dim")
    return hull_from_points(rows)


def load_polytope(path: str) -> Polytope:
    # JSONDecodeError and UnicodeDecodeError are both ValueErrors; a nest
    # of arrays deeper than the interpreter's stack is a RecursionError.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise BadInputError(f"cannot read polytope JSON {path}: {exc}") from exc
    return polytope_from_json(data)
