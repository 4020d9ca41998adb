"""Deterministic constructors for the polytope families used in tests and
corpus runs: simplices, cubes, cross-polytopes, cyclic polytopes on the
moment curve, pyramids, prisms, and seeded near-sphere random hulls.

Every family polytope costs one hull.  The pyramid and prism families
build theirs straight from the base's known vertex list, never from the
base's own hull, and each hull's seed simplex takes all d+1 facet normals
from one fraction-free elimination of [E | I] (``_hull``).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BadSpecError, TooLargeError
from .exact import Vector, vector
from .polytope import MAX_DIM, MAX_POINTS, Polytope, _build, hull_from_points

FAMILIES = ("simplex", "cube", "cross", "cyclic", "pyramid", "prism",
            "random-sphere")

# Denominator used when rationalizing random unit vectors.
RANDOM_DENOMINATOR = 10**4


@dataclass(frozen=True)
class FamilySpec:
    """A named family instance.  ``n`` is the vertex count where it applies
    (cyclic, random-sphere); ``seed`` only matters for random-sphere.
    Specs past the guards fail here, before any point is generated."""

    family: str
    dim: int
    n: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise BadSpecError(f"unknown family {self.family!r}")
        if self.dim < 1:
            raise BadSpecError("dim must be >= 1")
        if self.dim > MAX_DIM:
            raise TooLargeError(
                f"dimension {self.dim} exceeds the guard of {MAX_DIM}")
        if self.family in ("cyclic", "random-sphere") and \
                self.n is not None and self.n > MAX_POINTS:
            raise TooLargeError(
                f"{self.n} points exceeds the guard of {MAX_POINTS}")
        if self.family == "cyclic":
            if self.n is None or self.n <= self.dim:
                raise BadSpecError("cyclic needs n > dim")
        if self.family == "random-sphere" and (self.n is None or self.n < 1):
            raise BadSpecError("random-sphere needs n >= 1")


def _simplex_points(dim: int) -> list[list[int]]:
    """The origin plus the dim unit points."""
    pts = [[0] * dim]
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        pts.append(e)
    return pts


def _cube_points(dim: int) -> list[list[int]]:
    """{0,1}^dim, point m with bit i of m as coordinate i."""
    return [[(m >> i) & 1 for i in range(dim)] for m in range(2 ** dim)]


def simplex(dim: int) -> Polytope:
    """The standard simplex: the origin plus the dim unit points."""
    return hull_from_points(_simplex_points(dim))


def cube(dim: int) -> Polytope:
    """The unit cube {0,1}^dim."""
    return hull_from_points(_cube_points(dim))


def cross_polytope(dim: int) -> Polytope:
    """Convex hull of the positive and negative unit points."""
    pts = []
    for i in range(dim):
        for s in (1, -1):
            e = [0] * dim
            e[i] = s
            pts.append(e)
    return hull_from_points(pts)


def cyclic(n: int, dim: int) -> Polytope:
    """The cyclic polytope: n points on the moment curve t -> (t, ..., t^dim)
    at the integer parameters 1..n."""
    if n <= dim:
        raise BadSpecError("cyclic needs n > dim")
    pts = [[t ** k for k in range(1, dim + 1)] for t in range(1, n + 1)]
    return hull_from_points(pts)


def random_sphere(dim: int, n: int, seed: int = 0) -> Polytope:
    """Seeded rational approximations of uniform sphere points.

    Directions are standard normal draws from PCG64(seed), normalized and
    then rounded to rationals with denominator 10^4.  Identical seeds give
    byte-identical vertex lists.  Points that end up inside the hull are
    dropped silently by construction.  The 0-sphere has only two points.
    """
    if dim == 1 and n > 2:
        raise BadSpecError("the 0-sphere has only 2 points: need n <= 2")
    rng = np.random.Generator(np.random.PCG64(seed & (2**64 - 1)))
    pts: list[Vector] = []
    while len(pts) < n:
        g = rng.standard_normal(dim)
        norm = float(np.sqrt((g * g).sum()))
        if norm == 0.0:
            continue
        p = tuple(
            Fraction(round(c / norm * RANDOM_DENOMINATOR), RANDOM_DENOMINATOR)
            for c in g
        )
        if any(p == q for q in pts):
            continue
        pts.append(p)
    return hull_from_points(pts)


def _over(family: str, vertices: Sequence[Vector]) -> Polytope:
    """The pyramid or the prism over a base given by its vertices, with one
    hull, in the base's space plus one coordinate: the pyramid's apex is
    one unit above the vertices' centroid, and the prism's second copy of
    the base one unit above the first.  The hull's seed simplex, as every
    hull's, takes all its d+1 facet normals from one elimination of
    [E | I] (``_hull``)."""
    verts = [v + (Fraction(0),) for v in vertices]
    if family == "pyramid":
        n = len(vertices)
        verts.append(tuple(Fraction(sum(c), n) for c in zip(*vertices))
                     + (Fraction(1),))
    else:
        verts += [v + (Fraction(1),) for v in vertices]
    return _build(verts)


def pyramid(base: Polytope) -> Polytope:
    """Apex added one unit above the centroid of the base's vertices, in
    the base's ambient space plus one coordinate: a restricted base gives
    a restricted pyramid."""
    return _over("pyramid", base.ambient_vertices())


def prism(base: Polytope) -> Polytope:
    """Two parallel copies of the base joined at unit height, in the
    base's ambient space plus one coordinate: a restricted base gives a
    restricted prism."""
    return _over("prism", base.ambient_vertices())


def generate(spec: FamilySpec) -> Polytope:
    """Build the polytope described by a FamilySpec, deterministically."""
    if spec.family == "simplex":
        return simplex(spec.dim)
    if spec.family == "cube":
        return cube(spec.dim)
    if spec.family == "cross":
        return cross_polytope(spec.dim)
    if spec.family == "cyclic":
        return cyclic(spec.n, spec.dim)
    if spec.family == "random-sphere":
        return random_sphere(spec.dim, spec.n, spec.seed)
    if spec.family in ("pyramid", "prism"):
        # A pyramid over a (dim-1)-cube or a prism over a (dim-1)-simplex:
        # compact defaults for CLI use.  The base's vertices are known, so
        # its own hull is never built; they are the same Fraction tuples,
        # in the same order, as cube() and simplex() keep.
        if spec.dim < 2:
            raise BadSpecError(f"{spec.family} family needs dim >= 2")
        points = (_cube_points if spec.family == "pyramid"
                  else _simplex_points)(spec.dim - 1)
        return _over(spec.family, [vector(p) for p in points])
    raise BadSpecError(f"unknown family {spec.family!r}")
