"""Deterministic constructors for the polytope families used in tests and
corpus runs: simplices, cubes, cross-polytopes, cyclic polytopes on the
moment curve, pyramids, prisms, and seeded near-sphere random hulls.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadSpecError, TooLargeError
from .exact import Vector
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


def simplex(dim: int) -> Polytope:
    """The standard simplex: the origin plus the dim unit points."""
    pts = [[0] * dim]
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        pts.append(e)
    return hull_from_points(pts)


def cube(dim: int) -> Polytope:
    """The unit cube {0,1}^dim."""
    pts = [[(m >> i) & 1 for i in range(dim)] for m in range(2 ** dim)]
    return hull_from_points(pts)


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


def pyramid(base: Polytope) -> Polytope:
    """Apex added one unit above the centroid of the base's vertices."""
    verts = [v + (Fraction(0),) for v in base.vertices]
    centroid = base.centroid_of(range(base.n_vertices))
    verts.append(centroid + (Fraction(1),))
    return _build(verts, base.metric + (Fraction(1),))


def prism(base: Polytope) -> Polytope:
    """Two parallel copies of the base joined at unit height."""
    verts = [v + (Fraction(0),) for v in base.vertices]
    verts += [v + (Fraction(1),) for v in base.vertices]
    return _build(verts, base.metric + (Fraction(1),))


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
    if spec.family == "pyramid":
        # Pyramid over a (dim-1)-cube: a compact default for CLI use.
        if spec.dim < 2:
            raise BadSpecError("pyramid family needs dim >= 2")
        return pyramid(cube(spec.dim - 1))
    if spec.family == "prism":
        if spec.dim < 2:
            raise BadSpecError("prism family needs dim >= 2")
        return prism(simplex(spec.dim - 1))
    raise BadSpecError(f"unknown family {spec.family!r}")
