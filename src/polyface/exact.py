"""Exact rational scalars, vectors and linear algebra.

Rank, affine dimension, null spaces and spans are decided here, exactly:
arbitrary-precision rationals, no floats, no tolerances.  Scalars are
``fractions.Fraction`` values, which are always stored in lowest terms
with a positive denominator.  Vectors are plain tuples of scalars.

Not every exact sign in the package is decided here.  The hull
(``_hull``) tests which side of a facet a point is on, and rotates facets
about ridges, in its own integer arithmetic on integer-scaled points.
``projection`` tests containment in a face's hull with integer dot
products (``_contains_int``), which are exact as well.  Two callers put a
floating-point filter (``_predicates``) in front of exact work: it
certifies signs against a static error bound.  The hull's final
supporting-plane check tests every point against every plane in one
float product, and only the cells the bound leaves open, among them
every point on a plane, get an exact dot product.  Before its exact
solves, ``projection`` certifies signs of determinants and slacks
(``_det_signs``, ``_rejected``), which decide whether a diagram face pair
can cross; a pair whose sign the bound leaves open is solved here,
exactly.  So no float ever reaches an output.

All linear algebra runs through one kernel, ``echelon``: fraction-free
Gauss-Jordan elimination on Python ints.  Rational input is first scaled
to integers by ``integer_scaled`` (one lcm of denominators, which changes
no rank, span or null space).  Rank is the number of pivots, null spaces
are read off the reduced rows, and greedy bases of rows are the pivot
columns of the transposed matrix.

Hyperplane normals are kept unnormalized; all geometric sign tests in the
package are scale invariant, which is what keeps coordinates rational.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .errors import MixedDimensionsError, ZeroVectorError

Scalar = Fraction
Vector = tuple[Fraction, ...]


def vector(coords: Iterable) -> Vector:
    """Exact coordinates from ints, "p/q" strings, Fractions or floats.

    Floats convert exactly, so 0.1 becomes the binary fraction it stores,
    not 1/10."""
    v = tuple(Fraction(c) for c in coords)
    if not v:
        raise MixedDimensionsError("a vector needs at least one coordinate")
    return v


def _check_same_dim(vectors: Sequence[Vector]) -> int:
    dims = {len(v) for v in vectors}
    if len(dims) > 1:
        raise MixedDimensionsError(f"mixed vector dimensions: {sorted(dims)}")
    return dims.pop() if dims else 0


def dot(u: Vector, v: Vector) -> Fraction:
    if len(u) != len(v):
        raise MixedDimensionsError(f"dot of dim {len(u)} with dim {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def wdot(u: Vector, v: Vector, weights: Sequence[Fraction]) -> Fraction:
    """Inner product with a diagonal metric.

    Affine restrictions (a facet treated as a polytope in its own right)
    carry a diagonal metric recording the squared lengths of their basis
    vectors in the original space; this is the pairing that makes angle
    computations in restricted coordinates agree with the ambient ones.
    """
    if not (len(u) == len(v) == len(weights)):
        raise MixedDimensionsError("weighted dot with inconsistent dimensions")
    return sum((a * b * w for a, b, w in zip(u, v, weights)), Fraction(0))


def vadd(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise MixedDimensionsError("adding vectors of different dimensions")
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise MixedDimensionsError("subtracting vectors of different dimensions")
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Fraction, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


def primitive(v: Vector) -> Vector:
    """Scale a nonzero rational vector to coprime integers (sign kept)."""
    if is_zero(v):
        raise ZeroVectorError("cannot reduce the zero vector")
    (ints,), _ = integer_scaled([v])
    g = gcd(*ints)
    return tuple(Fraction(a // g) for a in ints)


def integer_scaled(rows: Sequence[Sequence]) -> tuple[list[tuple[int, ...]], int]:
    """(integer rows, multiplier): every entry times one common multiplier,
    the lcm of all denominators.

    Rows may hold Fractions or ints.  The scaling is uniform, so it keeps
    ranks, null spaces, spans and the side of every point relative to a
    hyperplane through scaled points: the combinatorics are untouched.
    """
    mult = lcm(*(c.denominator for row in rows for c in row))
    return [tuple(c.numerator * (mult // c.denominator) for c in row)
            for row in rows], mult


def echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of an integer
    matrix: (reduced rows, pivot columns).

    There is one reduced row per pivot, and all share a common pivot value
    D, which is plus or minus the determinant of the pivot rows and columns
    of the input.  The reduced rows are D times the reduced row echelon
    form: row i holds D at pivots[i] and 0 at every other pivot column.
    Each step replaces a row by (D_new * row - f * pivot row) / D_old, and
    Sylvester's identity makes that division exact, so every entry stays
    an integer minor of the input rather than growing without bound.
    Pivot columns are the first columns independent of those before them.
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    prev = 1
    for col in range(len(work[0]) if work else 0):
        r = len(pivots)
        if r == len(work):
            break
        p = next((i for i in range(r, len(work)) if work[i][col]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        prow = work[r]
        piv = prow[col]
        for i, row in enumerate(work):
            if i != r:
                f = row[col]
                work[i] = [(piv * a - f * b) // prev for a, b in zip(row, prow)]
        prev = piv
        pivots.append(col)
    return work[:len(pivots)], pivots


def rank(rows: Sequence[Vector]) -> int:
    """Exact rank of a list of row vectors over the rationals."""
    if not rows:
        return 0
    _check_same_dim(rows)
    return len(echelon(integer_scaled(rows)[0])[1])


def _independent(rows: Sequence[Sequence]) -> list[int]:
    """Indices of the rows independent of all rows before them: the pivot
    columns of the transposed matrix."""
    return echelon(list(zip(*integer_scaled(rows)[0])))[1]


def span_basis(rows: Sequence[Vector]) -> list[Vector]:
    """A subset of the given rows forming a basis of their span: each row
    that is independent of the rows before it."""
    if not rows:
        return []
    _check_same_dim(rows)
    return [rows[i] for i in _independent(rows)]


def null_space(rows: Sequence[Vector], dim: int) -> list[tuple[int, ...]]:
    """Basis of {x : r . x = 0 for every row r}, as primitive integer vectors.

    Rows may be rational or integer.  There is one basis vector per free
    (non-pivot) column c of the reduced rows: D at c, minus row i's entry
    at c at pivot i, and 0 elsewhere, made primitive with a positive entry
    at c.  The reduced row echelon form is unique, so the basis is too.
    """
    if rows and _check_same_dim(rows) != dim:
        raise MixedDimensionsError("rows do not match the stated dimension")
    reduced, pivots = echelon(integer_scaled(rows)[0])
    common = reduced[0][pivots[0]] if pivots else 1
    sign = 1 if common > 0 else -1
    basis = []
    for free in range(dim):
        if free in pivots:
            continue
        vec = [0] * dim
        vec[free] = common
        for row, p in zip(reduced, pivots):
            vec[p] = -row[free]
        g = gcd(*vec) * sign
        basis.append(tuple(c // g for c in vec))
    return basis


def affine_dim(points: Sequence[Vector]) -> int:
    """Affine dimension: -1 for no points, 0 for one, else rank of differences."""
    if not points:
        return -1
    _check_same_dim(points)
    if len(points) == 1:
        return 0
    base = points[0]
    return rank([vsub(p, base) for p in points[1:]])


def affine_basis_indices(points: Sequence[Vector]) -> list[int]:
    """Indices [i0, i1, ...] of points whose differences from points[i0]
    form a basis of the affine hull.  Greedy and deterministic."""
    if not points:
        return []
    _check_same_dim(points)
    base = points[0]
    return [0] + [i + 1 for i in
                  _independent([vsub(p, base) for p in points[1:]])]


def gram_schmidt(vectors: Iterable[Vector], weights: Sequence[Fraction]
                 ) -> Iterator[tuple[Vector, Fraction]]:
    """Unnormalized Gram-Schmidt under a diagonal metric.

    Yields (b, |b|^2) for each vector that is independent of the vectors
    before it: b is its part orthogonal to them, made primitive, so every
    coordinate stays rational (unit vectors would force square roots).
    Vectors dependent on earlier ones yield nothing.
    """
    basis: list[tuple[Vector, Fraction]] = []
    for b in vectors:
        for prev, nb in basis:
            c = wdot(b, prev, weights) / nb
            if c != 0:
                b = vsub(b, vscale(c, prev))
        if not is_zero(b):
            b = primitive(b)
            basis.append((b, wdot(b, b, weights)))
            yield basis[-1]


@dataclass(frozen=True)
class Hyperplane:
    """An oriented rational hyperplane {x : normal . x = offset}.

    The outward convention used throughout: a point x is inside the
    halfspace when normal . x <= offset.
    """

    normal: Vector
    offset: Fraction

    def __post_init__(self):
        if is_zero(self.normal):
            raise ZeroVectorError("hyperplane normal must be nonzero")
