"""Exact facet enumeration for full-dimensional point sets.

Two implementations of the same contract:

* ``incremental_facets`` -- beneath-beyond insertion over a simplicial
  facet complex, with coplanar simplices merged at the end.  Output
  sensitive; handles every degenerate input (points on facet hyperplanes,
  interior points, duplicated hyperplanes) because all side tests are
  exact.  This is the production path.

* ``brute_force_facets`` -- enumeration of all dim-subsets spanning a
  hyperplane, keeping the supporting ones.  O(n^dim); used as an oracle
  in tests and usable directly on small inputs.

Both work on integer-scaled copies of the points (``exact.integer_scaled``:
a uniform scaling, so the combinatorics are untouched) and return facets as
primitive integer hyperplanes expressed in the original coordinates,
together with the set of input points lying exactly on each facet
hyperplane.  All linear algebra is the exact kernel's one fraction-free
elimination: a facet normal is the null vector of the edge differences,
and the seed simplex is the greedy affine basis of the points.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import PolyfaceError
from .exact import Vector, affine_basis_indices, integer_scaled, null_space

# A facet in integer working coordinates: (sorted defining vertex indices,
# primitive outward normal, offset).
_IntFacet = tuple[tuple[int, ...], tuple[int, ...], int]


def cross_normal(diffs: list[tuple[int, ...]], dim: int) -> tuple[int, ...] | None:
    """Primitive integer normal of the span of dim-1 difference vectors.

    The single null vector of the differences, from one fraction-free
    elimination.  Returns None when the differences do not span a
    hyperplane (rank < dim-1, so the null space is larger than a line).
    The sign is not normalized: every caller orients the normal itself.
    """
    basis = null_space(diffs, dim)
    return basis[0] if len(basis) == 1 else None


def _idot(n: tuple[int, ...], p: tuple[int, ...]) -> int:
    return sum(a * b for a, b in zip(n, p))


def _facet_through(
    pts: list[tuple[int, ...]], verts: tuple[int, ...], dim: int,
    centroid_sum: tuple[int, ...], centroid_count: int,
) -> _IntFacet:
    base = pts[verts[0]]
    diffs = [tuple(a - b for a, b in zip(pts[v], base)) for v in verts[1:]]
    normal = cross_normal(diffs, dim)
    if normal is None:
        raise PolyfaceError("degenerate facet candidate in hull construction")
    offset = _idot(normal, base)
    # Orient outward: the reference interior point must satisfy n.x < b.
    ref = _idot(normal, centroid_sum)
    if ref > offset * centroid_count:
        normal = tuple(-c for c in normal)
        offset = -offset
    elif ref == offset * centroid_count:
        raise PolyfaceError("interior reference point on a facet hyperplane")
    return (verts, normal, offset)


def _check_two_regular(facets: list[_IntFacet], dim: int) -> None:
    counts: dict[tuple[int, ...], int] = {}
    for verts, _, _ in facets:
        for j in range(dim):
            ridge = verts[:j] + verts[j + 1:]
            counts[ridge] = counts.get(ridge, 0) + 1
    bad = [r for r, c in counts.items() if c != 2]
    if bad:
        raise PolyfaceError(
            f"hull invariant violated: {len(bad)} ridges not in exactly 2 facets"
        )


def _simplicial_hull(pts: list[tuple[int, ...]], dim: int) -> list[_IntFacet]:
    n = len(pts)
    # Greedy affinely independent seed simplex.
    chosen = affine_basis_indices(pts)
    if len(chosen) != dim + 1:
        raise PolyfaceError("points do not span the stated dimension")

    centroid_sum = tuple(sum(pts[i][j] for i in chosen) for j in range(dim))
    cc = dim + 1
    facets = [
        _facet_through(pts, tuple(v for v in chosen if v != drop), dim,
                       centroid_sum, cc)
        for drop in chosen
    ]

    seeded = set(chosen)
    for idx in range(n):
        if idx in seeded:
            continue
        p = pts[idx]
        visible: list[_IntFacet] = []
        hidden: list[_IntFacet] = []
        for f in facets:
            # Equality counts as visible: coplanar facets get retriangulated
            # from the new point, which is what makes the final coplanar
            # merge produce complete facet vertex sets.
            (visible if _idot(f[1], p) >= f[2] else hidden).append(f)
        if not visible:
            continue  # inside or on the current hull, never a new vertex
        ridge_count: dict[tuple[int, ...], int] = {}
        for verts, _, _ in visible:
            for j in range(dim):
                ridge = verts[:j] + verts[j + 1:]
                ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
        if any(c > 2 for c in ridge_count.values()):
            raise PolyfaceError("hull invariant violated: overcounted ridge")
        horizon = [r for r, c in ridge_count.items() if c == 1]
        new = [
            _facet_through(pts, tuple(sorted(r + (idx,))), dim, centroid_sum, cc)
            for r in horizon
        ]
        facets = hidden + new
        _check_two_regular(facets, dim)
    return facets


def _merge_and_verify(
    pts: list[tuple[int, ...]],
    simplicial: list[_IntFacet],
    mult: int,
) -> list[tuple[Vector, Fraction, frozenset[int]]]:
    planes = {(normal, offset) for _, normal, offset in simplicial}
    out = []
    for normal, offset in sorted(planes):
        on = []
        for i, p in enumerate(pts):
            value = _idot(normal, p)
            if value == offset:
                on.append(i)
            elif value > offset:
                raise PolyfaceError("hull produced a non-supporting hyperplane")
        # Back to original coordinates: points were scaled by mult, so the
        # hyperplane offset rescales while the normal is unchanged.
        out.append((
            tuple(Fraction(c) for c in normal),
            Fraction(offset, mult),
            frozenset(on),
        ))
    return out


def incremental_facets(
    points: Sequence[Vector], dim: int
) -> list[tuple[Vector, Fraction, frozenset[int]]]:
    """Facets of the hull of full-dimensional points, exactly.

    Returns (normal, offset, on_set) triples with primitive integer normals
    oriented outward (inside means normal . x <= offset) and on_set the
    indices of ALL input points lying on the hyperplane.
    """
    pts, mult = integer_scaled(points)
    return _merge_and_verify(pts, _simplicial_hull(pts, dim), mult)


def brute_force_facets(
    points: Sequence[Vector], dim: int
) -> list[tuple[Vector, Fraction, frozenset[int]]]:
    """Oracle-grade facet enumeration over all dim-subsets of the points."""
    pts, mult = integer_scaled(points)
    n = len(pts)
    planes = set()
    for combo in combinations(range(n), dim):
        base = pts[combo[0]]
        diffs = [tuple(a - b for a, b in zip(pts[v], base)) for v in combo[1:]]
        normal = cross_normal(diffs, dim)
        if normal is None:
            continue
        offset = _idot(normal, base)
        low = high = False
        for p in pts:
            value = _idot(normal, p)
            if value < offset:
                low = True
            elif value > offset:
                high = True
            if low and high:
                break
        if low and high:
            continue
        if high:  # flip so that every point satisfies n.x <= b
            normal = tuple(-c for c in normal)
            offset = -offset
        planes.add((normal, offset))
    out = []
    for normal, offset in sorted(planes):
        on = frozenset(i for i, p in enumerate(pts) if _idot(normal, p) == offset)
        out.append((
            tuple(Fraction(c) for c in normal),
            Fraction(offset, mult),
            on,
        ))
    return out
