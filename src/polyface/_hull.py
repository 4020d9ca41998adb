"""Exact facet enumeration for full-dimensional point sets.

``incremental_facets`` is beneath-beyond insertion over a simplicial facet
complex, with coplanar simplices merged at the end.  Output sensitive; it
handles every degenerate input (points on facet hyperplanes, interior
points, duplicated hyperplanes) because all side tests are exact.

It works on integer-scaled copies of the points (``exact.integer_scaled``:
a uniform scaling, so the combinatorics are untouched) and returns facets as
primitive integer hyperplanes expressed in the original coordinates,
together with the set of input points lying exactly on each facet
hyperplane.  Only the seed simplex's d+1 facets need elimination (a normal
is the null vector of the edge differences, from the exact kernel); every
later facet is the plane of a neighbouring facet rotated about a horizon
ridge, in integer arithmetic.  The final check that every plane supports
the points is one float product per hull, points against planes, whose
signs a static error bound certifies (``_predicates``); only the cells it
leaves open, among them every point on a plane, are tested exactly.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd
from operator import mul
from typing import Sequence

import numpy as np

from ._predicates import _bounded, _certified_signs
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
    The hull runs it only on the seed simplex's d+1 facets.
    """
    basis = null_space(diffs, dim)
    return basis[0] if len(basis) == 1 else None


def _idot(n: tuple[int, ...], p: tuple[int, ...]) -> int:
    return sum(map(mul, n, p))


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


def _ridges(verts: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [verts[:j] + verts[j + 1:] for j in range(len(verts))]


def _check_two_regular(owners: dict[tuple[int, ...], list[tuple[int, ...]]],
                       touched: set[tuple[int, ...]]) -> None:
    """Every ridge an insertion touched (a ridge of a removed or of a new
    facet) must lie in exactly 2 facets or in none.  That is as strong as
    recounting every ridge: an untouched ridge's facets did not change, so
    it still lies in 2, by induction from the seed simplex, whose ridges
    are all touched."""
    counts = [len(owners.get(ridge, ())) for ridge in touched]
    if any(c > 2 for c in counts):
        raise PolyfaceError("hull invariant violated: overcounted ridge")
    if 1 in counts:
        raise PolyfaceError(f"hull invariant violated: {counts.count(1)} "
                            f"ridges not in exactly 2 facets")


def _rotated(ridge: tuple[int, ...], idx: int, p: tuple[int, ...],
             visible: _IntFacet, hidden: _IntFacet,
             centroid_sum: tuple[int, ...], centroid_count: int) -> _IntFacet:
    """The facet through a horizon ridge and the new point p: the visible
    facet's plane rotated about the ridge towards the hidden one's (gift
    wrapping).  Both planes contain the ridge, so (a*n1 + b*n2).x =
    a*c1 + b*c2 does too, and p lies on it.  a >= 0 (p is not beyond the
    hidden facet) and b > 0 (p is beyond the visible one), so the normal
    is a nonnegative mix of outward normals; a = 0 gives back the hidden
    plane (a coplanar point, joined by the final merge)."""
    (_, n1, c1), (_, n2, c2) = visible, hidden
    a, b = c2 - _idot(n2, p), _idot(n1, p) - c1
    normal = tuple(a * x + b * y for x, y in zip(n1, n2))
    g = gcd(*normal)
    if g == 0:
        raise PolyfaceError("degenerate facet candidate in hull construction")
    normal, offset = tuple(c // g for c in normal), (a * c1 + b * c2) // g
    if _idot(normal, centroid_sum) >= offset * centroid_count:
        raise PolyfaceError("interior reference point on a facet hyperplane")
    return (tuple(sorted(ridge + (idx,))), normal, offset)


def _simplicial_hull(pts: list[tuple[int, ...]], dim: int) -> list[_IntFacet]:
    # Greedy affinely independent seed simplex.
    chosen = affine_basis_indices(pts)
    if len(chosen) != dim + 1:
        raise PolyfaceError("points do not span the stated dimension")

    centroid_sum = tuple(sum(pts[i][j] for i in chosen) for j in range(dim))
    cc = dim + 1
    # The facets by vertex tuple, and the facets through each ridge.
    facets: dict[tuple[int, ...], _IntFacet] = {}
    owners: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def add(new: list[_IntFacet], touched: set[tuple[int, ...]]) -> None:
        for facet in new:
            facets[facet[0]] = facet
            for ridge in _ridges(facet[0]):
                owners.setdefault(ridge, []).append(facet[0])
                touched.add(ridge)
        _check_two_regular(owners, touched)

    add([_facet_through(pts, tuple(v for v in chosen if v != drop), dim,
                        centroid_sum, cc) for drop in chosen], set())
    seeded = set(chosen)
    for idx, p in enumerate(pts):
        if idx in seeded:
            continue
        # Strictly beyond only: a point on a facet's plane leaves it alone,
        # and the final merge scans every point against every plane.
        visible = {verts for verts, normal, offset in facets.values()
                   if _idot(normal, p) > offset}
        if not visible:
            continue  # inside or on the current hull, never a new vertex
        new: list[_IntFacet] = []
        touched: set[tuple[int, ...]] = set()
        for verts in visible:
            facet = facets.pop(verts)
            for ridge in _ridges(verts):
                pair = owners[ridge]
                pair.remove(verts)
                touched.add(ridge)
                if not pair:
                    del owners[ridge]
                elif pair[0] not in visible:  # a horizon ridge
                    new.append(_rotated(ridge, idx, p, facet, facets[pair[0]],
                                        centroid_sum, cc))
        add(new, touched)
    return list(facets.values())


def _rounding(dim: int) -> float:
    """A bound on gamma_N / (1 - gamma_N), with a factor 2 to spare, for a
    point's value against a plane row: inputs 2 roundings each, a product
    1 more, and a sum of dim + 1 products dim more, so N = dim + 5."""
    return 2 * (dim + 5) * 2.0 ** -53


def _plane_signs(planes: list[tuple[tuple[int, ...], int]],
                 pts: list[tuple[int, ...]]) -> np.ndarray:
    """(planes, points): the sign of n.p - c for each plane (n, c) and
    point p where the float filter certifies it (`_predicates`), NaN
    elsewhere.  One product of the homogeneous points (p / 2^beta, 1),
    which brings every coordinate below 1 in size, and the plane rows
    (n, -c / 2^beta), each over a power of two of its own."""
    dim = len(pts[0])
    beta = max(c.bit_length() for p in pts for c in p)
    rows = _bounded([normal + (-offset,) for normal, offset in planes],
                    dim + 1, (0,) * dim + (beta,))
    homogeneous = _bounded([p + (1 << beta,) for p in pts], dim + 1, beta,
                           False)
    return _certified_signs(rows @ homogeneous.swapaxes(1, 2),
                            _rounding(dim))


def _merge_and_verify(
    pts: list[tuple[int, ...]],
    simplicial: list[_IntFacet],
    mult: int,
) -> list[tuple[Vector, Fraction, frozenset[int]]]:
    planes = sorted({(normal, offset) for _, normal, offset in simplicial})
    # A point certified strictly inside a plane needs no exact test; every
    # other cell, and so every point on a plane, gets one.
    signs = _plane_signs(planes, pts)
    if (signs > 0).any():
        raise PolyfaceError("hull produced a non-supporting hyperplane")
    out = []
    for (normal, offset), open_cells in zip(planes, (~(signs < 0)).tolist()):
        on = []
        for i in compress(range(len(pts)), open_cells):
            value = _idot(normal, pts[i])
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
