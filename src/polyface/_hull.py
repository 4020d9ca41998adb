"""Exact facet enumeration for full-dimensional point sets.

``incremental_facets`` is beneath-beyond insertion over a simplicial facet
complex, with coplanar simplices merged at the end.  Output sensitive; it
handles every degenerate input (points on facet hyperplanes, interior
points, duplicated hyperplanes) because all side tests are exact.

It works on integer-scaled copies of the points (``exact.integer_scaled``:
a uniform scaling, so the combinatorics are untouched; integer input, as
``polytope._build`` passes, comes back as it is) and returns facets as
primitive integer hyperplanes expressed in the input's coordinates,
together with the set of input points lying exactly on each facet
hyperplane.  Only the seed simplex's d+1 facets need elimination, and one
elimination gives them all: the exact kernel reduces [E | I], E the
simplex's edges from one vertex, to D * [I | E^-1], whose columns and
their sum are the d+1 facet normals (``_seed_facets``).  Every later
facet is the plane of a neighbouring facet rotated about a horizon ridge,
in integer arithmetic.  Simplices and ridges are keyed by the int
bitmask of their vertex indices: a simplex's ridges are its key with one
bit cleared, and a rotated simplex is a ridge's key with the new point's
bit set.  The final check that every plane supports the points is one
float product per hull, points against planes, whose signs a static error
bound certifies (``_predicates``); only the cells it leaves open, among
them every point on a plane, are tested exactly.
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
from .exact import Vector, affine_basis_indices, echelon, integer_scaled

# A simplex in integer working coordinates: (bitmask of its vertex indices,
# primitive outward normal, offset).
_IntFacet = tuple[int, tuple[int, ...], int]


def _idot(n: tuple[int, ...], p: tuple[int, ...]) -> int:
    return sum(map(mul, n, p))


def _seed_facets(
    pts: list[tuple[int, ...]], chosen: list[int],
    centroid_sum: tuple[int, ...], centroid_count: int,
) -> list[_IntFacet]:
    """The seed simplex's d+1 facets, one for each vertex of chosen that it
    leaves out, in the order of chosen.

    E has the rows p_i - p_0 for chosen = (p_0, ..., p_d).  One
    fraction-free elimination of [E | I] gives D * [I | E^-1]: E times
    column j of D * E^-1 is D times unit vector j, so that column is normal
    to every edge from p_0 but the one to p_(j+1), the facet opposite
    p_(j+1).  The sum of the columns has the same product D with every
    edge from p_0, so it is normal to every difference of two of p_1..p_d,
    the facet opposite p_0.  Each normal is made primitive and oriented
    away from the simplex's centroid."""
    dim = len(chosen) - 1
    base = pts[chosen[0]]
    reduced, pivots = echelon(
        [[a - b for a, b in zip(pts[v], base)] + [int(i == j) for j in range(dim)]
         for i, v in enumerate(chosen[1:])])
    if pivots != list(range(dim)):
        raise PolyfaceError("degenerate facet candidate in hull construction")
    columns = list(zip(*reduced))[dim:]
    everything = sum(1 << v for v in chosen)
    out = []
    for k, column in enumerate([tuple(map(sum, zip(*columns)))] + columns):
        g = gcd(*column)
        normal = tuple(c // g for c in column)
        # p_1 is on the facet opposite p_0, and p_0 on every other one.
        offset = _idot(normal, pts[chosen[k == 0]])
        # Orient outward: the reference interior point must satisfy n.x < b.
        ref = _idot(normal, centroid_sum)
        if ref > offset * centroid_count:
            normal = tuple(-c for c in normal)
            offset = -offset
        elif ref == offset * centroid_count:
            raise PolyfaceError("interior reference point on a facet hyperplane")
        out.append((everything ^ 1 << chosen[k], normal, offset))
    return out


def _ridges(key: int) -> list[int]:
    """A simplex's ridges: its vertex bitmask with each set bit cleared in
    turn, lowest first."""
    out = []
    rest = key
    while rest:
        low = rest & -rest
        out.append(key ^ low)
        rest ^= low
    return out


def _check_two_regular(owners: dict, touched: set) -> None:
    """Every ridge an insertion touched (a ridge of a removed or of a new
    facet) must lie in exactly 2 facets or in none.  That is as strong as
    recounting every ridge: an untouched ridge's facets did not change, so
    it still lies in 2, by induction from the seed simplex, whose ridges
    are all touched.  owners maps each ridge key (any hashable; the hull
    uses vertex bitmasks) to the keys of the facets through it."""
    counts = [len(owners.get(ridge, ())) for ridge in touched]
    if any(c > 2 for c in counts):
        raise PolyfaceError("hull invariant violated: overcounted ridge")
    if 1 in counts:
        raise PolyfaceError(f"hull invariant violated: {counts.count(1)} "
                            f"ridges not in exactly 2 facets")


def _rotated(ridge: int, idx: int, visible: _IntFacet, hidden: _IntFacet,
             a: int, b: int, centroid_sum: tuple[int, ...],
             centroid_count: int) -> _IntFacet:
    """The facet through a horizon ridge (a vertex bitmask) and the new
    point p of index idx: the visible facet's plane (n1, c1) rotated about
    the ridge towards the hidden one's (n2, c2) (gift wrapping), with
    a = c2 - n2.p and b = n1.p - c1 from the insertion's scan.  Both
    planes contain the ridge, so (a*n1 + b*n2).x = a*c1 + b*c2 does too,
    and p lies on it.  a >= 0 (p is not beyond the hidden facet) and
    b > 0 (p is beyond the visible one), so the normal is a nonnegative
    mix of outward normals; a = 0 gives back the hidden plane (a coplanar
    point, joined by the final merge)."""
    (_, n1, c1), (_, n2, c2) = visible, hidden
    normal = tuple(a * x + b * y for x, y in zip(n1, n2))
    g = gcd(*normal)
    if g == 0:
        raise PolyfaceError("degenerate facet candidate in hull construction")
    normal, offset = tuple(c // g for c in normal), (a * c1 + b * c2) // g
    if _idot(normal, centroid_sum) >= offset * centroid_count:
        raise PolyfaceError("interior reference point on a facet hyperplane")
    return (ridge | 1 << idx, normal, offset)


def _simplicial_hull(pts: list[tuple[int, ...]], dim: int) -> list[_IntFacet]:
    """The simplices of a triangulated hull boundary, each keyed by the
    bitmask of its d vertex indices.  A ridge is its simplex's key with
    one bit cleared, and a rotated simplex is a ridge's key with the new
    point's bit set, so no vertex tuple is ever built or sorted.  At most
    64 points (``polytope.MAX_POINTS``) keep every key below 2**64."""
    # Greedy affinely independent seed simplex.
    chosen = affine_basis_indices(pts)
    if len(chosen) != dim + 1:
        raise PolyfaceError("points do not span the stated dimension")

    centroid_sum = tuple(sum(pts[i][j] for i in chosen) for j in range(dim))
    cc = dim + 1
    # The facets by vertex bitmask, and the facets through each ridge.
    facets: dict[int, _IntFacet] = {}
    owners: dict[int, list[int]] = {}

    def add(new: list[_IntFacet], touched: set[int]) -> None:
        for facet in new:
            key = facet[0]
            facets[key] = facet
            for ridge in _ridges(key):
                owners.setdefault(ridge, []).append(key)
                touched.add(ridge)
        _check_two_regular(owners, touched)

    add(_seed_facets(pts, chosen, centroid_sum, cc), set())
    seeded = set(chosen)
    for idx, p in enumerate(pts):
        if idx in seeded:
            continue
        # Each facet's n.p - c, which the rotations read back.  Visible is
        # strictly beyond only: a point on a facet's plane leaves it alone,
        # and the final merge scans every point against every plane.
        excess = {key: sum(map(mul, normal, p)) - offset
                  for key, normal, offset in facets.values()}
        visible = {key for key, e in excess.items() if e > 0}
        if not visible:
            continue  # inside or on the current hull, never a new vertex
        new: list[_IntFacet] = []
        touched: set[int] = set()
        for key in visible:
            facet = facets.pop(key)
            for ridge in _ridges(key):
                pair = owners[ridge]
                pair.remove(key)
                touched.add(ridge)
                if not pair:
                    del owners[ridge]
                elif pair[0] not in visible:  # a horizon ridge
                    hidden = pair[0]
                    new.append(_rotated(ridge, idx, facet, facets[hidden],
                                        -excess[hidden], excess[key],
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
) -> list[tuple[tuple[int, ...], Fraction, frozenset[int]]]:
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
        out.append((normal, Fraction(offset, mult), frozenset(on)))
    return out


def incremental_facets(
    points: Sequence[Vector], dim: int
) -> list[tuple[tuple[int, ...], Fraction, frozenset[int]]]:
    """Facets of the hull of full-dimensional points, exactly.

    Returns (normal, offset, on_set) triples with primitive normals (tuples
    of ints) oriented outward (inside means normal . x <= offset) and on_set
    the indices of ALL input points lying on the hyperplane.
    """
    pts, mult = integer_scaled(points)
    return _merge_and_verify(pts, _simplicial_hull(pts, dim), mult)
