"""The verification corpora of the acceptance and projection tests.

``standard_corpus`` is the fixed desk-scale collection the acceptance
suite runs over (the ``corpus`` command builds its own family x dimension
grid instead): every generator family through dimension 6 plus 20 seeded
random hulls.  Its members are chosen so that every statistical
acceptance margin is comfortably observable; in particular, faces of
codimension >= 3 of every member have facet-angle sums bounded away from 1
(moment-curve polytopes of dimension >= 3 and random 4-dimensional hulls
carry nearly flat faces with sums above 0.999, which no sample budget can
separate from 1 by a fixed margin).

``extended_corpus`` adds exactly those flat instances back.  Every exact
check (Euler, ratio bounds, minimum counts, projection gaps, interior
vertices) runs over the extended corpus as well; only the fixed-margin
curvature sweep is restricted to the standard one.

``near_cube`` is a d-cube of huge coordinates whose square faces split
into nearly coplanar simplices: ridges whose two facets are nearly
parallel, where a float projection of one facet's normal onto the
other's hyperplane is rounding noise.

``restricted_tetrahedron`` is a tetrahedron in R^4 at huge coordinates,
and ``HUGE_PLANE_HEXAGON`` a hexagon in R^3 at 201 digits, each restricted
to its flat.  An orthogonal (Gram-Schmidt) frame with a diagonal metric
once put `angles` past the float range on both: the tetrahedron from 31
digits on.

``NEEDLE_INPUTS`` are `--in` files of 4-polytopes with needle-thin facets
at 31-digit coordinates, and ``needle_corpus`` their polytopes.  The
closed-form facet angles once ordered a cone's unit normals around their
sum: at one vertex of ``needle-tip`` that sum is 0.0 in floats (a
ZeroDivisionError), and at one of ``needle-facet`` the order came out
wrong ("Gram's relation fails by -0.0644 in facet 2").
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from polyface.generators import (
    cross_polytope,
    cube,
    cyclic,
    prism,
    pyramid,
    random_sphere,
    simplex,
)
from polyface.polytope import Polytope, hull_from_points, polytope_from_json

RANDOM_COUNT = 20

# A well-rounded convex pentagon (moment-curve polygons are nearly flat at
# their middle vertices, which would spoil prism/pyramid margins).
PENTAGON_POINTS = [(4, 0), (1, 3), (-3, 2), (-3, -2), (1, -3)]

NEEDLE_INPUTS = {
    # Simplicial, f = (8, 26, 36, 18).
    "needle-tip": {"ambient_dim": 4, "vertices": [
        [3, -2, 0, 3], [0.5, 1, "-5/1", -1.25], [-1, "2/3", 0, "2.97"],
        [0, -2, -3, 0], [0, 1, 3, -1], [0, 0.5, -3, -2],
        [1000000000000000000000000000001, 2, 2, 0], ["-1.33", -1, 1, -1]]},
    # f = (9, 31, 43, 21); facet 2 has vertices 0, 1, 4, 5 and 6.
    "needle-facet": {"ambient_dim": 4, "vertices": [
        ["2.13", 999999999999999999999999999999, "3/4", -1],
        ["1/3", 0, -3, -1],
        ["2/3", "-1.12", -1000000000000000000000000000001, "0/3"],
        [-3, "2.86", "-1/4", 0], ["3/2", "5/2", 2, -1], [2, 1, 2, -1],
        ["0/4", 1, 1, -1], [1000000000000000000000000000002, "2/4", 0, "0/2"],
        [-2, "3/2", -3, 0.001]]},
}


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    family: str
    dim: int
    n: int
    polytope: Polytope


def _entry(name: str, family: str, p: Polytope) -> CorpusEntry:
    return CorpusEntry(name, family, p.dim, p.n_vertices, p)


def standard_corpus() -> list[CorpusEntry]:
    """Deterministic: identical across runs and platforms."""
    entries: list[CorpusEntry] = []
    for d in range(1, 7):
        entries.append(_entry(f"simplex-{d}", "simplex", simplex(d)))
    for d in range(2, 7):
        entries.append(_entry(f"cube-{d}", "cube", cube(d)))
    for d in range(2, 7):
        entries.append(_entry(f"cross-{d}", "cross", cross_polytope(d)))
    for n in (5, 6, 7, 8):
        entries.append(_entry(f"cyclic-{n}-2", "cyclic", cyclic(n, 2)))
    pentagon = hull_from_points(PENTAGON_POINTS)
    entries.append(_entry("pyramid-square", "pyramid", pyramid(cube(2))))
    entries.append(_entry("pyramid-pentagon", "pyramid", pyramid(pentagon)))
    entries.append(_entry("pyramid-cube3", "pyramid", pyramid(cube(3))))
    entries.append(_entry("pyramid-cross3", "pyramid", pyramid(cross_polytope(3))))
    entries.append(_entry("prism-triangle", "prism", prism(simplex(2))))
    entries.append(_entry("prism-pentagon", "prism", prism(pentagon)))
    entries.append(_entry("prism-simplex3", "prism", prism(simplex(3))))
    entries.append(_entry("prism-cross3", "prism", prism(cross_polytope(3))))
    entries.append(_entry("pyramid-prism-triangle", "pyramid",
                          pyramid(prism(simplex(2)))))
    entries.append(_entry("prism-pyramid-square", "prism",
                          prism(pyramid(cube(2)))))
    for seed in range(RANDOM_COUNT):
        d = 2 + seed % 2  # dimensions 2 and 3
        n = 8 + seed % 5  # 8..12 requested points
        p = random_sphere(d, n, seed)
        entries.append(_entry(f"random-{d}-{n}-s{seed}", "random-sphere", p))
    return entries


def flat_extras() -> list[CorpusEntry]:
    """Members with nearly flat low-dimensional faces: moment-curve
    polytopes of dimension >= 3 and random 4-dimensional hulls."""
    entries = [
        _entry(f"cyclic-{n}-{d}", "cyclic", cyclic(n, d))
        for n, d in [(6, 3), (6, 4), (7, 4), (8, 4), (7, 5), (8, 5), (8, 6)]
    ]
    for seed in (2, 5, 8, 11, 14, 17):
        p = random_sphere(4, 8 + seed % 5, seed)
        entries.append(_entry(f"random-4-{8 + seed % 5}-s{seed}",
                              "random-sphere", p))
    return entries


def extended_corpus() -> list[CorpusEntry]:
    return standard_corpus() + flat_extras()


def needle_corpus() -> list[CorpusEntry]:
    return [_entry(name, "needle", polytope_from_json(data))
            for name, data in NEEDLE_INPUTS.items()]


def near_cube(d: int, digits: int) -> Polytope:
    """The hull of the 2^d vertices of [-10^digits, 10^digits]^d, each
    coordinate moved by random.Random(0).randint(-4, 4), vertex by vertex."""
    rng = random.Random(0)
    big = 10**digits
    return hull_from_points([
        [(big if i >> j & 1 else -big) + rng.randint(-4, 4) for j in range(d)]
        for i in range(2**d)])


HUGE_PLANE_HEXAGON = {"ambient_dim": 3, "vertices": [
    [str(a * x + b * y) for x, y in zip(
        (10**200 + 1, 2, 10**200), (0, 10**200 + 1, 10**200 + 5))]
    for a, b in [(0, 0), (1, 0), (1, 1), (0, 1), (2, 3), (3, 1)]]}


def restricted_tetrahedron(digits: int) -> dict:
    """The `--in` JSON of four points in R^4 with coordinates drawn by
    random.Random(3).randrange(-10^digits, 10^digits), row by row."""
    rng = random.Random(3)
    big = 10**digits
    return {"ambient_dim": 4, "vertices": [
        [str(rng.randrange(-big, big)) for _ in range(4)] for _ in range(4)]}


def facets_containing(p, vertex_set) -> list[int]:
    """The indices of p's facets whose vertex sets hold vertex_set, by a
    scan of every facet: independent of the lattice's incidences."""
    return [i for i, f in enumerate(p.facets) if vertex_set <= f.vertex_set]
