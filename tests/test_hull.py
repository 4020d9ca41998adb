"""Facet enumeration: the incremental hull against the brute-force oracle."""
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyface import _hull
from polyface._hull import (_check_two_regular, _facet_through,
                            _merge_and_verify, _plane_signs, _simplicial_hull,
                            cross_normal, incremental_facets)
from polyface.errors import EmptyInputError, PolyfaceError, TooLargeError
from polyface.exact import (affine_basis_indices, affine_dim, integer_scaled,
                            rank, vector)
from polyface.generators import (cross_polytope, cube, cyclic, random_sphere,
                                 simplex)
from polyface.polytope import hull_from_points

from test_exact import side
from test_golden import huge_polytope


def dot(n, p):
    return sum(a * b for a, b in zip(n, p))


def brute_force_facets(points, dim):
    """The hull oracle: every dim-subset spanning a hyperplane with all
    points on one side gives a facet, as incremental_facets returns them."""
    pts, mult = integer_scaled(points)
    planes = set()
    for combo in combinations(range(len(pts)), dim):
        base = pts[combo[0]]
        diffs = [tuple(a - b for a, b in zip(pts[v], base)) for v in combo[1:]]
        normal = cross_normal(diffs, dim)
        if normal is None:
            continue
        offset = dot(normal, base)
        values = [dot(normal, p) for p in pts]
        if min(values) < offset < max(values):
            continue
        if max(values) > offset:  # flip so that every point satisfies n.x <= b
            normal, offset = tuple(-c for c in normal), -offset
        planes.add((normal, offset))
    return [(tuple(Fraction(c) for c in normal), Fraction(offset, mult),
             frozenset(i for i, p in enumerate(pts) if dot(normal, p) == offset))
            for normal, offset in sorted(planes)]


def canon(facets):
    return sorted((n, b, tuple(sorted(on))) for n, b, on in facets)


def points_of(rows):
    return [vector(r) for r in rows]


SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]
CUBE3 = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]


class TestAgainstOracle:
    @pytest.mark.parametrize("rows,dim", [
        (SQUARE, 2),
        (SQUARE + [(Fraction(1, 2), Fraction(1, 2))], 2),  # interior point
        (SQUARE + [(Fraction(1, 2), 0)], 2),               # edge midpoint
        (CUBE3, 3),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
        ([(t, t * t) for t in range(1, 7)], 2),
    ])
    def test_small_cases(self, rows, dim):
        pts = points_of(rows)
        assert canon(incremental_facets(pts, dim)) == \
            canon(brute_force_facets(pts, dim))

    @given(st.integers(2, 5).flatmap(lambda dim: st.lists(
        st.tuples(*[st.integers(-2, 2)] * dim),
        min_size=dim + 1, max_size=dim + 6, unique=True)))
    @settings(max_examples=60, deadline=None)
    def test_random_integer_points(self, rows):
        # Small grids: many points on facet hyperplanes, so rotations with
        # a = 0 (a new point coplanar with the hidden facet) come up often.
        pts, dim = points_of(rows), len(rows[0])
        assume(affine_dim(pts) == dim)
        assert canon(incremental_facets(pts, dim)) == \
            canon(brute_force_facets(pts, dim))

    def test_three_cube_has_six_facets(self):
        # Independent support-hyperplane enumeration agrees.
        oracle = brute_force_facets(points_of(CUBE3), 3)
        assert len(oracle) == 6
        assert len(incremental_facets(points_of(CUBE3), 3)) == 6


class TestRotation:
    """Facets after the seed simplex come from rotating a neighbour's plane
    about a horizon ridge; elimination on the vertex tuple is the oracle."""

    @pytest.mark.parametrize("rows,dim", [
        (list(product((0, 1), repeat=5)), 5),
        ([tuple(s * (i == j) for j in range(5)) for i in range(5)
          for s in (1, -1)], 5),
        ([tuple(t ** k for k in range(1, 7)) for t in range(1, 13)], 6),
        (list(product((-1, 0, 1), repeat=4)), 4),  # degenerate grid
    ], ids=["cube-5", "cross-5", "cyclic-6-12", "grid-4"])
    def test_facets_match_elimination(self, rows, dim):
        pts, _ = integer_scaled(points_of(rows))
        chosen = affine_basis_indices(pts)
        centroid_sum = tuple(map(sum, zip(*(pts[i] for i in chosen))))
        facets = _simplicial_hull(pts, dim)
        assert len(facets) > dim + 1
        for facet in facets:
            assert facet == _facet_through(pts, facet[0], dim, centroid_sum,
                                           dim + 1)

    def test_point_on_a_facet_leaves_it_alone(self):
        # (1, 1, 0) is inside the seed simplex's facet z = 0, beyond no
        # facet: the simplices stay the seed's 4, and the final scan still
        # puts the point on that facet.
        pts = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 0)]
        assert len(_simplicial_hull(pts, 3)) == 4
        facets = incremental_facets(points_of(pts), 3)
        base = next(on for normal, _, on in facets if normal == (0, 0, -1))
        assert base == {0, 1, 2, 4}

    def test_touched_ridge_check(self):
        owners = {(0, 1): [(0, 1, 2), (0, 1, 3)],
                  (0, 2): [(0, 1, 2), (0, 2, 3), (0, 2, 4)],
                  (1, 2): [(0, 1, 2)]}
        _check_two_regular(owners, {(0, 1), (3, 4)})  # in 2 facets, in none
        with pytest.raises(PolyfaceError, match="overcounted ridge"):
            _check_two_regular(owners, {(0, 1), (0, 2)})
        with pytest.raises(PolyfaceError, match="1 ridges not in exactly 2"):
            _check_two_regular(owners, {(0, 1), (1, 2)})


class TestHullFromPoints:
    def test_unit_square(self):
        p = hull_from_points(SQUARE)
        assert p.n_vertices == 4 and p.n_facets == 4

    def test_center_point_dropped(self):
        p = hull_from_points(SQUARE + [("1/2", "1/2")])
        assert p.n_vertices == 4 and p.n_facets == 4

    def test_edge_midpoint_dropped(self):
        p = hull_from_points(SQUARE + [("1/2", "0")])
        assert p.n_vertices == 4 and p.n_facets == 4

    def test_duplicates_dropped(self):
        p = hull_from_points(SQUARE + SQUARE)
        assert p.n_vertices == 4

    def test_lower_dimensional_input_restricted(self):
        p = hull_from_points([(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 1, 0)])
        assert p.ambient_dim == 3
        assert p.dim == 2

    def test_single_point(self):
        p = hull_from_points([(3, 4)])
        assert p.dim == 0 and p.n_vertices == 1 and p.n_facets == 0

    def test_segment(self):
        p = hull_from_points([(0,), (1,), ("1/2",)])
        assert p.dim == 1 and p.n_vertices == 2 and p.n_facets == 2

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            hull_from_points([])

    def test_too_many_points(self):
        pts = [(i, i * i) for i in range(80)]
        with pytest.raises(TooLargeError):
            hull_from_points(pts)

    def test_idempotent(self):
        for p in (cube(3), cross_polytope(4), cyclic(7, 4), simplex(5)):
            rebuilt = hull_from_points(p.vertices)
            assert rebuilt.n_vertices == p.n_vertices
            assert [f.vertex_set for f in rebuilt.facets] == \
                [f.vertex_set for f in p.facets]
            assert [(f.plane.normal, f.plane.offset) for f in rebuilt.facets] == \
                [(f.plane.normal, f.plane.offset) for f in p.facets]

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=3, max_size=10, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_idempotence_random(self, rows):
        pts = points_of(rows)
        assume(affine_dim(pts) >= 1)
        p = hull_from_points(pts)
        q = hull_from_points(p.vertices)
        assert q.n_vertices == p.n_vertices
        assert [f.vertex_set for f in q.facets] == \
            [f.vertex_set for f in p.facets]


def rank_rule_vertices(pts, dim):
    """An independent vertex rule on the brute-force facets: a point is a
    vertex iff the normals of the facets through it have rank dim (its
    normal cone is full dimensional)."""
    facets = brute_force_facets(pts, dim)
    return {p for i, p in enumerate(pts)
            if rank([n for n, _, on in facets if i in on]) == dim}


@st.composite
def grid_points_with_extras(draw):
    """Points of {0,1,2}^dim (many on the boundary of their hull), plus a
    duplicate, the centroid (interior) and the midpoint of two of them."""
    dim = draw(st.integers(2, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 2)] * dim),
                         min_size=dim + 1, max_size=8))
    pts = points_of(rows)
    i = draw(st.integers(0, len(pts) - 1))
    j = draw(st.integers(0, len(pts) - 1))
    centroid = tuple(sum(c) / len(pts) for c in zip(*pts))
    midpoint = tuple((a + b) / 2 for a, b in zip(pts[i], pts[j]))
    return dim, pts + [pts[0], centroid, midpoint]


class TestVertexRule:
    """hull_from_points keeps the points whose facets meet in that point
    alone; the rank rule on the brute-force facets must agree."""

    @given(grid_points_with_extras())
    @settings(max_examples=60, deadline=None)
    def test_matches_rank_rule(self, case):
        dim, pts = case
        assume(affine_dim(pts) == dim)
        assert set(hull_from_points(pts).vertices) == \
            rank_rule_vertices(pts, dim)

    @pytest.mark.parametrize("rows,dim", [
        (SQUARE + [(Fraction(1, 2), 0)], 2),                   # edge
        (CUBE3 + [(Fraction(1, 2), 0, 0)], 3),                 # edge
        (CUBE3 + [(Fraction(1, 2), Fraction(1, 2), 0)], 3),    # 2-face
        (CUBE3 + [(Fraction(1, 2), 0, 0),
                  (Fraction(1, 2), Fraction(1, 2), 1),
                  (Fraction(1, 2),) * 3], 3),                  # all three
    ])
    def test_midpoints_are_not_vertices(self, rows, dim):
        pts = points_of(rows)
        vertices = set(hull_from_points(pts).vertices)
        assert vertices == rank_rule_vertices(pts, dim) == \
            set(points_of(rows[:2 ** dim]))


class TestFacetInvariants:
    @pytest.mark.parametrize("p", [cube(3), cross_polytope(3), cyclic(6, 4),
                                   simplex(4)], ids=str)
    def test_supporting_hyperplanes(self, p):
        for f in p.facets:
            sides = [side(f.plane, v) for v in p.vertices]
            assert all(s <= 0 for s in sides)
            on = frozenset(i for i, s in enumerate(sides) if s == 0)
            assert on == f.vertex_set

    @pytest.mark.parametrize("p", [cube(3), cross_polytope(4)], ids=str)
    def test_facet_dimension(self, p):
        for f in p.facets:
            points = [p.vertices[i] for i in f.vertex_set]
            assert affine_dim(points) == p.dim - 1


@st.composite
def near_plane_cases(draw):
    """A hyperplane n.x = c through dim points with big coordinates (up to
    2^200, or past the float range), the planes one unit off it, and a
    plane far off it; points on it (integer affine combinations of the
    dim points) and points of the same size anywhere.  The coordinates
    come from a drawn random generator: drawn directly, big integers are
    mostly small."""
    dim = draw(st.integers(2, 4))
    bits = draw(st.one_of(st.integers(1, 200), st.integers(1025, 1100)))
    rnd = draw(st.randoms(use_true_random=False))

    def big():
        return tuple(rnd.randint(-(1 << bits), 1 << bits) for _ in range(dim))

    base = [big() for _ in range(dim)]
    diffs = [tuple(a - b for a, b in zip(p, base[0])) for p in base[1:]]
    normal = cross_normal(diffs, dim)
    assume(normal is not None)
    offset = dot(normal, base[0])
    on = [tuple(b + sum(rnd.randint(-3, 3) * d[j] for d in diffs)
                for j, b in enumerate(base[0])) for _ in range(6)]
    planes = [(normal, offset + delta)
              for delta in (-1, 0, 1, rnd.randint(-(1 << bits), 1 << bits))]
    return planes, base + on + [big() for _ in range(3)]


class TestPlaneFilter:
    """The hull's final check tests every point against every plane with one
    certified float product; only the cells it leaves open are exact."""

    @given(near_plane_cases())
    @settings(max_examples=300, deadline=None)
    def test_certified_signs_are_exact(self, case):
        # Every sign the filter certifies is the exact sign of n.p - c, so
        # a certified zero is an exact zero.
        planes, pts = case
        signs = _plane_signs(planes, pts)
        for (normal, offset), row in zip(planes, signs.tolist()):
            for p, sign in zip(pts, row):
                if sign == sign:  # certified
                    value = dot(normal, p) - offset
                    assert sign == (value > 0) - (value < 0), (sign, value)

    def test_every_outcome_occurs(self):
        # Points on a plane through 2^200-sized points, against planes one
        # unit off it, are left open; points pushed along the normal are
        # certified outside or inside.
        base = [(2**200 + 3, 5 * 2**199 - 7, 2**198 + 1),
                (-(2**200) + 11, 2**199 + 2, 3 * 2**199 - 5),
                (7 * 2**197, -(2**200) + 13, -(2**199) - 3)]
        normal = cross_normal([tuple(a - b for a, b in zip(p, base[0]))
                               for p in base[1:]], 3)
        offset = dot(normal, base[0])
        pushed = [tuple(a + k * n for a, n in zip(base[0], normal))
                  for k in (-1, 1)]
        signs = _plane_signs([(normal, offset + delta) for delta in (-1, 0, 1)],
                             base + pushed)
        outcomes = {s if s == s else "open" for s in signs.ravel().tolist()}
        assert outcomes == {-1.0, 1.0, "open"}

    @pytest.mark.parametrize("p", [random_sphere(5, 18), cyclic(15, 6)],
                             ids=["random-sphere-5-18", "cyclic-6-15"])
    def test_exact_products_only_on_planes(self, p, monkeypatch):
        # Every point off a plane is certified strictly inside it, so the
        # exact dot products are the (plane, on-point) incidences.
        pts, mult = integer_scaled(p.vertices)
        simplicial = _simplicial_hull(pts, p.dim)
        calls = []
        idot = _hull._idot
        monkeypatch.setattr(_hull, "_idot",
                            lambda n, q: calls.append(1) or idot(n, q))
        facets = _merge_and_verify(pts, simplicial, mult)
        assert len(calls) == sum(len(on) for _, _, on in facets)
        assert len(calls) < len(facets) * len(pts)

    @pytest.mark.parametrize("digits", [200, 999])
    def test_huge_coordinates_match_oracle(self, digits):
        # Entries past the float range take the filter's slow scaling path.
        pts = points_of(huge_polytope(digits)["vertices"])
        assert canon(incremental_facets(pts, 3)) == \
            canon(brute_force_facets(pts, 3))

    def test_non_supporting_plane_raises(self):
        # A point certified beyond a plane, and a point one unit beyond a
        # plane, which the filter leaves open, both fail the check.
        big = 2 ** 200
        pts = [(0, 0), (big, 0), (0, big)]
        planes = [((0, 1), 0), ((1, 1), big - 1)]
        signs = _plane_signs(planes, pts)
        assert signs[0, 2] == 1 and signs[1, 1] != signs[1, 1]
        for plane in planes:
            with pytest.raises(PolyfaceError, match="non-supporting"):
                _merge_and_verify(pts, [((0, 1), *plane)], 1)
