"""Facet enumeration: the incremental hull against the brute-force oracle."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyface._hull import brute_force_facets, incremental_facets
from polyface.errors import EmptyInputError, TooLargeError
from polyface.exact import affine_dim, vector
from polyface.generators import cross_polytope, cube, cyclic, simplex
from polyface.polytope import hull_from_points


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

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                              st.integers(-4, 4)),
                    min_size=4, max_size=9, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_random_integer_points(self, rows):
        pts = points_of(rows)
        assume(affine_dim(pts) == 3)
        assert canon(incremental_facets(pts, 3)) == \
            canon(brute_force_facets(pts, 3))

    def test_three_cube_has_six_facets(self):
        # Independent support-hyperplane enumeration agrees.
        oracle = brute_force_facets(points_of(CUBE3), 3)
        assert len(oracle) == 6
        assert len(incremental_facets(points_of(CUBE3), 3)) == 6


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


class TestFacetInvariants:
    @pytest.mark.parametrize("p", [cube(3), cross_polytope(3), cyclic(6, 4),
                                   simplex(4)], ids=str)
    def test_supporting_hyperplanes(self, p):
        for f in p.facets:
            sides = [f.plane.side(v) for v in p.vertices]
            assert all(s <= 0 for s in sides)
            on = frozenset(i for i, s in enumerate(sides) if s == 0)
            assert on == f.vertex_set

    @pytest.mark.parametrize("p", [cube(3), cross_polytope(4)], ids=str)
    def test_facet_dimension(self, p):
        for f in p.facets:
            assert p.face_dim(f.vertex_set) == p.dim - 1
