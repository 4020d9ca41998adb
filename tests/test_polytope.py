"""Polytope construction details: flags, facet polytopes, serialization."""
import json
from fractions import Fraction

import pytest

from polyface.errors import NotAFaceError, OutOfRangeError, TooLargeError
from polyface.exact import wdot
from polyface.generators import cross_polytope, cube, cyclic, pyramid, simplex
from polyface.polytope import (
    MAX_COORD_DIGITS,
    hull_from_points,
    polytope_from_json,
    polytope_to_json,
)

from test_angles import facet_as_polytope
from test_exact import side


def contains(p, point):
    """Exact membership test in p's intrinsic coordinates."""
    return all(side(f.plane, point) <= 0 for f in p.facets)


class TestFlags:
    def test_cube_simple_not_simplicial(self):
        p = cube(3)
        assert p.is_simple() and not p.is_simplicial()

    def test_octahedron_simplicial_not_simple(self):
        p = cross_polytope(3)
        assert p.is_simplicial() and not p.is_simple()

    def test_square_pyramid_neither(self):
        p = pyramid(cube(2))
        assert not p.is_simple() and not p.is_simplicial()

    def test_simplex_both(self):
        p = simplex(4)
        assert p.is_simple() and p.is_simplicial()


class TestMemo:
    def test_face_lattice_cached(self):
        p = cyclic(7, 4)
        assert p.face_lattice() is p.face_lattice()

    def test_failed_build_is_not_stored(self):
        p = cube(2)
        calls = []

        def failing():
            calls.append(1)
            raise ValueError("no value")

        for _ in range(2):
            with pytest.raises(ValueError):
                p.memo("failing", failing)
        assert len(calls) == 2
        assert p.memo("failing", lambda: 7) == 7
        assert p.memo("failing", failing) == 7 and len(calls) == 2


class TestFaceQueries:
    def test_is_face(self):
        p = cube(2)
        assert p.require_face(frozenset([0])).dim == 0
        assert p.require_face(frozenset(range(4))).dim == 2
        edges = [f.vertex_set for f in p.facets]
        lattice_edges = p.face_lattice().faces_of_dim(1)
        for e in edges:
            assert any(p.require_face(e) is f for f in lattice_edges)
        diagonal = next(
            frozenset([0, j]) for j in range(1, 4)
            if frozenset([0, j]) not in edges
        )
        with pytest.raises(NotAFaceError):
            p.require_face(diagonal)
        with pytest.raises(NotAFaceError):
            p.require_face(frozenset([4]))

    def test_require_face_rejects_empty(self):
        with pytest.raises(NotAFaceError):
            cube(2).require_face(frozenset())

    def test_contains(self):
        p = cube(2)
        inside = (Fraction(1, 2), Fraction(1, 2))
        assert contains(p, inside)
        assert contains(p, (Fraction(0), Fraction(0)))
        assert not contains(p, (Fraction(2), Fraction(0)))


class TestFacetAsPolytope:
    def test_cube_facet_is_unit_square(self):
        p = cube(3)
        fp = facet_as_polytope(p, 0)
        assert fp.dim == 2 and fp.ambient_dim == 3
        assert tuple(fp.f_vector().counts) == (4, 4)

    def test_simplex_facet_is_lower_simplex(self):
        fp = facet_as_polytope(simplex(4), 0)
        assert fp.dim == 3
        assert tuple(fp.f_vector().counts) == (4, 6, 4)

    def test_cyclic_facet_is_tetrahedron(self):
        p = cyclic(6, 4)
        for i in range(p.n_facets):
            assert len(p.facets[i].vertex_set) == 4
        fp = facet_as_polytope(p, 0)
        assert fp.dim == 3 and fp.n_vertices == 4

    def test_index_out_of_range(self):
        for index in (-1, 6, 99):
            with pytest.raises(OutOfRangeError):
                facet_as_polytope(cube(3), index)

    def test_cached_on_the_polytope(self):
        p = cube(3)
        assert facet_as_polytope(p, 2) is facet_as_polytope(p, 2)
        assert facet_as_polytope(p, 2) is not facet_as_polytope(p, 3)

    def test_metric_preserves_lengths(self):
        # Squared edge lengths measured in the facet's intrinsic
        # coordinates (with its metric) match the parent coordinates.
        p = cross_polytope(3)
        fp = facet_as_polytope(p, 0)
        parent_pts = [p.vertices[i] for i in sorted(p.facets[0].vertex_set)]
        ones = tuple(Fraction(1) for _ in range(p.dim))
        for i in range(3):
            for j in range(i + 1, 3):
                d_parent = tuple(a - b for a, b in zip(parent_pts[i], parent_pts[j]))
                d_child = tuple(a - b for a, b in zip(fp.vertices[i], fp.vertices[j]))
                assert wdot(d_parent, d_parent, ones) == \
                    wdot(d_child, d_child, fp.metric)

    def test_embedding_round_trip(self):
        p = cross_polytope(3)
        fp = facet_as_polytope(p, 0)
        originals = [p.vertices[i] for i in sorted(p.facets[0].vertex_set)]
        for intrinsic, original in zip(fp.vertices, originals):
            assert fp.embedding.apply(intrinsic) == original


class TestSerialization:
    def test_round_trip(self):
        p = cyclic(6, 3)
        data = polytope_to_json(p)
        q = polytope_from_json(data)
        assert q.n_vertices == p.n_vertices
        assert tuple(q.f_vector().counts) == tuple(p.f_vector().counts)

    def test_scalar_format(self):
        p = hull_from_points([("1/2", 0), (1, 0), (0, 1)])
        text = json.dumps(polytope_to_json(p))
        assert "1/2" in text

    def test_facets_recomputed_not_trusted(self):
        data = polytope_to_json(cube(2))
        data["vertices"].append(["1/2", "1/2"])  # interior: must vanish
        q = polytope_from_json(data)
        assert q.n_vertices == 4

    def test_restricted_polytope_serializes_in_ambient(self):
        p = hull_from_points([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
        data = polytope_to_json(p)
        assert data["ambient_dim"] == 3
        assert all(row[2] == "1" for row in data["vertices"])
        q = polytope_from_json(data)
        assert q.dim == 2 and q.n_vertices == 4

    def test_integer_coordinates_past_the_digit_cap_are_refused(self):
        # As with strings: a 1,000-digit integer is read, a longer one is
        # refused before the hull ever sees it.
        top = 10**MAX_COORD_DIGITS
        def segment(end):
            return polytope_from_json({"ambient_dim": 1,
                                       "vertices": [[0], [end]]})

        assert segment(top - 1).vertices[1] == (top - 1,)
        for huge in (top, -top, 7 * 10**3999):
            with pytest.raises(TooLargeError):
                segment(huge)
