"""Polytope construction details: flags, facet polytopes, serialization."""
import json
from fractions import Fraction
from math import gcd

import pytest

from polyface.errors import NotAFaceError, OutOfRangeError, TooLargeError
from polyface.exact import rank, vector
from polyface.generators import cross_polytope, cube, cyclic, pyramid, simplex
from polyface.polytope import (
    MAX_COORD_DIGITS,
    hull_from_points,
    polytope_from_json,
    polytope_to_json,
)

from corpus import restricted_tetrahedron
from test_angles import facet_as_polytope
from test_exact import dot, side
from test_hull import TETRAHEDRON_31


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
        # a^T W b, over every pair of facet normals a and b, is one positive
        # multiple of the Euclidean products of the ambient gradients they
        # define on the affine hull, computed here in Fractions.  W is a
        # primitive symmetric integer form, the identity at full dimension.
        for points in restricted_inputs():
            p = hull_from_points(points)
            k = p.dim
            assert all(len(row) == k for row in p.form)
            assert all(p.form[i][j] == p.form[j][i]
                       for i in range(k) for j in range(k))
            assert gcd(*(c for row in p.form for c in row)) == 1
            gradients = [ambient_gradient(points, pivot_columns(points),
                                          f.plane.normal) for f in p.facets]
            normals = [f.plane.normal for f in p.facets]
            products = [[sum(x * w * y for row, x in zip(p.form, a)
                             for w, y in zip(row, b)) for b in normals]
                        for a in normals]
            euclidean = [[dot(u, v) for v in gradients] for u in gradients]
            ratio = products[0][0] / euclidean[0][0]
            assert ratio > 0 and products == [[ratio * x for x in row]
                                              for row in euclidean]
        assert cross_polytope(3).form == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_embedding_round_trip(self):
        # The ambient vertices are the input points, and the intrinsic ones
        # their coordinates at the pivot columns of the edge rows.
        for points in restricted_inputs():
            p = hull_from_points(points)
            pivots = pivot_columns(points)
            assert len(pivots) == p.dim < p.ambient_dim
            assert p.ambient_vertices() == tuple(points)
            assert p.vertices == tuple(tuple(v[c] for c in pivots)
                                       for v in points)


def restricted_inputs():
    """A cross-3 facet, the 3-cube tilted into R^4, whose pivot columns
    0, 2, 3 are not the indices of its first independent edges, and two
    tetrahedra in R^4 at 31-digit coordinates, each a list of exact points
    that are all vertices."""
    octahedron = cross_polytope(3)
    facet = [octahedron.ambient_vertices()[i]
             for i in sorted(octahedron.facets[0].vertex_set)]
    tilted = [(x * 3 / 5, x * 4 / 5, y, z) for x, y, z in cube(3).vertices]
    return [facet, tilted, [vector(v) for v in TETRAHEDRON_31],
            [vector(v) for v in restricted_tetrahedron(31)["vertices"]]]


def pivot_columns(points):
    """The columns at which the points' edges from the first point first
    gain rank, left to right."""
    edges = [tuple(a - b for a, b in zip(p, points[0])) for p in points[1:]]
    pivots = []
    for c in range(len(points[0])):
        if rank([[e[i] for i in pivots + [c]] for e in edges]) > len(pivots):
            pivots.append(c)
    return pivots


def ambient_gradient(points, pivots, a):
    """The vector u in the span of the points' edges with u . e = a . e_S
    for every edge e: the gradient of y -> a . y_S on their affine hull.
    Found by Gauss-Jordan elimination of the Gram system of an edge basis,
    in Fractions."""
    basis = []
    for p in points[1:]:
        e = tuple(x - y for x, y in zip(p, points[0]))
        if rank(basis + [e]) > len(basis):
            basis.append(e)
    system = [[dot(e, f) for f in basis] + [sum(a_i * e[c] for a_i, c in
                                                zip(a, pivots))]
              for e in basis]
    n = len(basis)
    for col in range(n):
        pivot = next(r for r in range(col, n) if system[r][col])
        system[col], system[pivot] = system[pivot], system[col]
        head = system[col]
        system = [row if r == col else
                  [x - row[col] / head[col] * y for x, y in zip(row, head)]
                  for r, row in enumerate(system)]
    coefficients = [row[n] / row[i] for i, row in enumerate(system)]
    return tuple(sum(t * e[i] for t, e in zip(coefficients, basis))
                 for i in range(len(points[0])))


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
