"""Family generators: closed-form f-vectors, determinism, validation."""
import json
from itertools import combinations
from math import comb

import pytest

from polyface import _hull
from polyface.cli import main
from polyface.errors import BadSpecError
from polyface.generators import (
    FamilySpec,
    cross_polytope,
    cube,
    cyclic,
    generate,
    prism,
    pyramid,
    random_sphere,
    simplex,
)


def gale_evenness_facets(n: int, d: int) -> list[tuple[int, ...]]:
    """Facets of the cyclic polytope by the evenness criterion: a d-subset
    S of {0..n-1} is a facet iff any two elements outside S have an even
    number of elements of S between them."""
    facets = []
    for combo in combinations(range(n), d):
        inside = set(combo)
        outside = [i for i in range(n) if i not in inside]
        ok = True
        for a, b in combinations(outside, 2):
            between = sum(1 for s in combo if a < s < b)
            if between % 2 == 1:
                ok = False
                break
        if ok:
            facets.append(combo)
    return facets


class TestClosedForms:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_simplex(self, d):
        fv = simplex(d).f_vector()
        for k in range(d):
            assert fv.count(k) == comb(d + 1, k + 1)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cube(self, d):
        fv = cube(d).f_vector()
        for k in range(d):
            assert fv.count(k) == 2 ** (d - k) * comb(d, k)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cross(self, d):
        fv = cross_polytope(d).f_vector()
        for k in range(d):
            assert fv.count(k) == 2 ** (k + 1) * comb(d, k + 1)

    def test_cross_four_exact(self):
        assert tuple(cross_polytope(4).f_vector().counts) == (8, 24, 32, 16)


class TestCyclic:
    @pytest.mark.parametrize("n,d", [(6, 4), (7, 4), (8, 4), (6, 3), (8, 5)])
    def test_facets_match_evenness_criterion(self, n, d):
        p = cyclic(n, d)
        got = sorted(tuple(sorted(f.vertex_set)) for f in p.facets)
        expected = sorted(gale_evenness_facets(n, d))
        assert got == expected

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_neighborly_in_dim_four(self, n):
        assert cyclic(n, 4).f_vector().count(1) == comb(n, 2)

    def test_six_four_f_vector(self):
        assert tuple(cyclic(6, 4).f_vector().counts) == (6, 15, 18, 9)

    def test_needs_more_points_than_dim(self):
        with pytest.raises(BadSpecError):
            FamilySpec("cyclic", 4, n=4)


class TestPyramidPrism:
    def test_pyramid_over_square(self):
        assert tuple(pyramid(cube(2)).f_vector().counts) == (5, 8, 5)

    def test_prism_over_triangle(self):
        assert tuple(prism(simplex(2)).f_vector().counts) == (6, 9, 5)

    def test_pyramid_over_point_is_segment(self):
        from polyface.polytope import hull_from_points
        point = hull_from_points([(0,)])
        seg = pyramid(point)
        assert seg.dim == 1 and seg.n_vertices == 2

    def test_dimensions_increase(self):
        p = cube(2)
        assert pyramid(p).dim == 3
        assert prism(p).dim == 3


def facet_data(p):
    return (p.vertices, [(f.vertex_set, f.plane.normal, f.plane.offset)
                         for f in p.facets], p.ambient_vertices(), p.form,
            tuple(p.f_vector().counts))


def count_hulls(monkeypatch):
    calls = []
    hull = _hull.incremental_facets
    monkeypatch.setattr(_hull, "incremental_facets",
                        lambda *args: calls.append(1) or hull(*args))
    return calls


class TestFamilyPath:
    """generate() builds the pyramid and prism families straight from the
    base's vertex list, with no hull of the base; the result must equal
    pyramid() and prism() over the base's own hull."""

    @pytest.mark.parametrize("d", range(2, 7))
    def test_pyramid_equals_pyramid_over_cube(self, d):
        assert facet_data(generate(FamilySpec("pyramid", d))) == \
            facet_data(pyramid(cube(d - 1)))

    @pytest.mark.parametrize("d", range(2, 8))
    def test_prism_equals_prism_over_simplex(self, d):
        assert facet_data(generate(FamilySpec("prism", d))) == \
            facet_data(prism(simplex(d - 1)))

    @pytest.mark.parametrize("family", ["pyramid", "prism"])
    def test_one_hull(self, family, monkeypatch):
        calls = count_hulls(monkeypatch)
        generate(FamilySpec(family, 5))
        assert len(calls) == 1
        base = cube(4) if family == "pyramid" else simplex(4)
        (pyramid if family == "pyramid" else prism)(base)
        assert len(calls) == 3  # the base's hull, then the polytope's

    def test_pyramid_past_the_point_guard(self, capsys):
        # cube(6) has 64 vertices, the most a hull takes; its pyramid has 65.
        assert main(["gen", "--family", "pyramid", "--dim", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "TooLargeError",
            "message": "65 points exceeds the guard of 64"}
        assert captured.err.count("\n") == 1


class TestRandomSphere:
    def test_deterministic(self):
        a = random_sphere(3, 10, seed=7)
        b = random_sphere(3, 10, seed=7)
        assert a.vertices == b.vertices
        assert [f.vertex_set for f in a.facets] == [f.vertex_set for f in b.facets]

    def test_different_seeds_differ(self):
        a = random_sphere(3, 10, seed=1)
        b = random_sphere(3, 10, seed=2)
        assert a.vertices != b.vertices

    @pytest.mark.parametrize("seed", range(4))
    def test_valid_polytopes(self, seed):
        p = random_sphere(4, 10, seed=seed)
        p.f_vector()  # Euler asserted
        assert p.dim == 4


class TestGenerate:
    def test_dispatch(self):
        p = generate(FamilySpec("cross", 3))
        assert tuple(p.f_vector().counts) == (6, 12, 8)

    def test_generate_deterministic(self):
        s = FamilySpec("random-sphere", 3, n=9, seed=11)
        assert generate(s).vertices == generate(s).vertices

    def test_unknown_family(self):
        with pytest.raises(BadSpecError):
            FamilySpec("zonotope", 3)

    def test_bad_dim(self):
        with pytest.raises(BadSpecError):
            FamilySpec("cube", 0)
