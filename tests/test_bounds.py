"""Exact face-count bounds: values, equality classification, comparators."""
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyface.bounds import (
    few_vertex_bound,
    few_vertex_check,
    min_face_check,
    ratio_bound,
    unimodality_check,
    verify_main_bounds,
)
from polyface.errors import OutOfRangeError
from polyface.generators import (
    cross_polytope,
    cube,
    cyclic,
    prism,
    pyramid,
    simplex,
)


def binomial_convexity_check(a: int, b: int, c: int) -> bool:
    """True iff C(a,c) + C(b,c) >= C(ceil((a+b)/2), c) + C(floor((a+b)/2), c),
    which holds for all nonnegative integers: the convexity behind
    ratio_bound's balanced split."""
    lhs = comb(a, c) + comb(b, c)
    rhs = comb((a + b + 1) // 2, c) + comb((a + b) // 2, c)
    return lhs >= rhs


class TestRatioBound:
    @pytest.mark.parametrize("d", range(1, 21))
    def test_k_zero_and_one(self, d):
        assert ratio_bound(d, 0) == 1
        if d >= 2:
            assert ratio_bound(d, 1) == Fraction(d, 2)

    def test_middle_odd(self):
        # Odd d at k = (d-1)/2 evaluates to k/2 + 1.
        assert ratio_bound(5, 2) == 2
        for d in range(3, 20, 2):
            k = (d - 1) // 2
            assert ratio_bound(d, k) == Fraction(k, 2) + 1

    def test_even_middle(self):
        assert ratio_bound(4, 2) == 1  # (C(2,2) + C(2,2)) / 2

    @pytest.mark.parametrize("d", range(1, 15))
    def test_zero_exactly_above_half(self, d):
        for k in range(d):
            if k > (d + 1) // 2:
                assert ratio_bound(d, k) == 0
            else:
                assert ratio_bound(d, k) > 0

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            ratio_bound(3, 3)
        with pytest.raises(OutOfRangeError):
            ratio_bound(3, -1)


class TestConvexity:
    def test_examples(self):
        assert binomial_convexity_check(4, 0, 2)  # 6 + 0 >= 1 + 1
        assert binomial_convexity_check(3, 3, 2)  # equal split
        assert binomial_convexity_check(3, 2, 1)  # 5 = 5

    @given(st.integers(0, 25), st.integers(0, 25), st.integers(0, 25))
    @settings(max_examples=200, deadline=None)
    def test_always_true(self, a, b, c):
        assert binomial_convexity_check(a, b, c)


class TestMainBounds:
    def test_cube_equality_pattern(self):
        report = verify_main_bounds(cube(3))
        row1 = report.rows[1]
        assert row1.ratio_to_vertices == Fraction(3, 2) == row1.bound_vertices
        assert row1.equality_vertices and report.simple

    def test_octahedron_equality_pattern(self):
        report = verify_main_bounds(cross_polytope(3))
        row1 = report.rows[1]
        assert row1.ratio_to_facets == Fraction(3, 2) == row1.bound_facets
        assert row1.equality_facets and report.simplicial
        eq_f = [r.k for r in report.rows if r.equality_facets]
        assert eq_f == [1, 2]  # k = d-2 (simplicial) and k = d-1 (trivial)
        eq_v = [r.k for r in report.rows if r.equality_vertices]
        assert eq_v == [0]

    def test_cyclic_strict(self):
        report = verify_main_bounds(cyclic(6, 4))
        row1 = report.rows[1]
        assert row1.ratio_to_vertices == Fraction(15, 6) > row1.bound_vertices
        assert not row1.equality_vertices

    @pytest.mark.parametrize("p", [
        simplex(1), simplex(4), cube(4), cross_polytope(4), cyclic(7, 4),
        pyramid(cube(2)), prism(simplex(2)),
    ], ids=str)
    def test_all_ok_and_predictions_match(self, p):
        assert verify_main_bounds(p).all_ok()


class TestMinFace:
    def test_cube(self):
        assert min_face_check(cube(3)).ok

    def test_simplex(self):
        assert min_face_check(simplex(3)).ok

    def test_cyclic_refined_ranges(self):
        rep = min_face_check(cyclic(6, 4))
        assert rep.ok
        rows = {r["k"]: r for r in rep.rows}
        assert rows[1]["above_vertices"] is True   # k <= floor(d/2)
        assert rows[2]["above_vertices"] is True
        assert rows[2]["above_facets"] is True     # k >= ceil(d/2) - 1
        assert rows[0]["above_facets"] is None     # outside the refined range


class TestFewVertex:
    def test_simplex_tight(self):
        # s = 1 collapses the last two terms.
        for d in (3, 4, 5):
            for k in range(d):
                assert few_vertex_bound(d, 1, k) == \
                    __import__("math").comb(d + 1, k + 1)
        rep = few_vertex_check(simplex(4))
        assert rep["applicable"] and rep["ok"]
        assert all(r["f_k"] == r["bound"] for r in rep["rows"])

    def test_specific_value(self):
        assert few_vertex_bound(4, 2, 1) == 13  # 10 + 6 - 3

    def test_cube_not_applicable(self):
        rep = few_vertex_check(cube(3))  # f_0 = 8 > 2*3
        assert rep["applicable"] is False

    def test_cross_applicable(self):
        rep = few_vertex_check(cross_polytope(4))  # f_0 = 8 = 2d
        assert rep["applicable"] and rep["ok"]

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            few_vertex_bound(3, 4, 1)


class TestUnimodality:
    def test_cross_four(self):
        rep = unimodality_check(cross_polytope(4))
        assert rep["applicable"] and rep["ok"]

    def test_cube_simple_chains(self):
        rep = unimodality_check(cube(3))
        assert rep["applicable"] and rep["ok"] and rep["simple"]

    def test_square_pyramid_not_applicable(self):
        rep = unimodality_check(pyramid(cube(2)))
        assert rep["applicable"] is False

    def test_polygon_not_applicable(self):
        # The strictly decreasing tail is empty-to-false for polygons.
        assert unimodality_check(cube(2))["applicable"] is False

    @pytest.mark.parametrize("p", [simplex(5), cube(5), cross_polytope(5),
                                   cyclic(8, 4)], ids=str)
    def test_higher_dims(self, p):
        rep = unimodality_check(p)
        assert rep["applicable"] and rep["ok"]


class TestBoundTriggers:
    @pytest.mark.parametrize("d", range(1, 12))
    def test_minimum_rule_trigger_ranges(self, d):
        # The ranges in which each ratio bound is at least 1, making the
        # minimum face-count rule a direct consequence.
        for k in range(d):
            if k <= d // 2:
                assert ratio_bound(d, k) >= 1
            if k >= (d + 1) // 2 - 1:
                assert ratio_bound(d, d - k - 1) >= 1
