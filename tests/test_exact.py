"""Exact linear algebra: ranks, affine dimensions, null spaces."""
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyface.errors import MixedDimensionsError, ZeroVectorError
from polyface.exact import (
    Hyperplane,
    affine_dim,
    echelon,
    integer_scaled,
    primitive,
    rank,
    vector,
)
from polyface.polytope import (
    hull_from_points,
    polytope_from_json,
    polytope_to_json,
)


def dot(u, v):
    """The exact dot product of two equally long vectors: an int for ints,
    a Fraction for Fractions."""
    if len(u) != len(v):
        raise MixedDimensionsError(f"dot of dim {len(u)} with dim {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def side(plane, point):
    """Which side of an outward hyperplane a point is on: -1 strictly
    inside, 0 on it, +1 strictly outside."""
    value = dot(plane.normal, point) - plane.offset
    return (value > 0) - (value < 0)


def vecs(*rows):
    return [vector(r) for r in rows]


def null_space(rows, dim):
    """Basis of {x : r . x = 0 for every row r}, as primitive integer
    vectors.  One per free (non-pivot) column c of echelon's reduced rows:
    D at c, minus row i's entry at c at pivot i, and 0 elsewhere, made
    primitive with a positive entry at c.  The reduced row echelon form is
    unique, so the basis is too.  The hull's seed-facet oracle
    (``test_hull.cross_normal``) takes its normals from this."""
    reduced, pivots = echelon(integer_scaled(rows)[0])
    common = reduced[0][pivots[0]] if pivots else 1
    sign = 1 if common > 0 else -1
    basis = []
    for free in range(dim):
        if free in pivots:
            continue
        vec = [0] * dim
        vec[free] = common
        for row, p in zip(reduced, pivots):
            vec[p] = -row[free]
        g = gcd(*vec) * sign
        basis.append(tuple(c // g for c in vec))
    return basis


def span_basis(rows):
    """A subset of the given rows forming a basis of their span: each row
    that is independent of the rows before it (the pivot columns of the
    transposed matrix).  The diagram's test oracles take their faces' span
    bases from this."""
    if not rows:
        return []
    return [rows[i] for i in echelon(list(zip(*integer_scaled(rows)[0])))[1]]


class TestRank:
    def test_identity_rows(self):
        assert rank(vecs((1, 0), (0, 1))) == 2

    def test_proportional_rows(self):
        assert rank(vecs((1, 2), (2, 4))) == 1

    def test_dependent_three_by_three(self):
        # Third row is 2*(second) - (first): rank 2 by hand row reduction.
        assert rank(vecs((1, 2, 3), (4, 5, 6), (7, 8, 9))) == 2

    def test_empty(self):
        assert rank([]) == 0

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(MixedDimensionsError):
            rank(vecs((1, 0), (1, 0, 0)))

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=1, max_size=5),
           st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_scaling_and_swaps(self, rows, scale):
        base = [vector(r) for r in rows]
        scaled = [vector([scale * c for c in rows[0]])] + base[1:]
        assert rank(base) == rank(scaled)
        assert rank(base) == rank(list(reversed(base)))


class TestAffineDim:
    def test_empty_is_minus_one(self):
        assert affine_dim([]) == -1

    def test_single_point(self):
        assert affine_dim(vecs((3, 4))) == 0

    def test_collinear(self):
        assert affine_dim(vecs((0, 0), (1, 0), (2, 0))) == 1

    def test_triangle(self):
        assert affine_dim(vecs((0, 0), (1, 0), (0, 1))) == 2

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                    min_size=1, max_size=6),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_subset_monotone(self, rows, data):
        pts = [vector(r) for r in rows]
        k = data.draw(st.integers(1, len(pts)))
        assert affine_dim(pts[:k]) <= affine_dim(pts)


class TestSolvers:
    def test_null_space_of_plane(self):
        ns = null_space(vecs((1, 2, 3)), 3)
        assert len(ns) == 2
        assert all(dot(n, vector((1, 2, 3))) == 0 for n in ns)
        # One vector per free column, positive there: the basis is canonical.
        assert ns == [(-2, 1, 0), (-3, 0, 1)]
        assert null_space(vecs((-2, 0, 4)), 3) == [(0, 1, 0), (2, 0, 1)]

    def test_null_space_empty_rows(self):
        ns = null_space([], 2)
        assert len(ns) == 2

    def test_span_basis(self):
        rows = vecs((1, 0, 0), (2, 0, 0), (0, 1, 0))
        basis = span_basis(rows)
        assert basis == [rows[0], rows[2]]


# -- oracles independent of the elimination kernel ---------------------------


def leibniz_det(m):
    """Determinant as the signed sum over permutations."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j]
                           for i in range(n) for j in range(i + 1, n))
        for i, p in enumerate(perm):
            term *= m[i][p]
        total += term
    return total


def minor_rank(rows, ncols):
    """Rank as the size of the largest nonzero minor."""
    for k in range(min(len(rows), ncols), 0, -1):
        for ri in combinations(range(len(rows)), k):
            for ci in combinations(range(ncols), k):
                if leibniz_det([[rows[i][j] for j in ci] for i in ri]):
                    return k
    return 0


ENTRY = st.one_of(st.just(0), st.integers(-3, 3),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4))


def matrices():
    """(rows, ncols): up to 4 rows of 1 to 4 entries, many of them zero or
    repeated, so that rank deficiency is common."""
    return st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(ENTRY, min_size=n, max_size=n).map(vector),
                 min_size=0, max_size=4),
        st.just(n)))


def is_primitive(v):
    return all(isinstance(c, int) for c in v) and gcd(*v) == 1


class TestKernelOracles:
    @given(matrices())
    @settings(max_examples=200, deadline=None)
    def test_rank_is_largest_nonzero_minor(self, case):
        rows, n = case
        assert rank(rows) == minor_rank(rows, n)

    @given(matrices())
    @settings(max_examples=200, deadline=None)
    def test_null_space_primitive_orthogonal_and_complete(self, case):
        rows, n = case
        ns = null_space(rows, n)
        assert len(ns) == n - minor_rank(rows, n)
        assert minor_rank(ns, n) == len(ns)
        for v in ns:
            assert is_primitive(v)
            assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)

    @given(matrices())
    @settings(max_examples=200, deadline=None)
    def test_span_basis_is_independent_and_spans(self, case):
        rows, n = case
        basis = span_basis(rows)
        assert all(b in rows for b in basis)
        assert minor_rank(basis, n) == len(basis)
        for r in rows:
            assert minor_rank(basis + [r], n) == len(basis)

    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d)
                 .map(tuple), min_size=d - 1, max_size=d - 1),
        st.just(d))))
    @settings(max_examples=200, deadline=None)
    def test_cross_normal(self, case):
        # test_hull imports this module, so its oracle is imported here.
        from test_hull import cross_normal
        diffs, d = case
        normal = cross_normal(diffs, d)
        if minor_rank(diffs, d) < d - 1:
            assert normal is None
            return
        assert normal is not None and is_primitive(normal)
        assert all(sum(a * b for a, b in zip(r, normal)) == 0 for r in diffs)

    @given(st.integers(1, 4).flatmap(lambda m: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                 min_size=m, max_size=m),
        st.lists(st.integers(-5, 5), min_size=m, max_size=m))))
    @settings(max_examples=200, deadline=None)
    def test_augmented_solve_is_cramer(self, case):
        a, b = case
        m = len(a)
        reduced, pivots = echelon([row + [x] for row, x in zip(a, b)])
        det = leibniz_det(a)
        assert (pivots == list(range(m))) == (det != 0)
        if det == 0:
            return
        # D * [I | x] with D = +-det A; flipping to a positive D must give
        # exactly Cramer's (|det A|, sign(det A) * det A_j).
        den = reduced[0][0]
        assert all(reduced[i][j] == (den if i == j else 0)
                   for i in range(m) for j in range(m))
        nums = [row[m] for row in reduced]
        if den < 0:
            den, nums = -den, [-x for x in nums]
        sign = 1 if det > 0 else -1
        cramer = [sign * leibniz_det([row[:j] + [x] + row[j + 1:]
                                      for row, x in zip(a, b)])
                  for j in range(m)]
        assert (den, nums) == (abs(det), cramer)


class TestScalarsAndPlanes:
    def test_scalar_round_trip(self):
        rows = [["3/2", "-7/3"], ["5", "0"], ["0", "0"]]
        data = polytope_to_json(hull_from_points(rows))
        assert data["vertices"] == rows
        assert polytope_to_json(polytope_from_json(data)) == data

    def test_scalar_converts_floats_exactly(self):
        assert vector((0.1,)) == (Fraction(0.1),)
        assert vector((0.1,)) != (Fraction(1, 10),)
        assert vector((0.375,)) == (Fraction(3, 8),)

    def test_primitive(self):
        assert primitive(vector((Fraction(1, 2), Fraction(3, 4)))) == vector((2, 3))
        assert primitive(vector((-2, 4))) == vector((-1, 2))

    def test_hyperplane_sides(self):
        plane = Hyperplane(vector((1, 0)), Fraction(1))
        assert side(plane, vector((0, 5))) == -1
        assert side(plane, vector((1, -2))) == 0
        assert side(plane, vector((2, 0))) == 1
        assert side(plane, vector((1, 7))) == 0

    def test_hyperplane_zero_normal_rejected(self):
        with pytest.raises(ZeroVectorError):
            Hyperplane(vector((0, 0)), Fraction(1))
