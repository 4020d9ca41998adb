"""Projections: general-position directions, shadows, diagrams, gap checks."""
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyface import cli, projection
from polyface.errors import DimensionTooLowError, ZeroDotProductError
from polyface.exact import (
    echelon,
    integer_scaled,
    is_zero,
    primitive,
    rank,
    vector,
    vsub,
)
from polyface.generators import (
    cross_polytope,
    cube,
    cyclic,
    prism,
    pyramid,
    simplex,
)
from polyface.lattice import quotient
from polyface.polytope import Polytope, hull_from_points, polytope_from_json
from polyface.projection import (
    DiagramVertex,
    Direction,
    build_shadow_diagram,
    diagram_vertices,
    gap_check,
    sample_direction,
    shadow,
    shadow_boundary_check,
    upper_lower,
)

from corpus import extended_corpus
from record_outputs import WORKLOADS
from test_angles import facet_as_polytope
from test_exact import dot, null_space, side, span_basis
from test_golden import FLAT_HEXAGON, huge_polytope
from test_hull import cross_normal
from test_polytope import contains


# Examples of the diagram's all-pairs property: a few in tier-1, many in
# CI's "Diagram fuzz" step.
DIAGRAM_EXAMPLES = int(os.environ.get("DIAGRAM_EXAMPLES", "30"))


def gp_oracle(p, v):
    """Exhaustive general-position re-check: v must be parallel to no
    affine subspace spanned by any vertex subset of size <= dim."""
    pts = p.vertices
    for size in range(2, p.dim + 1):
        for combo in combinations(range(len(pts)), size):
            base = pts[combo[0]]
            diffs = [vsub(pts[i], base) for i in combo[1:]]
            r = rank(diffs)
            if r < p.dim and rank(diffs + [v]) == r:
                return False
    return True


def spanned_hyperplane_normals(p):
    """Distinct primitive normals of the hyperplanes spanned by dim-subsets
    of the vertices (C(n, dim) subsets).  Every vertex-spanned proper
    subspace extends to one of these hyperplanes, so a direction is in
    general position exactly when it pairs to nonzero with each normal."""
    if p.dim == 1:
        return {(1,)}
    pts, _ = integer_scaled(p.vertices)
    normals = set()
    for combo in combinations(range(p.n_vertices), p.dim):
        base = pts[combo[0]]
        diffs = [tuple(a - b for a, b in zip(pts[i], base)) for i in combo[1:]]
        nrm = cross_normal(diffs, p.dim)
        if nrm is None:
            continue  # does not span a hyperplane; covered by supersets
        if next(c for c in nrm if c != 0) < 0:
            nrm = tuple(-c for c in nrm)
        normals.add(nrm)
    return normals


def pairs_nonzero(normals, v):
    return not is_zero(v) and all(
        sum(a * b for a, b in zip(nrm, v)) != 0 for nrm in normals)


def is_general_position(p, v):
    return pairs_nonzero(spanned_hyperplane_normals(p), v)


def integer_hulls():
    """Hulls of a few small integer points in dimension 2 to 4; lower
    dimensional inputs are restricted to their affine hull."""
    return st.integers(2, 4).flatmap(lambda d: st.lists(
        st.tuples(*[st.integers(-3, 3)] * d),
        min_size=2, max_size=9, unique=True,
    )).map(hull_from_points)


def reference_aff_data(q, face, verts, planes):
    """(base, span basis, hull equations, outside planes) of a face's
    affine hull in the integer-scaled space, by a route that reads neither
    the lattice's incidences nor the facet planes' normals: a greedy basis
    of the vertex differences, their null space for the equations, and a
    subset scan of the facets for the planes of those not containing the
    face."""
    idx = sorted(face.vertex_set)
    base = verts[idx[0]]
    diffs = [tuple(a - b for a, b in zip(verts[i], base)) for i in idx[1:]]
    outside = tuple(t for f, t in zip(q.facets, planes)
                    if not face.vertex_set <= f.vertex_set)
    return (base, tuple(span_basis(diffs)), tuple(null_space(diffs, q.dim)),
            outside)


def all_pairs_diagram_vertices(q, v):
    """Reference for `diagram_vertices`: solve every upper x lower pair of
    complementary dimensions, with no classification or prefilter, and
    test both lifts against every facet."""
    vec = v.v if isinstance(v, Direction) else vector(v)
    complexes = upper_lower(q, vec)
    scale, iverts, planes = projection._int_geometry(q)
    v_int = primitive(vec)
    dim = q.dim
    image, vden = projection._shadow_map(v_int)

    def contains(y, den):
        return all(sum(a * b for a, b in zip(nrm, y)) <= c * den
                   for nrm, c in planes)

    aff = {f: reference_aff_data(q, f, iverts, planes)
           for f in complexes.upper_faces + complexes.lower_faces}
    out = []
    for l_plus in range(dim):
        l_minus = dim - 1 - l_plus
        for x_plus in (f for f in complexes.upper_faces if f.dim == l_plus):
            base_p, span_p, _, _ = aff[x_plus]
            cols = span_p + (v_int,)
            m = len(cols)
            for x_minus in (f for f in complexes.lower_faces
                            if f.dim == l_minus):
                base_m, _, eqs_m, _ = aff[x_minus]
                reduced, pivots = echelon([
                    [sum(a * b for a, b in zip(eq, col)) for col in cols]
                    + [sum(a * (bm - bp) for a, bm, bp in
                           zip(eq, base_m, base_p))]
                    for eq in eqs_m])
                if pivots != list(range(m)):
                    continue
                den = reduced[0][0]
                nums = [row[m] for row in reduced]
                if den < 0:
                    den, nums = -den, [-x for x in nums]
                if nums[-1] > 0:
                    continue  # the upper lift must not sit below the lower
                y_plus = [den * c for c in base_p]
                for coeff, b in zip(nums[:-1], span_p):
                    y_plus = [y + coeff * bj for y, bj in zip(y_plus, b)]
                y_minus = [y + nums[-1] * vj for y, vj in zip(y_plus, v_int)]
                if not (contains(y_plus, den) and contains(y_minus, den)):
                    continue
                point = tuple(Fraction(c, den * vden * scale)
                              for c in image(y_plus))
                out.append(DiagramVertex(point, x_plus, x_minus,
                                         l_plus, l_minus, nums[-1] < 0))
    return tuple(out)


def shared_vertex_pairs(q, v, shared=1):
    """(pairs, singular): the upper x lower pairs of complementary
    dimensions that share exactly `shared` vertices, and how many of them
    have a singular system, by exact rank."""
    complexes = upper_lower(q, v)
    _, iverts, planes = projection._int_geometry(q)
    v_int = primitive(v.v)
    aff = {f: reference_aff_data(q, f, iverts, planes)
           for f in complexes.upper_faces + complexes.lower_faces}
    pairs = singular = 0
    for x_plus in complexes.upper_faces:
        _, span_p, _, _ = aff[x_plus]
        cols = span_p + (v_int,)
        for x_minus in complexes.lower_faces:
            if (x_plus.dim + x_minus.dim != q.dim - 1
                    or len(x_plus.vertex_set & x_minus.vertex_set)
                    != shared):
                continue
            _, _, eqs_m, _ = aff[x_minus]
            rows = [[sum(a * b for a, b in zip(eq, col)) for col in cols]
                    for eq in eqs_m]
            pairs += 1
            singular += len(echelon(rows)[1]) < len(cols)
    return pairs, singular


# An integer map of R^5 that keeps pyramid(cube(4)) full-dimensional but
# puts none of its faces parallel to a coordinate hyperplane.
PYRAMID_IMAGE = [[2, 1, 0, 1, 0], [1, 3, 1, 0, 0], [0, 1, 2, 1, 1],
                 [1, 0, 1, 3, 0], [0, 1, 0, 1, 2]]


def linear_image(a, p):
    """The hull of the images of p's vertices under the integer matrix a."""
    return hull_from_points([vector([idot(row, x) for row in a])
                             for x in p.vertices])


def signed_det(rows):
    """Exact determinant by fraction-free (Bareiss) elimination, with the
    row swaps counted."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def idot(a, b):
    return sum(x * y for x, y in zip(a, b))


@st.composite
def filter_systems(draw):
    """One disjoint pair's data for the float filter, as integers: the
    upper face's span rows and base point, the lower face's hull
    equations and base point, a direction v with entries up to 2^4000, and
    a few facet rows (den a, -num).  Other entries reach 2^200.  Most
    systems are made singular or nearly so: a column or an equation that
    is a combination of the others, a right-hand side in the column space
    (a zero step), or sparse rows with structural zeros, each perturbed by
    one unit or not."""
    dim = draw(st.integers(2, 6))
    m = draw(st.integers(1, min(dim, 5)))
    entry = st.one_of(st.integers(-2**200, 2**200), st.integers(-3, 3))
    coeff = st.integers(-2**40, 2**40)

    def vec(elements=entry):
        return [draw(elements) for _ in range(dim)]

    cols = [vec() for _ in range(m - 1)]
    cols.append(vec(st.one_of(st.integers(-2**4000, 2**4000), entry)))
    eqs = [vec() for _ in range(m)]
    base_u, step = vec(), vec()
    kind = draw(st.sampled_from(["free", "column", "equation", "through",
                                 "sparse"]))

    def combination(rows):
        cs = [draw(coeff) for _ in rows]
        return [sum(c * r[i] for c, r in zip(cs, rows)) for i in range(dim)]

    if kind == "column" and m > 1:
        at = draw(st.integers(0, m - 1))
        cols[at] = combination(cols[:at] + cols[at + 1:])
    elif kind == "equation" and m > 1:
        at = draw(st.integers(0, m - 1))
        eqs[at] = combination(eqs[:at] + eqs[at + 1:])
    elif kind == "through":
        # base_l - base_u in span(cols), with the v coefficient often 0.
        lead = cols[:-1] + draw(st.sampled_from([[], [cols[-1]]]))
        step = combination(lead) if lead else [0] * dim
    elif kind == "sparse":
        keep = st.sampled_from([True, False])
        cols = [[c if draw(keep) else 0 for c in r] for r in cols]
        eqs = [[c if draw(keep) else 0 for c in r] for r in eqs]
    if draw(st.booleans()):
        rows = draw(st.sampled_from([cols, eqs]))
        rows[draw(st.integers(0, len(rows) - 1))][
            draw(st.integers(0, dim - 1))] += draw(st.sampled_from([-1, 1]))
    base_l = [u + s for u, s in zip(base_u, step)]
    facets = [vec() + [draw(entry)] for _ in range(draw(st.integers(1, 3)))]
    return dim, cols, eqs, base_u, base_l, facets


def complementary_pairs(q, v):
    complexes = upper_lower(q, v)
    return sum(
        sum(f.dim == l for f in complexes.upper_faces)
        * sum(f.dim == q.dim - 1 - l for f in complexes.lower_faces)
        for l in range(q.dim))


def build_face_tables(q):
    for k in range(q.dim):
        projection._face_table(q, k)


def has_interior_vertex(q, v):
    """The overlay diagram of any general-position direction contains an
    interior vertex."""
    return any(dv.interior for dv in diagram_vertices(q, v))


@dataclass(frozen=True)
class QuotientWitnessReport:
    """Dimension and face-count witnesses for an interior diagram vertex:
    the quotients at the two witness faces have complementary dimensions
    and at least the face counts of a simplex."""

    ok: bool
    dim_plus: int
    dim_minus: int
    rows: tuple


def quotient_dimension_report(q, dv):
    if not dv.interior:
        raise ValueError("witness checks need an interior diagram vertex")
    lattice = q.face_lattice()
    qp = quotient(lattice, dv.x_plus)
    qm = quotient(lattice, dv.x_minus)
    ok = qp.dim == dv.l_minus and qm.dim == dv.l_plus
    rows = []
    for quot, l_wit, l_other in ((qp, dv.l_plus, dv.l_minus),
                                 (qm, dv.l_minus, dv.l_plus)):
        fv = quot.f_vector()
        for k in range(l_wit, q.dim):
            bound = comb(l_other + 1, q.dim - k)
            have = fv.count(k - l_wit - 1)
            ok = ok and have >= bound
            rows.append({"k": k, "count": have, "bound": bound})
    return QuotientWitnessReport(ok, qp.dim, qm.dim, tuple(rows))


class TestGeneralPosition:
    def test_square_rejects_axis(self):
        sq = cube(2)
        assert not is_general_position(sq, vector((1, 0)))
        assert not is_general_position(sq, vector((1, 1)))  # a diagonal
        assert is_general_position(sq, vector((2, 3)))

    def test_cube_rejects_axis(self):
        assert not is_general_position(cube(3), vector((1, 0, 0)))

    def test_zero_vector(self):
        assert not is_general_position(cube(2), vector((0, 0)))

    @pytest.mark.parametrize("p", [cube(3), simplex(3), cyclic(6, 2),
                                   cross_polytope(3)], ids=str)
    def test_matches_exhaustive_oracle(self, p):
        probes = [
            vector((1, 0, 0))[:p.dim] if p.dim == 3 else vector((1, 0)),
            vector(tuple(range(7, 7 + p.dim))),
            vector(tuple((-1) ** i * (i + 3) for i in range(p.dim))),
            sample_direction(p, seed=5).v,
        ]
        for v in probes:
            assert is_general_position(p, v) == gp_oracle(p, v)

    def test_sampled_directions_verified(self):
        for seed in range(5):
            d = sample_direction(cube(3), seed=seed)
            assert d.verified
            assert gp_oracle(cube(3), d.v)

    def test_sampling_deterministic(self):
        a = sample_direction(cyclic(6, 4), seed=12)
        b = sample_direction(cyclic(6, 4), seed=12)
        assert a == b

    def test_certified_on_corpus(self):
        # Every corpus member whose enumeration fits: all but cube-5 and
        # cube-6 (C(32, 5) and C(64, 6) subsets).
        checked = 0
        for entry in extended_corpus():
            p = entry.polytope
            if p.dim < 1 or comb(p.n_vertices, p.dim) > 10**5:
                continue
            normals = spanned_hyperplane_normals(p)
            for seed in range(5):
                assert pairs_nonzero(normals, sample_direction(p, seed).v), (
                    entry.name, seed)
                checked += 1
        assert checked >= 300

    @given(integer_hulls(), st.integers(0, 2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_oracle_accepts_sampled_direction(self, p, seed):
        assume(p.dim >= 1)
        assert gp_oracle(p, sample_direction(p, seed).v)


class TestShadow:
    def test_square_shadow_is_segment(self):
        sh = shadow(cube(2), sample_direction(cube(2), seed=1))
        assert sh.poly.dim == 1
        assert sh.poly.f_vector().count(0) == 2

    def test_cube_shadow_is_hexagon(self):
        sh = shadow(cube(3), sample_direction(cube(3), seed=1))
        assert tuple(sh.poly.f_vector().counts) == (6, 6)

    def test_vertex_map(self):
        sh = shadow(cube(3), sample_direction(cube(3), seed=1))
        mapped = [i for i in sh.vertex_map if i is not None]
        assert len(mapped) == 6  # two extreme corners land inside
        assert sorted(set(mapped)) == list(range(6))

    def test_tetrahedron_quadrilateral_shadow_exists(self):
        p = simplex(3)
        shapes = set()
        for seed in range(30):
            sh = shadow(p, sample_direction(p, seed=seed))
            shapes.add(sh.poly.f_vector().count(0))
        assert shapes <= {3, 4}
        assert 4 in shapes

    def test_parallel_projection_onto_last_coordinate(self):
        # Along v = (1, 2, 3) the shadow drops z: (x, y, z) maps to
        # (x - z/3, y - 2z/3).  The corners 0 and (1, 1, 1) land inside.
        q = cube(3)
        sh = shadow(q, (1, 2, 3))
        assert set(sh.poly.vertices) == {
            (x - z / 3, y - 2 * z / 3) for x, y, z in q.vertices
            if len({x, y, z}) == 2}
        assert sh.poly.form == ((1, 0), (0, 1))
        assert sh.poly.ambient_vertices() == sh.poly.vertices

    def test_projection_exactness(self):
        # A shadow point lifted back by re-inserting coordinate j as 0 (j
        # the last index with v_j != 0) differs from its vertex by a
        # multiple of the direction.  Vertices that vertex_map sends to no
        # shadow vertex land strictly inside the shadow.
        polytopes = [cube(3), cross_polytope(3),
                     facet_as_polytope(cross_polytope(3), 0)]
        for q, seed in product(polytopes, range(3)):
            d = sample_direction(q, seed=seed)
            j = max(i for i, c in enumerate(d.v) if c)
            sh = shadow(q, d)
            for p, image in zip(q.vertices, sh.vertex_map):
                if image is None:
                    on_plane = vsub(p, tuple(p[j] / d.v[j] * c
                                             for c in d.v))
                    coords = on_plane[:j] + on_plane[j + 1:]
                    assert all(side(f.plane, coords) < 0
                               for f in sh.poly.facets)
                else:
                    coords = sh.poly.vertices[image]
                lifted = coords[:j] + (Fraction(0),) + coords[j:]
                assert rank([vsub(p, lifted), d.v]) == 1


class TestMemo:
    def test_shadow_cached_per_direction(self):
        q = cube(3)
        d = sample_direction(q, seed=4)
        sh = shadow(q, d)
        assert shadow(q, d) is sh
        assert shadow(q, d.v) is sh
        assert shadow(q, sample_direction(q, seed=5)) is not sh

    def test_upper_lower_cached_per_direction(self):
        q = cross_polytope(3)
        d = sample_direction(q, seed=4)
        parts = upper_lower(q, d)
        assert upper_lower(q, d) is parts
        assert upper_lower(q, d.v) is parts

    def test_zero_pairing_raises_on_every_call(self):
        q = cube(2)
        for v in (Direction(vector((1, 0)), False), (1, 0)):
            for _ in range(2):
                with pytest.raises(ZeroDotProductError):
                    upper_lower(q, v)

    def test_diagram_builds_each_shadow_once(self, monkeypatch):
        q = cube(3)
        d = sample_direction(q, seed=6)
        hulls = []
        build = projection._build
        monkeypatch.setattr(projection, "_build",
                            lambda *args: hulls.append(args) or build(*args))
        diagram = build_shadow_diagram(q, d)
        assert len(hulls) == 1
        assert diagram.shadow is shadow(q, d)
        assert diagram.complexes is upper_lower(q, d)
        assert len(hulls) == 1


class TestUpperLower:
    def test_square_two_two(self):
        parts = upper_lower(cube(2), sample_direction(cube(2), seed=1))
        assert len(parts.upper) == 2 and len(parts.lower) == 2

    def test_cube_three_three(self):
        parts = upper_lower(cube(3), sample_direction(cube(3), seed=1))
        assert len(parts.upper) == 3 and len(parts.lower) == 3
        assert len(parts.upper) + len(parts.lower) == 6

    def test_tetrahedron_split(self):
        p = simplex(3)
        splits = set()
        for seed in range(12):
            parts = upper_lower(p, sample_direction(p, seed=seed))
            splits.add((len(parts.upper), len(parts.lower)))
        assert splits <= {(1, 3), (2, 2), (3, 1)}

    def test_zero_dot_rejected(self):
        with pytest.raises(ZeroDotProductError):
            upper_lower(cube(2), Direction(vector((1, 0)), False))

    def test_integer_sides_match_fraction_directions(self):
        # The sides are integer dot products with the primitive multiple of
        # the direction: a rational direction and that multiple give equal
        # complexes, whose parts are the facets of positive and negative
        # rational dot product.  A zero direction pairs to 0 with every
        # facet and is refused as not in general position.
        entries = [e for e in extended_corpus() if e.polytope.dim == 3]
        assert len(entries) >= 3
        for entry, seed in product(entries[:4], range(2)):
            p = entry.polytope
            rational = tuple(Fraction(3, 7) * c
                             for c in sample_direction(p, seed=seed).v)
            parts = upper_lower(p, rational)
            assert parts == upper_lower(p, primitive(rational)), entry.name
            assert parts.upper == tuple(i for i, f in enumerate(p.facets)
                                        if dot(f.plane.normal, rational) > 0)
            assert parts.lower == tuple(i for i, f in enumerate(p.facets)
                                        if dot(f.plane.normal, rational) < 0)
            with pytest.raises(ZeroDotProductError):
                upper_lower(p, (0, 0, 0))

    def test_faces_match_subset_brute_force_on_corpus(self):
        # The diagram oracles call upper_lower, so its faces are checked
        # here by definition: a proper face is upper (lower) when its
        # vertex set lies in an upper (lower) facet's.
        for entry, seed in product(extended_corpus(), range(3)):
            p = entry.polytope
            if p.dim < 1:
                continue
            parts = upper_lower(p, sample_direction(p, seed=seed))
            proper = [f for f in p.face_lattice().faces if 0 <= f.dim < p.dim]
            upper, lower = ([f for f in proper if any(
                f.vertex_set <= p.facets[i].vertex_set for i in side)]
                for side in (parts.upper, parts.lower))
            assert parts.upper_faces == tuple(upper), (entry.name, seed)
            assert parts.lower_faces == tuple(lower), (entry.name, seed)
            assert parts.boundary_faces == tuple(
                f for f in upper if f in lower), (entry.name, seed)

    @pytest.mark.parametrize("p", [cube(3), simplex(3), cross_polytope(3),
                                   cyclic(6, 2), pyramid(cube(2))], ids=str)
    def test_boundary_homeomorphism(self, p):
        for seed in range(3):
            d = sample_direction(p, seed=seed)
            assert shadow_boundary_check(p, d)


class TestDiagramVertices:
    def test_segment_too_low(self):
        seg = hull_from_points([(0,), (1,)])
        with pytest.raises(DimensionTooLowError):
            diagram_vertices(seg, Direction(vector((1,)), True))

    def test_hexagon_four_interior(self):
        hexa = cyclic(6, 2)
        for seed in range(4):
            d = sample_direction(hexa, seed=seed)
            dvs = diagram_vertices(hexa, d)
            assert sum(dv.interior for dv in dvs) == 4

    def test_cube_witness_dimensions(self):
        d = sample_direction(cube(3), seed=1)
        dvs = [dv for dv in diagram_vertices(cube(3), d) if dv.interior]
        kinds = {(dv.l_plus, dv.l_minus) for dv in dvs}
        assert kinds <= {(0, 2), (1, 1), (2, 0)}
        assert (0, 2) in kinds and (2, 0) in kinds

    def test_dimensions_complementary(self):
        p = cross_polytope(3)
        d = sample_direction(p, seed=3)
        for dv in diagram_vertices(p, d):
            assert dv.l_plus + dv.l_minus == p.dim - 1

    def test_interior_points_strictly_inside_shadow(self):
        p = cube(3)
        d = sample_direction(p, seed=7)
        sh = shadow(p, d)
        for dv in diagram_vertices(p, d):
            strict = all(side(f.plane, dv.point) < 0
                         for f in sh.poly.facets)
            assert strict == dv.interior
            assert contains(sh.poly, dv.point)

    @pytest.mark.parametrize("p", [cube(3), cube(4), simplex(4),
                                   cross_polytope(3), cyclic(7, 4),
                                   pyramid(cube(2))], ids=str)
    def test_interior_vertex_always_found(self, p):
        for seed in range(4):
            assert has_interior_vertex(p, sample_direction(p, seed=seed))

    def test_matches_all_pairs_reference_on_corpus(self):
        polytopes = [e.polytope for e in extended_corpus()
                     if 2 <= e.polytope.dim <= 4]
        polytopes += [pyramid(cube(4)), prism(simplex(4))]
        for p, seed in product(polytopes, range(2)):
            d = sample_direction(p, seed=seed)
            assert diagram_vertices(p, d) == all_pairs_diagram_vertices(p, d), (
                p, seed)

    def test_points_past_the_text_limit(self):
        # Moment-curve points (t, t^2, t^3) with t up to 1,130 bits give
        # shadow points of more than 4,300 digits, the interpreter's
        # int-to-str limit: a library call must keep them exact and
        # format nothing.
        rnd = random.Random(3)
        ts = set()
        while len(ts) < 8:
            ts.add(rnd.choice((-1, 1)) * rnd.getrandbits(rnd.randint(1, 1130)))
        q = hull_from_points([(t, t * t, t ** 3) for t in sorted(ts)])
        d = sample_direction(q, seed=0)
        found = diagram_vertices(q, d)
        assert max(abs(c.numerator) for dv in found
                   for c in dv.point) > 10 ** 4300
        assert found == all_pairs_diagram_vertices(q, d)

    @given(integer_hulls(), st.integers(0, 2**64 - 1))
    @settings(max_examples=DIAGRAM_EXAMPLES, deadline=None)
    def test_matches_all_pairs_reference(self, p, seed):
        assume(p.dim >= 2)
        d = sample_direction(p, seed=seed)
        assert diagram_vertices(p, d) == all_pairs_diagram_vertices(p, d)

    def test_solves_at_most_half_the_pairs(self, monkeypatch):
        # Pairs sharing two or more vertices, and disjoint pairs whose
        # projections a separation axis parts, are decided without
        # elimination.
        # The face tables are built first, so that only the pairs' solves
        # are counted, not the eliminations that pick face bases.
        q = cube(4)
        build_face_tables(q)
        calls = []
        solve = projection.echelon
        monkeypatch.setattr(projection, "echelon",
                            lambda rows: calls.append(1) or solve(rows))
        for seed in range(3):
            d = sample_direction(q, seed=seed)
            calls.clear()
            diagram_vertices(q, d)
            assert 0 < len(calls) <= complementary_pairs(q, d) // 2, seed


    @pytest.mark.parametrize("q,axis_parallel", [
        (cube(4), True), (cross_polytope(4), False)], ids=["cube", "cross"])
    def test_exact_solves_only_for_undecided_disjoint_pairs(
            self, q, axis_parallel, monkeypatch):
        # The float filter certifies the sign of D for one-vertex pairs and
        # rejects the disjoint pairs it proves give no crossing, so the
        # exact solves are at most the interior crossings and the singular
        # systems of both classes.  A cube's faces are axis-parallel, so
        # each of its singular systems is singular by its zero pattern,
        # which the filter certifies: only the interior crossings remain,
        # and no one-vertex pair is solved.  The face tables are built
        # first, so that only the pairs' solves are counted, not the
        # eliminations that pick face bases.
        build_face_tables(q)
        solve = projection.echelon
        for seed in range(3):
            d = sample_direction(q, seed=seed)
            singular = sum(shared_vertex_pairs(q, d, shared)[1]
                           for shared in (0, 1))
            calls = []
            monkeypatch.setattr(projection, "echelon",
                                lambda rows: calls.append(1) or solve(rows))
            interior = sum(dv.interior for dv in diagram_vertices(q, d))
            monkeypatch.setattr(projection, "echelon", solve)
            assert 0 < len(calls) <= interior + singular, seed
            if axis_parallel:
                assert len(calls) == interior, seed

    def test_exact_solves_only_for_uncertified_one_vertex_pairs(
            self, monkeypatch):
        # A one-vertex pair is solved exactly only when the filter leaves
        # the sign of D open, which a nonsingular system's D never is on
        # these polytopes: at most the singular pairs are solved, and none
        # of the cube's, whose singular systems are structural zeros.
        solve, crossing = projection._solve, projection._disjoint_crossing
        for q, most in ((cube(4), lambda singular: 0),
                        (cross_polytope(4), lambda singular: singular)):
            for seed in range(3):
                d = sample_direction(q, seed=seed)
                pairs, singular = shared_vertex_pairs(q, d)
                assert singular < pairs, (q, seed)
                solves, disjoint = [], []
                monkeypatch.setattr(projection, "_solve", lambda *a: (
                    solves.append(1) or solve(*a)))
                monkeypatch.setattr(projection, "_disjoint_crossing",
                                    lambda *a: disjoint.append(1)
                                    or crossing(*a))
                diagram_vertices(q, d)
                monkeypatch.setattr(projection, "_solve", solve)
                monkeypatch.setattr(projection, "_disjoint_crossing",
                                    crossing)
                assert len(solves) - len(disjoint) <= most(singular), (
                    q, seed)

    def test_non_transversal_pairs_never_reach_the_solver(self,
                                                          monkeypatch):
        # A pair whose faces' direction spaces meet is singular for every
        # direction, so it is dropped unsolved: every pair that reaches the
        # exact solve has span bases of full rank l_plus + l_minus = dim - 1,
        # judged here on the reference's span bases.  A transversal pair
        # is nonsingular under a verified direction, so each disjoint pair
        # that reaches `_disjoint_crossing` gives an interior crossing.
        cross = cross_polytope(4)
        (op,) = [op for op in WORKLOADS.build("shadows", 1)
                 if op.label == "project:cross-4:dir8"]
        runs = [(q, sample_direction(q, seed=seed))
                for q in (cube(4), cross) for seed in range(3)]
        runs += [(cross, d)
                 for d in cli._directions(cross, op.seed, op.directions)]
        solve, crossing = projection._solve, projection._disjoint_crossing
        for q, d in runs:
            _, verts, planes = projection._int_geometry(q)
            span = {}
            for k in range(q.dim):
                table = projection._face_table(q, k)
                for face, aff in zip(table.faces, table.affs):
                    span[id(aff)] = reference_aff_data(q, face, verts,
                                                       planes)[1]
            solved, crossed = [], []
            monkeypatch.setattr(projection, "_solve", lambda p, m, v: (
                solved.append((p, m)) or solve(p, m, v)))
            monkeypatch.setattr(projection, "_disjoint_crossing",
                                lambda *a: crossed.append(1) or crossing(*a))
            interior = sum(dv.interior for dv in diagram_vertices(q, d))
            monkeypatch.setattr(projection, "_solve", solve)
            monkeypatch.setattr(projection, "_disjoint_crossing", crossing)
            assert all(rank(span[id(p)] + span[id(m)]) == q.dim - 1
                       for p, m in solved), (q, d)
            assert len(crossed) == interior, (q, d)

    def test_separation_axes_spare_cross_4_rank_tests(self, monkeypatch):
        # cross-4's faces come in parallel pairs whose shadows' bounding
        # boxes overlap though the shadows do not meet.  The sums and
        # differences of the shadow coordinates separate most of them, so
        # at the 8 directions of the seed-1 `cross-4:dir8` op at most 200
        # pairs reach the transversality test (760 with the coordinate
        # axes alone).
        cross = cross_polytope(4)
        (op,) = [op for op in WORKLOADS.build("shadows", 1)
                 if op.label == "project:cross-4:dir8"]
        transversal, ranked = projection._transversal, []
        monkeypatch.setattr(projection, "_transversal", lambda *a: (
            ranked.append(1) or transversal(*a)))
        for d in cli._directions(cross, op.seed, op.directions):
            assert diagram_vertices(cross, d) == all_pairs_diagram_vertices(
                cross, d), d
        assert 0 < len(ranked) <= 200

    def test_matches_all_pairs_reference_with_huge_coordinates(self):
        # 200-digit coordinates give a direction of 1,212 digits, far past
        # the range of a float: the filter's inputs must be scaled.
        p = hull_from_points([vector(c) for c in
                              huge_polytope(200)["vertices"]])
        for seed in range(2):
            d = sample_direction(p, seed=seed)
            assert diagram_vertices(p, d) == all_pairs_diagram_vertices(p, d)

    @pytest.mark.parametrize("p", [
        cube(4), cross_polytope(4), pyramid(cube(4)), prism(simplex(4)),
        cyclic(8, 4), linear_image(PYRAMID_IMAGE, pyramid(cube(4)))],
        ids=["cube-4", "cross-4", "pyramid-5", "prism-5", "cyclic-4-8",
             "pyramid-5-image"])
    def test_uncertified_signs_match_all_pairs(self, p, monkeypatch):
        # With a bound of 1e300 the filter certifies only structural zeros,
        # so the sign of every other D is left open and each such pair is
        # solved exactly, and every slack is left open too, so each lift is
        # tested exactly against every facet that does not contain its
        # witness face and has a nonzero slack.  The integer image of
        # pyramid(cube(4)) has singular one-vertex systems whose D is not a
        # structural zero.
        monkeypatch.setattr(projection, "_rounding", lambda m, dim: 1e300)
        for seed in range(2):
            d = sample_direction(p, seed=seed)
            assert diagram_vertices(p, d) == all_pairs_diagram_vertices(p, d), (
                seed)

    @pytest.mark.parametrize("q", [cube(4), cross_polytope(4)],
                             ids=["cube-4", "cross-4"])
    def test_no_exact_containment_at_the_real_bound(self, q, monkeypatch):
        # The filter certifies every facet slack of the lifts of the pairs
        # it keeps with a certified D on these polytopes, and the pairs
        # whose D it leaves open are singular: no plane is tested exactly.
        contains, tested = projection._contains_int, []
        monkeypatch.setattr(projection, "_contains_int", lambda planes, *a: (
            tested.append(len(planes)) or contains(planes, *a)))
        for seed in range(3):
            diagram_vertices(q, sample_direction(q, seed=seed))
        assert sum(tested) == 0


@st.composite
def huge_moment_curves(draw):
    """Points (t, t^2, t^3) of the moment curve, every one a vertex of
    their hull, with t of either sign and up to 1,130 bits, so each column
    of shadow coordinates mixes signs and bit lengths up to about 3,400
    bits (1,000 digits).  The values of t come from a drawn random
    generator: drawn directly, big integers are mostly small."""
    count = draw(st.integers(5, 8))
    rnd = draw(st.randoms(use_true_random=True))
    ts = set()
    while len(ts) < count:
        ts.add(rnd.choice((-1, 1)) * rnd.getrandbits(rnd.randint(1, 1130)))
    return [(t, t * t, t ** 3) for t in sorted(ts)]


class Converted(Exception):
    """Carries the floats of one conversion out of the code under test."""


def shadow_integers(q, d):
    """The integer shadow coordinates of q's scaled vertices along d."""
    _, iverts, _ = projection._int_geometry(q)
    image = projection._shadow_map(primitive(d.v))[0]
    return [image(p) for p in iverts]


def separation_columns(pv):
    """The separation axes' exact integer columns over the points pv: each
    coordinate, then x_i + x_j for i < j, then x_i - x_j for i < j."""
    cols = list(zip(*pv))
    pairs = list(combinations(range(len(cols)), 2))
    return (cols
            + [tuple(map(int.__add__, cols[i], cols[j])) for i, j in pairs]
            + [tuple(map(int.__sub__, cols[i], cols[j])) for i, j in pairs])


def check_face_data(q):
    """A face's incidence row is its vertex set; its hull equations are
    read off the planes of exactly the facets of its `containing` row; its
    span basis spans its vertex differences, and its hull equations vanish
    on them, have rank dim - k and span what the reference's do; the
    facets that do not contain it are the subset scan's.  The tables are
    built on a fresh copy of q, so that every `_aff_data_int` call is
    seen."""
    q = Polytope(q.ambient_dim, q.dim, q.vertices, q.facets,
                 q.ambient_vertices(), q.form)
    _, verts, planes = projection._int_geometry(q)
    aff_data, received = projection._aff_data_int, []

    def spy(face, inside, *rest):
        received.append((face, list(inside)))
        return aff_data(face, inside, *rest)

    for k in range(q.dim):
        received.clear()
        with mock.patch.object(projection, "_aff_data_int", spy):
            table = projection._face_table(q, k)
        assert [face for face, _ in received] == list(table.faces)
        assert [inside for _, inside in received] == [
            np.flatnonzero(row).tolist()
            for row in q.face_lattice().containing(k)]
        for face, row in zip(table.faces, table.incidence):
            expected = np.zeros(q.n_vertices)
            expected[list(face.vertex_set)] = 1.0
            assert np.array_equal(row, expected), face
        for face, (base, span, eqs), outside in zip(
                table.faces, table.affs, table.outside):
            diffs = [tuple(a - b for a, b in zip(verts[i], base))
                     for i in sorted(face.vertex_set)]
            assert len(span) == rank(span) == rank(diffs) == k
            assert len(eqs) == rank(eqs) == q.dim - k
            assert all(idot(eq, d) == 0 for eq in eqs for d in diffs)
            ref = reference_aff_data(q, face, verts, planes)
            assert rank(list(eqs) + list(ref[2])) == q.dim - k
            assert tuple(planes[j] for j in np.flatnonzero(outside)) == ref[3]


class TestFaceData:
    def test_matches_reference_on_corpus(self):
        polytopes = [e.polytope for e in extended_corpus()
                     if 2 <= e.polytope.dim <= 5]
        polytopes += [pyramid(cube(4)),
                      linear_image(PYRAMID_IMAGE, pyramid(cube(4)))]
        for q in polytopes:
            check_face_data(q)

    @given(integer_hulls())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, q):
        assume(q.dim >= 2)
        check_face_data(q)


class TestFloatFilter:
    @given(huge_moment_curves(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_box_points_monotone_down_each_column(self, points, seed):
        # The separation test reads the shadow coordinates and their
        # pairwise sums and differences as floats; a strict float miss is
        # an exact miss only if the floats keep the order of each column's
        # integers.  The spy stops diagram_vertices once it has converted
        # them.
        q = hull_from_points(points)
        d = sample_direction(q, seed=seed)
        pv = shadow_integers(q, d)
        convert = projection._separation_points

        def spy(rows):
            raise Converted(rows, convert(rows))

        with mock.patch.object(projection, "_separation_points", spy), \
                pytest.raises(Converted) as caught:
            diagram_vertices(q, d)
        rows, floats = caught.value.args
        assert rows == pv
        exact = separation_columns(pv)
        assert floats.shape == (len(pv), len(exact))
        assert np.isfinite(floats).all()
        for col, column in zip(exact, floats.T.tolist()):
            ranked = [f for _, f in sorted(zip(col, column))]
            assert ranked == sorted(ranked)
            assert max(map(abs, ranked)) >= 0.5

    @given(st.one_of(integer_hulls(),
                     huge_moment_curves().map(hull_from_points)),
           st.integers(0, 2**64 - 1))
    @settings(max_examples=DIAGRAM_EXAMPLES, deadline=None)
    def test_separated_pairs_miss_exactly(self, q, seed):
        # Every pair that the separation test drops has exact integer
        # extents that miss strictly on some axis, so no crossing is lost:
        # small points put equal integers in a column, and huge ones
        # equal floats (a column's small entries underflow to 0).
        assume(q.dim >= 2)
        d = sample_direction(q, seed=seed)
        axes = list(zip(*separation_columns(shadow_integers(q, d))))
        apart, dropped = projection._apart, []

        def spy(tu, ru, tl, rl, points):
            out = apart(tu, ru, tl, rl, points)
            dropped.extend((tu.faces[ru[i]], tl.faces[rl[j]])
                           for i, j in zip(*np.nonzero(out)))
            return out

        with mock.patch.object(projection, "_apart", spy):
            diagram_vertices(q, d)
        for up, low in dropped:
            u = list(zip(*(axes[i] for i in up.vertices)))
            w = list(zip(*(axes[i] for i in low.vertices)))
            assert any(max(a) < min(b) or max(b) < min(a)
                       for a, b in zip(u, w)), (up, low)

    @given(filter_systems())
    @settings(max_examples=300, deadline=None)
    def test_certified_signs_are_exact(self, system):
        # Every sign the filter certifies, of D (in the whole filter, and
        # alone as for one-vertex pairs), of Cramer's numerators and of both
        # lifts' facet slacks, is the exact sign, and a certified zero is an
        # exact zero.
        dim, cols, eqs, base_u, base_l, facets = system
        m = len(eqs)
        beta = max(c.bit_length() for c in base_u + base_l)
        rows = projection._bounded(facets, dim + 1, (0,) * dim + (beta,))
        up = projection._face_floats(
            [(tuple(base_u), [tuple(r) for r in cols[:-1]],
              [(0,) * dim] * (dim - m + 1))], m - 1, dim, beta, rows)
        low = projection._face_floats(
            [(tuple(base_l), [(0,) * dim] * (dim - m),
              [tuple(r) for r in eqs])], dim - m, dim, beta, rows)
        v, steps = projection._direction_floats(rows, cols[-1])
        values = projection._filter_values(up.span, up.base, up.slacks,
                                           low.eqs, low.offsets, v, steps)
        rounding = projection._rounding(m, dim)
        certified = [projection._certified_signs(x, rounding)[0].tolist()
                     for x in values]
        # One-vertex pairs get D alone, from the same span and equations.
        certified.append(projection._det_signs(up.span, low.eqs, v,
                                               rounding).tolist())

        a = [[idot(eq, col) for col in cols] for eq in eqs]
        b = [idot(eq, base_l) - idot(eq, base_u) for eq in eqs]
        det = signed_det(a)
        cramer = [signed_det([row[:k] + [bi] + row[k + 1:]
                              for row, bi in zip(a, b)]) for k in range(m)]
        upper = [det * (idot(f[:dim], base_u) + f[dim])
                 + sum(c * idot(f[:dim], col)
                       for c, col in zip(cramer, cols[:-1]))
                 for f in facets]
        lower = [s + cramer[-1] * idot(f[:dim], cols[-1])
                 for s, f in zip(upper, facets)]
        for signs, exact in zip(certified,
                                [[det] + cramer, upper, lower, [det]]):
            for sign, x in zip(signs, exact):
                if sign == sign:  # certified
                    assert sign == (x > 0) - (x < 0), (sign, x)


class TestQuotientWitness:
    def test_cube_witnesses(self):
        d = sample_direction(cube(3), seed=1)
        for dv in diagram_vertices(cube(3), d):
            if not dv.interior:
                continue
            rep = quotient_dimension_report(cube(3), dv)
            assert rep.ok
            assert rep.dim_plus == dv.l_minus
            assert rep.dim_minus == dv.l_plus

    def test_simplex_quotients_tight(self):
        p = simplex(4)
        d = sample_direction(p, seed=2)
        for dv in diagram_vertices(p, d):
            if dv.interior:
                rep = quotient_dimension_report(p, dv)
                assert rep.ok
                assert all(r["count"] == r["bound"] for r in rep.rows)

    def test_requires_interior(self):
        d = sample_direction(cube(3), seed=1)
        boundary = next(dv for dv in diagram_vertices(cube(3), d)
                        if not dv.interior)
        with pytest.raises(ValueError):
            quotient_dimension_report(cube(3), boundary)


class TestGap:
    def test_cube_values(self):
        q = cube(3)
        d = sample_direction(q, seed=1)
        g1 = gap_check(q, d, 1)
        assert (g1.f_k, g1.shadow_f_k, g1.gap, g1.bound) == (12, 6, 6, 2)
        assert g1.ok
        g2 = gap_check(q, d, 2)
        assert (g2.f_k, g2.shadow_f_k, g2.gap, g2.bound) == (6, 0, 6, 4)
        assert g2.ok

    def test_simplex_top_level_equality(self):
        # The tightest case: a simplex loses exactly its ridge count.
        p = simplex(4)
        d = sample_direction(p, seed=2)
        g = gap_check(p, d, 3)
        assert (g.gap, g.bound) == (5, 5) and g.ok

    def test_hexagon(self):
        hexa = cyclic(6, 2)
        d = sample_direction(hexa, seed=1)
        g = gap_check(hexa, d, 0)
        assert (g.f_k, g.shadow_f_k, g.gap, g.bound) == (6, 2, 4, 1)

    @pytest.mark.parametrize("p", [cube(4), cross_polytope(4), cyclic(7, 4),
                                   simplex(5)], ids=str)
    def test_holds_everywhere(self, p):
        for seed in range(3):
            d = sample_direction(p, seed=seed)
            for k in range(p.dim):
                assert gap_check(p, d, k).ok


class TestShadowDiagramBundle:
    def test_cube_bundle(self):
        d = sample_direction(cube(3), seed=4)
        diagram = build_shadow_diagram(cube(3), d)
        assert diagram.boundary_ok
        assert len(diagram.interior_vertices) >= 1
        assert all(g.ok for g in diagram.gap_reports)
        payload = diagram.to_json()
        assert payload["interior_count"] == len(diagram.interior_vertices)
        assert payload["shadow_f_vector"] == [6, 6]

    def test_records_share_face_and_point_tuples(self):
        # One tuple per face and per shadow point, named by every record
        # (and boundary face) that names it: the JSON writer renders each
        # shared object once.
        p = cube(4)
        diagram = build_shadow_diagram(p, sample_direction(p, seed=1))
        payload = diagram.to_json()
        records = payload["diagram_vertices"]
        tuples = {}
        for dv, rec in zip(diagram.vertices, records):
            for face, text in ((dv.x_plus, rec["x_plus"]),
                               (dv.x_minus, rec["x_minus"])):
                assert text == tuple(sorted(face.vertex_set))
                assert tuples.setdefault(face.vertex_set, text) is text
        assert len(tuples) < len(records)  # faces recur across records
        for face, text in zip(diagram.complexes.boundary_faces,
                              payload["partition"]["boundary_faces"]):
            assert text == tuple(sorted(face.vertex_set))
            assert tuples.get(face.vertex_set, text) is text
        points = {}
        crossings = 0
        for dv, rec in zip(diagram.vertices, records):
            assert rec["point"] == tuple(map(str, dv.point))
            if not dv.interior:
                crossings += 1
                (w,) = dv.x_plus.vertex_set & dv.x_minus.vertex_set
                assert points.setdefault(w, rec["point"]) is rec["point"]
        assert len(points) < crossings

    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("p", [cube(4), cross_polytope(4),
                                   pyramid(cube(4))],
                             ids=["cube-4", "cross-4", "pyramid-cube-4"])
    def test_boundary_records_at_a_vertex_share_one_point(self, p, seed):
        # The writer renders a point once only while every boundary
        # crossing at one vertex names one point object and its record one
        # text tuple.  Were that sharing lost, no byte would change.
        direction = sample_direction(p, seed=seed)
        diagram = build_shadow_diagram(p, direction)
        sh = shadow(p, direction)
        records = diagram.to_json()["diagram_vertices"]
        points, texts = {}, {}
        for dv, rec in zip(diagram.vertices, records):
            if dv.interior:
                continue
            (w,) = dv.x_plus.vertex_set & dv.x_minus.vertex_set
            assert dv.point == sh.poly.vertices[sh.vertex_map[w]]
            assert points.setdefault(w, dv.point) is dv.point
            assert texts.setdefault(w, rec["point"]) is rec["point"]
        assert len(points) < sum(not dv.interior for dv in diagram.vertices)

    def test_directions_share_face_tuples(self, monkeypatch):
        # A face's JSON tuple is its Face.vertices: one object in every
        # diagram's records and boundary faces, so the writer renders it
        # once per depth for the whole report.
        payloads = []
        monkeypatch.setattr(cli, "_emit",
                            lambda payload, out: payloads.append(payload))
        assert cli.main(["project", "--family", "cube", "--dim", "4",
                         "--directions", "2", "--seed", "1"]) == 0
        (payload,) = payloads
        tuples, directions = {}, {}
        for i, diagram in enumerate(payload["diagrams"]):
            named = diagram["partition"]["boundary_faces"] + [
                rec[key] for rec in diagram["diagram_vertices"]
                for key in ("x_plus", "x_minus")]
            for text in named:
                assert type(text) is tuple
                assert tuples.setdefault(text, text) is text
                directions.setdefault(text, set()).add(i)
        assert any(len(seen) == 2 for seen in directions.values())


class TestIntegerFormat:
    def test_planes_are_primitive_int_vectors(self):
        # Facet normals, primitive vectors and sampled directions are
        # tuples of ints, and each integer facet plane (a, c) holds with
        # equality at its facet's scaled vertices and strictly at every
        # other vertex.  The corpus holds random-sphere hulls (rational
        # vertices); the flat hexagon is restricted to its affine hull.
        flat = hull_from_points(FLAT_HEXAGON["vertices"])
        assert flat.dim < flat.ambient_dim
        polytopes = [e.polytope for e in extended_corpus()]
        polytopes += [flat, polytope_from_json(huge_polytope(200))]
        for p in polytopes:
            for f in p.facets:
                assert all(type(c) is int for c in f.plane.normal), p
                assert gcd(*f.plane.normal) == 1, p
            ints = primitive(vsub(p.vertices[1], p.vertices[0]))
            assert all(type(c) is int for c in ints) and gcd(*ints) == 1
            assert all(type(c) is int for c in sample_direction(p, 1).v)
            _, verts, planes = projection._int_geometry(p)
            for f, (a, c) in zip(p.facets, planes):
                assert a == f.plane.normal and type(c) is int, p
                for i, y in enumerate(verts):
                    if i in f.vertex_set:
                        assert idot(a, y) == c, (p, i)
                    else:
                        assert idot(a, y) < c, (p, i)
