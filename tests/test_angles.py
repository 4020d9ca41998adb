"""Solid angles: tangent cones, Monte Carlo vs closed forms, angle sums."""
import itertools
import json
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polyface._hull
from polyface._rng import chunk_generator, chunk_sizes, derive_seed
from polyface.angles import (
    EXACT_SLACK,
    MAX_SAMPLES,
    SIGMA_FACTOR,
    AngleEstimate,
    AngleSumReport,
    _check_samples,
    _cone_angle,
    _cone_fraction,
    _euclidean_normal_matrix,
    _facet_angles_exact,
    _facet_hits,
    angle_sum_lower_check,
    angle_sums,
    curvature_checks,
    projection_angle_check,
    solid_angle,
    solid_angle_exact,
    tangent_cone,
)
from polyface.cli import main
from polyface.errors import (
    GramViolationError,
    NotAFaceError,
    OutOfRangeError,
    TooLargeError,
    UnsupportedDimensionError,
)
from polyface.generators import (
    cross_polytope, cube, cyclic, pyramid, random_sphere, simplex)
from polyface.lattice import FaceLattice
from polyface.polytope import _build, hull_from_points
from polyface.projection import sample_direction

from corpus import extended_corpus, facets_containing, near_cube, needle_corpus

SAMPLES = 120_000


def facet_as_polytope(p, index):
    """Facet `index` of p as a polytope in its own (dim-1)-dimensional
    rational coordinates, hulled again in exact arithmetic and kept in p's
    memo; its ambient space is p's intrinsic space, and its metric makes
    its angles those of the facet in p."""
    if not 0 <= index < p.n_facets:
        raise OutOfRangeError(f"facet index {index} out of range")
    return p.memo(("facet", index), lambda: _build(
        [p.vertices[i] for i in sorted(p.facets[index].vertex_set)],
        p.metric))


def gaussian_points(digits):
    """(points, moved): nine Gaussian points in R^3 rounded to 10^-6, as
    integers of about 7 digits, and those points times 10^(digits - 6),
    each coordinate moved by at most 9 units."""
    rng = np.random.default_rng(5)
    points = np.rint(rng.standard_normal((9, 3)) * 1e6).astype(int).tolist()
    moved = [[c * 10 ** (digits - 6) + int(o) for c, o in
              zip(p, rng.integers(-9, 10, 3))] for p in points]
    return points, moved


def _directions(p, seed, count):
    """Directions sampled as the CLI samples them: the i-th from the seed
    derived from (seed, "dir", i)."""
    return [sample_direction(p, derive_seed(seed, "dir", i))
            for i in range(count)]


def in_fresh_processes(code):
    """The standard output of code run by two fresh interpreters with
    different hash seeds."""
    return [subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True,
                           env=dict(os.environ, PYTHONHASHSEED=hash_seed)
                           ).stdout
            for hash_seed in ("1", "2")]


# Rational-coordinate regular tetrahedron (all edges sqrt(2)).
REGULAR_TETRA = hull_from_points([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
# Centrally symmetric, so exactly three of its edges face any direction.
SYMMETRIC_HEXAGON = hull_from_points(
    [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)])


def within(est, value, sigmas=4.0):
    return abs(est.mean - value) <= sigmas * est.stderr


class TestTangentCone:
    def test_cube_vertex_three_normals(self):
        p = cube(3)
        normals = tangent_cone(p, frozenset([0]))
        assert len(normals) == 3
        assert set(normals) == {f.plane.normal for f in p.facets
                                if 0 in f.vertex_set}

    def test_cube_facet_one_normal(self):
        p = cube(3)
        assert tangent_cone(p, p.facets[0].vertex_set) == (
            p.facets[0].plane.normal,)

    def test_whole_polytope_empty_cone(self):
        assert tangent_cone(cube(3), frozenset(range(8))) == ()

    def test_not_a_face(self):
        with pytest.raises(NotAFaceError):
            tangent_cone(cube(2), frozenset([0, 3]))

    def test_normals_match_facet_scan_on_corpus(self):
        # The cone reads the face's row of the lattice's incidences; a scan
        # of every facet must give the same normals in the same order.
        for entry in extended_corpus():
            p = entry.polytope
            for face in p.face_lattice().faces:
                if face.vertex_set:
                    assert tangent_cone(p, face.vertex_set) == tuple(
                        p.facets[i].plane.normal
                        for i in facets_containing(p, face.vertex_set)), (
                        entry.name, face)


class TestSolidAngle:
    def test_whole_polytope_exact_one(self):
        est = solid_angle(cube(3), frozenset(range(8)))
        assert est.mean == 1.0 and est.exact

    def test_segment_endpoint_exact_half(self):
        seg = hull_from_points([(0,), (1,)])
        est = solid_angle(seg, frozenset([0]))
        assert est.mean == 0.5 and est.exact

    def test_square_vertex_quarter(self):
        est = solid_angle(cube(2), frozenset([0]), SAMPLES, seed=3)
        assert within(est, 0.25)

    def test_cube_vertex_eighth(self):
        est = solid_angle(cube(3), frozenset([0]), SAMPLES, seed=3)
        assert within(est, 0.125)

    def test_facet_half(self):
        p = cube(3)
        est = solid_angle(p, p.facets[0].vertex_set, SAMPLES, seed=3)
        assert not est.exact
        assert within(est, 0.5)

    def test_regular_tetrahedron_vertex(self):
        # Closed form: the spherical measure of the corner cone.
        est = solid_angle(REGULAR_TETRA, frozenset([0]), 400_000, seed=3)
        oracle = solid_angle_exact(REGULAR_TETRA, frozenset([0]))
        assert abs(oracle - math.acos(23.0 / 27.0) / (4 * math.pi)) < 1e-12
        assert round(oracle, 4) == 0.0439
        assert within(est, oracle)

    def test_sample_count_guards(self):
        # Checked before any cone is built, so exact cones refuse them too.
        for face in (frozenset([0]), frozenset(range(4))):
            with pytest.raises(OutOfRangeError):
                solid_angle(cube(2), face, 0)
            with pytest.raises(TooLargeError):
                solid_angle(cube(2), face, MAX_SAMPLES + 1)

    def test_deterministic_given_seed(self):
        a = solid_angle(cube(3), frozenset([0]), 70_000, seed=9)
        b = solid_angle(cube(3), frozenset([0]), 70_000, seed=9)
        assert a == b

    def test_seed_changes_stream(self):
        a = solid_angle(cube(3), frozenset([0]), 70_000, seed=1)
        b = solid_angle(cube(3), frozenset([0]), 70_000, seed=2)
        assert a.mean != b.mean

    def test_process_invariance(self):
        # Chunked integer aggregation: same bits in any fresh interpreter.
        outs = in_fresh_processes(
            "from polyface.angles import solid_angle\n"
            "from polyface.generators import cube\n"
            "print(repr(solid_angle(cube(3), frozenset([0]), 200000, seed=4)))\n"
        )
        assert outs[0] == outs[1]


@st.composite
def big_integer_rows(draw):
    """Nonzero integer rows of width 2..6 whose entries have up to 1,100
    bits, each entry of its own size, inside or past the float range.  The
    entries come from a drawn random generator: drawn directly, big
    integers are mostly small."""
    width = draw(st.integers(2, 6))
    bits = draw(st.one_of(st.integers(1, 1000), st.integers(1025, 1100)))
    rnd = draw(st.randoms(use_true_random=False))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = [rnd.randint(-(1 << b), 1 << b)
               for b in (rnd.randint(0, bits) for _ in range(width))]
        assume(any(row))
        rows.append(row)
    return rows


class TestNormalMatrix:
    @given(big_integer_rows())
    @settings(max_examples=300, deadline=None)
    def test_rows_keep_their_directions(self, rows):
        # Within the float range, each row is the correctly rounded row
        # times one power of two.  Past it, every entry is finite and the
        # row points the exact row's way to within a few ulps.
        matrix = _euclidean_normal_matrix(simplex(len(rows[0])), rows)
        assert np.isfinite(matrix).all()
        try:
            rounded = [[float(x) for x in row] for row in rows]
        except OverflowError:  # an entry past the float range
            rounded = None
        for i, (row, got) in enumerate(zip(rows, matrix.tolist())):
            top = max(range(len(row)), key=lambda j: abs(row[j]))
            if rounded:
                want = rounded[i]
                shift = math.frexp(got[top])[1] - math.frexp(want[top])[1]
                assert got == [math.ldexp(x, shift) for x in want], row
            else:
                ratio = Fraction(got[top]) / row[top]
                slack = abs(Fraction(got[top])) * 2.0 ** -50 + 2.0 ** -1070
                assert all(abs(Fraction(y) - ratio * x) <= slack
                           for x, y in zip(row, got)), row


def test_sampling_starts_no_thread(monkeypatch):
    # Multi-chunk streams of all three samplers, with the variable that
    # once asked for a thread pool set; it must change nothing.
    runs = [lambda: solid_angle(cube(3), frozenset([0]), 140_000, seed=4),
            lambda: angle_sums(cross_polytope(4), 140_000, seed=4),
            lambda: curvature_checks(simplex(5), 140_000, seed=4)]
    serial = [run() for run in runs]

    def refuse(self):
        raise AssertionError(f"sampling started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setenv("POLYFACE_" "THREADS", "4")
    assert [run() for run in runs] == serial


def fan_fraction(rays):
    """Oracle for _cone_fraction: the measure, over the whole sphere, of
    the pointed 3d cone spanned by unit rays.  The rays are sorted around
    their sum, which is inside the cone, and the cross-section is fanned
    into triangles, each measured by Van Oosterom & Strackee's formula
    tan(omega / 2) = |a . (b x c)| / (1 + a.b + a.c + b.c)."""
    rays = np.asarray(rays, dtype=float)
    axis = rays.sum(axis=0)
    axis /= np.linalg.norm(axis)
    ref = np.array([0.0, 1.0, 0.0] if abs(axis[0]) > 0.9 else [1.0, 0.0, 0.0])
    u = ref - (ref @ axis) * axis
    w = np.cross(axis, u)
    a, *rest = sorted(rays, key=lambda e: math.atan2(e @ w, e @ u))
    return sum(2.0 * math.atan2(abs(a @ np.cross(b, c)),
                                1.0 + a @ b + a @ c + b @ c)
               for b, c in zip(rest, rest[1:])) / (4.0 * math.pi)


def extreme_rays(normals):
    """(rays, edges): the unit extreme rays of the pointed 3d cone
    {u : n . u <= 0}, by brute force, and the pair (i, j) of normals whose
    facets meet in each: n_i x n_j, signed into the cone, for every pair
    whose cross product the other normals keep inside."""
    normals = np.asarray(normals, dtype=float)
    rays, edges = [], []
    for i, j in itertools.combinations(range(len(normals)), 2):
        r = np.cross(normals[i], normals[j])
        r /= np.linalg.norm(r)
        for ray in (r, -r):
            if (normals @ ray <= 1e-9 * np.linalg.norm(normals, axis=1)).all():
                rays.append(ray)
                edges.append((i, j))
    return rays, edges


def rotation(q):
    """The rotation of R^3 given by a nonzero quaternion."""
    a, b, c, d = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (c * c + d * d), 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), 1 - 2 * (b * b + d * d), 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), 1 - 2 * (b * b + c * c)]])


quaternions = st.tuples(*[st.floats(-1, 1)] * 4).filter(
    lambda q: math.hypot(*q) > 0.1)
scales = st.floats(0.1, 10)


@st.composite
def pointed_cones(draw):
    """3 to 8 irredundant outward normals of a pointed 3d cone, rotated,
    rescaled and shuffled: around an axis, on a circle of the given radius,
    at angles no closer than 2 pi / 160."""
    m = draw(st.integers(3, 8))
    gaps = np.cumsum(draw(st.lists(st.floats(1, 20), min_size=m,
                                   max_size=m)))
    start = draw(st.floats(0, 2 * math.pi))
    radius = draw(st.floats(0.2, 5))
    phis = start + 2 * math.pi * gaps / gaps[-1]
    normals = [s * np.array([radius * math.cos(phi), radius * math.sin(phi),
                             1.0])
               for phi, s in zip(phis, draw(st.lists(scales, min_size=m,
                                                     max_size=m)))]
    turn = rotation(draw(quaternions))
    return [tuple(turn @ n) for n in draw(st.permutations(normals))]


class TestConeFraction:
    @settings(max_examples=300, deadline=None)
    @given(pointed_cones())
    def test_pointed_cone_matches_fan_over_extreme_rays(self, normals):
        rays, edges = extreme_rays(normals)
        assert len(rays) == len(normals)
        assert abs(_cone_fraction(normals, edges) - fan_fraction(rays)
                   ) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(pointed_cones(), st.integers(0, 2**32 - 1))
    def test_cone_in_a_rotated_hyperplane_of_four_space(self, normals, seed):
        # Facet cone rows of a 4-polytope are 4-vectors in the facet's
        # hyperplane, measured there with no frame: the same cone, put in
        # a rotated 3-space of R^4, measures the same.
        _, edges = extreme_rays(normals)
        turn = np.linalg.qr(
            np.random.default_rng(seed).standard_normal((4, 4)))[0]
        lifted = [tuple(turn @ (n + (0.0,))) for n in normals]
        assert abs(_cone_fraction(lifted, edges)
                   - _cone_fraction(normals, edges)) <= 1e-14

    def test_needle_whose_unit_normals_sum_to_zero(self):
        # A square cone around the third axis, of half-angle about 1e-330:
        # each unit normal's third entry underflows to 0.0, so the four
        # sum to 0.0 and give no axis to order them around.
        normals = [(1e30, 0.0, -1e-300), (0.0, 1e30, -1e-300),
                   (-1e30, 0.0, -1e-300), (0.0, -1e30, -1e-300)]
        units = [[c / math.hypot(*n) for c in n] for n in normals]
        assert [math.fsum(c) for c in zip(*units)] == [0.0, 0.0, 0.0]
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        assert abs(_cone_fraction(normals, edges)) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, math.pi - 0.05), quaternions, scales, scales)
    def test_wedge(self, opening, q, s1, s2):
        # Outward normals of the wedge between the rays at angles 0 and
        # opening in the plane of the first two axes; it takes opening / 2 pi
        # of the circle there, and of the sphere.
        n1 = (0.0, -s1)
        n2 = (-s2 * math.sin(opening), s2 * math.cos(opening))
        expected = opening / (2 * math.pi)
        assert abs(_cone_fraction([n1, n2], ()) - expected) <= 1e-14
        turn = rotation(q)
        turned = [tuple(turn @ (n + (0.0,))) for n in (n1, n2)]
        assert abs(_cone_fraction(turned, ()) - expected) <= 1e-14

    @settings(max_examples=50, deadline=None)
    @given(quaternions, scales)
    def test_halfspace(self, q, s):
        assert _cone_fraction([tuple(rotation(q) @ (0.0, 0.0, s))], ()) == 0.5

    def test_whole_space(self):
        assert _cone_fraction([], ()) == 1.0

    def test_octant(self):
        normals = [(-1.0, 0.0, 0.0), (0.0, -2.0, 0.0), (0.0, 0.0, -3.0)]
        edges = [(0, 1), (1, 2), (2, 0)]
        assert abs(_cone_fraction(normals, edges) - 0.125) <= 1e-15


class TestExactLowDim:
    def test_segment(self):
        seg = hull_from_points([(0,), (1,)])
        assert solid_angle_exact(seg, frozenset([1])) == 0.5

    def test_equilateral_triangle_vertex(self):
        # A facet of the regular tetrahedron, in its intrinsic metric.
        tri = facet_as_polytope(REGULAR_TETRA, 0)
        assert abs(solid_angle_exact(tri, frozenset([0])) - 1.0 / 6.0) < 1e-12

    def test_cube_edge_dihedral(self):
        p = cube(3)
        edge = next(f for f in p.face_lattice().faces_of_dim(1)).vertex_set
        assert abs(solid_angle_exact(p, edge) - 0.25) < 1e-12

    def test_square_vertex(self):
        assert abs(solid_angle_exact(cube(2), frozenset([0])) - 0.25) < 1e-12

    def test_dim_four_unsupported(self):
        with pytest.raises(UnsupportedDimensionError):
            solid_angle_exact(cube(4), frozenset([0]))

    @pytest.mark.parametrize("p", [cube(3), simplex(3), cross_polytope(3)],
                             ids=("cube", "simplex", "octahedron"))
    def test_monte_carlo_agrees_everywhere(self, p):
        lattice = p.face_lattice()
        for face in lattice.faces:
            if face.dim < 0:
                continue
            oracle = solid_angle_exact(p, face)
            est = solid_angle(p, face, SAMPLES, seed=11)
            assert abs(est.mean - oracle) <= 4 * est.stderr + 1e-12


def facet_angle(p, facet_index, face, samples=SAMPLES, seed=0):
    """Oracle for the facet angles of curvature_checks: the solid angle of
    a facet, restricted to its own hyperplane and hulled again in exact
    arithmetic, at a nonempty face of p.  Exactly 0 when the face is not
    in that facet; NotAFaceError when the vertex set is no face of p."""
    _check_samples(samples)
    if not 0 <= facet_index < p.n_facets:
        raise OutOfRangeError(f"facet index {facet_index} out of range")
    vs = p.require_face(face).vertex_set
    record = p.facets[facet_index]
    if not vs <= record.vertex_set:
        return AngleEstimate(0.0, 0.0, 0, seed)
    fp = facet_as_polytope(p, facet_index)
    local = sorted(record.vertex_set)
    remap = {orig: i for i, orig in enumerate(local)}
    # A face of p inside the facet is a face of the facet: its cone there
    # needs only the facet polytope's incidences, not its lattice.
    inside = facets_containing(fp, frozenset(remap[v] for v in vs))
    return _cone_angle(fp, tuple(fp.facets[i].plane.normal for i in inside),
                       samples, seed)


def facet_angle_exact(p, facet_index, face):
    """The exact counterpart of facet_angle, for p of dimension <= 4: the
    closed-form solid angle of the facet polytope at a face of p in it."""
    local = sorted(p.facets[facet_index].vertex_set)
    return solid_angle_exact(facet_as_polytope(p, facet_index),
                             frozenset(local.index(v) for v in face))


class TestFacetAngle:
    def test_disjoint_face_is_exact_zero(self):
        p = cube(3)
        outside = next(
            v for v in range(8)
            if v not in p.facets[0].vertex_set
        )
        est = facet_angle(p, 0, frozenset([outside]))
        assert est.mean == 0.0 and est.exact

    @pytest.mark.parametrize("index", [-1, 6], ids=["minus-one", "n-facets"])
    def test_index_out_of_range(self, index):
        p = cube(3)
        assert p.n_facets == 6
        with pytest.raises(OutOfRangeError):
            facet_angle(p, index, frozenset([0]))

    def test_non_face_is_refused(self):
        p = cube(3)
        facet = p.facets[0].vertex_set
        faces = {f.vertex_set for f in p.face_lattice().faces}
        # A vertex of the facet and a vertex off it that is not its
        # neighbour: a diagonal, in no face of the cube.
        diagonal = next(frozenset([min(facet), v]) for v in range(8)
                        if v not in facet
                        and frozenset([min(facet), v]) not in faces)
        with pytest.raises(NotAFaceError):
            facet_angle(p, 0, diagonal)

    def test_cube_facet_at_edge(self):
        p = cube(3)
        facet = p.facets[0].vertex_set
        edge = next(f.vertex_set for f in p.face_lattice().faces_of_dim(1)
                    if f.vertex_set <= facet)
        est = facet_angle(p, 0, edge, SAMPLES, seed=5)
        assert within(est, 0.5)

    def test_cube_facet_at_vertex(self):
        p = cube(3)
        v = min(p.facets[0].vertex_set)
        est = facet_angle(p, 0, frozenset([v]), SAMPLES, seed=5)
        assert within(est, 0.25)

    def test_same_estimate_as_solid_angle_of_the_facet(self):
        # facet_angle reads the cone off the facet polytope's incidences;
        # solid_angle confirms the face in that polytope's own lattice.
        p = cross_polytope(4)
        for i in (0, 5):
            local = sorted(p.facets[i].vertex_set)
            fp = facet_as_polytope(p, i)
            for face in p.face_lattice().faces:
                if face.vertex_set and face.vertex_set <= p.facets[i].vertex_set:
                    remapped = frozenset(local.index(v) for v in face.vertex_set)
                    assert facet_angle(p, i, face, 2000, seed=3) == \
                        solid_angle(fp, remapped, 2000, seed=3)


def sums_oracle(p, samples, seed):
    """Per-face hits and per-k sums of X_k and X_k^2 (X_k the number of
    k-faces whose cone holds a sample), redrawing every chunk and testing
    each face against its own tangent cone."""
    lattice = p.face_lattice()
    hits = {k: [0] * len(lattice.faces_of_dim(k)) for k in range(p.dim)}
    sums = [0] * p.dim
    squares = [0] * p.dim
    for index, count in enumerate(chunk_sizes(samples)):
        z = chunk_generator(seed, index).standard_normal((count, p.dim))
        for k in range(p.dim):
            x = np.zeros(count, dtype=np.int64)
            for i, face in enumerate(lattice.faces_of_dim(k)):
                matrix = _euclidean_normal_matrix(p, tangent_cone(p, face))
                inside = (z @ matrix.T <= 0.0).all(axis=1)
                hits[k][i] += int(np.count_nonzero(inside))
                x += inside
            sums[k] += int(x.sum())
            squares[k] += int((x * x).sum())
    return hits, sums, squares


def drop_one_facet(monkeypatch, victim):
    """Make the lattice's incidences show one facet fewer through the face
    with vertex set victim: a mutant whose tangent cone at that face is
    too wide."""
    original = FaceLattice.containing

    def mutated(self, k):
        found = original(self, k).copy()
        for row, face in zip(found, self.faces_of_dim(k)):
            if face.vertex_set == victim:
                row[row.argmax()] = False
        return found

    monkeypatch.setattr(FaceLattice, "containing", mutated)


def drop_vertex_zero(monkeypatch):
    """Make the lattice list every vertex but vertex 0, and drop its row
    of incidences too, so that the rows still follow the faces."""
    faces_of_dim, containing = FaceLattice.faces_of_dim, FaceLattice.containing

    def kept(self, k):
        return [k != 0 or f.vertex_set != {0} for f in faces_of_dim(self, k)]

    monkeypatch.setattr(FaceLattice, "faces_of_dim", lambda self, k: tuple(
        itertools.compress(faces_of_dim(self, k), kept(self, k))))
    monkeypatch.setattr(FaceLattice, "containing",
                        lambda self, k: containing(self, k)[kept(self, k)])


class TestAngleSums:
    @pytest.mark.parametrize("p,samples", [
        (simplex(3), 70_000),
        (cross_polytope(4), 20_000),
        (cyclic(7, 3), 9_000),
        # A restricted polytope: its metric scales the normals.
        (facet_as_polytope(REGULAR_TETRA, 0), 5_000),
    ], ids=("simplex-3", "cross-4", "cyclic-7-3", "tetra-facet"))
    def test_matches_per_face_oracle(self, p, samples):
        hits, sums, squares = sums_oracle(p, samples, seed=12)
        reports = angle_sums(p, samples, seed=12)
        assert [r.k for r in reports] == list(range(p.dim))
        for r in reports:
            k = r.k
            assert [round(e.mean * samples) for e in r.estimates] == hits[k]
            assert all(e.samples == samples and e.seed == 12
                       for e in r.estimates)
            assert r.total == sums[k] / samples
            assert r.stderr == math.sqrt(
                (samples * squares[k] - sums[k] ** 2) / samples ** 3)

    def test_constant_sums_are_exact(self):
        assert [(r.total, r.stderr) for r in angle_sums(cube(4), 20_000, 1)
                ] == [(1.0, 0.0), (4.0, 0.0), (6.0, 0.0), (4.0, 0.0)]
        rep = angle_sums(cube(3), 20_000, seed=1)[1]
        assert (rep.total, rep.stderr) == (3.0, 0.0)
        rep = angle_sums(SYMMETRIC_HEXAGON, 20_000, seed=1)[0]
        assert (rep.total, rep.stderr) == (2.0, 0.0)

    def test_reports_are_angle_sums(self):
        p = simplex(3)
        for r in angle_sums(p, 5_000, seed=3):
            assert len(r.estimates) == p.f_vector().count(r.k)
            assert math.isclose(r.total, sum(e.mean for e in r.estimates))

    def test_sample_count_guards(self):
        for p in (cube(2), simplex(1)):
            with pytest.raises(OutOfRangeError):
                angle_sums(p, 0)
            with pytest.raises(TooLargeError):
                angle_sums(p, MAX_SAMPLES + 1)

    def test_wrong_cone_breaks_gram(self, monkeypatch):
        drop_one_facet(monkeypatch, frozenset([0]))
        with pytest.raises(GramViolationError, match="chunk 0 of seed 5"):
            angle_sums(cube(3), 2_000, seed=5)

    def test_wrong_cone_is_a_json_error_line(self, monkeypatch, capsys):
        drop_one_facet(monkeypatch, frozenset([0]))
        assert main(["angles", "--family", "cube", "--dim", "3",
                     "--samples", "2000", "--directions", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "GramViolationError"

    def test_process_invariance(self):
        outs = in_fresh_processes(
            "from polyface.angles import angle_sums\n"
            "from polyface.generators import cross_polytope\n"
            "print(repr(angle_sums(cross_polytope(4), 140000, seed=4)))\n"
        )
        assert outs[0] == outs[1]

    def test_segment_exact_one(self):
        seg = hull_from_points([(0,), (1,)])
        rep = angle_sums(seg)[0]
        assert rep.total == 1.0 and rep.stderr == 0.0

    def test_triangle_half(self):
        rep = angle_sums(simplex(2), SAMPLES, seed=2)[0]
        assert abs(rep.total - 0.5) <= 4 * rep.stderr

    def test_cube_edges_three(self):
        rep = angle_sums(cube(3), SAMPLES, seed=2)[1]
        assert abs(rep.total - 3.0) <= 4 * rep.stderr


# Largest |z| of a per-facet angle of curvature_checks against the facet
# polytope oracle at an independent seed: a two-sided normal tail of
# 6e-7 per comparison, over about 1,200 comparisons.
FACET_Z_BOUND = 5.0


class TestCurvature:
    def test_cube_edge_exact_equality(self):
        edges = [r for r in curvature_checks(cube(3), 2000, seed=6)
                 if r.face_dim == 1]
        assert len(edges) == 12
        for rep in edges:
            assert rep.total == 1.0 and rep.exact and rep.equality and rep.ok
            assert [e.mean for e in rep.facet_angles] == [0.5, 0.5]

    def test_cube_vertex_three_quarters(self):
        vertices = [r for r in curvature_checks(cube(3), SAMPLES, seed=6)
                    if r.face_dim == 0]
        assert len(vertices) == 8
        for rep in vertices:
            assert rep.exact and rep.stderr == 0.0
            assert abs(rep.total - 0.75) <= EXACT_SLACK * 3
            assert rep.ok and not rep.equality

    def test_tetrahedron_vertex_half(self):
        for rep in curvature_checks(REGULAR_TETRA, SAMPLES, seed=6):
            if rep.face_dim == 0:
                assert rep.exact and abs(rep.total - 0.5) <= EXACT_SLACK * 3

    def test_builds_no_hull(self, monkeypatch):
        # Each facet's angles come from p's own facet normals, projected onto
        # the facet's hyperplane, in closed form or sampled, so once p is
        # built no facet polytope is hulled.
        c4, s5 = cube(4), simplex(5)
        calls = []
        original = polyface._hull.incremental_facets

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(polyface._hull, "incremental_facets", counting)
        assert all(r.exact for r in curvature_checks(c4, 2000, seed=6))
        assert any(not r.exact for r in curvature_checks(s5, 2000, seed=6))
        assert calls == []

    @pytest.mark.parametrize("base,metric,totals", [
        (hull_from_points([[x, y, z] for x in (0, 1) for y in (0, 1)
                           for z in (0, 1)]),
         (1, 1, 25), {0: 0.75, 1: 1.0}),
        # A box of sides 1, 1, 1, 2.
        (hull_from_points([[x, y, z, 2 * w] for x in (0, 1) for y in (0, 1)
                           for z in (0, 1) for w in (0, 1)]),
         (1, 1, 1, 25), {0: 0.5, 1: 0.75, 2: 1.0}),
        # Not a box: read without its metric, it is no octahedron.
        (cross_polytope(3), (25, 1, 1), {0: 2 / 3, 1: 1.0}),
    ], ids=("cube-3", "box-1112", "cross-3"))
    def test_isometric_embedding(self, base, metric, totals):
        # (x, ...) -> (3x/5, 4x/5, ...) is an isometry with rational
        # coordinates; the polytope is restricted to its hull, with a metric.
        p = hull_from_points([(c[0] * 3 / 5, c[0] * 4 / 5) + c[1:]
                              for c in base.vertices])
        assert (p.dim, p.ambient_dim) == (base.dim, base.dim + 1)
        assert p.metric == metric
        for rep in curvature_checks(p, 1000, seed=3):
            assert rep.exact
            assert abs(rep.total - totals[rep.face_dim]) <= (
                EXACT_SLACK * len(rep.facet_angles))

    def test_face_dim_guard(self):
        # One report per face of dimension 0..dim-2, in lattice order; the
        # facets and the polytope itself get none.
        for p in (cube(3), simplex(4), cube(2), simplex(1)):
            lattice = p.face_lattice()
            expected = [tuple(sorted(f.vertex_set))
                        for k in range(p.dim - 1)
                        for f in lattice.faces_of_dim(k)]
            reports = curvature_checks(p, 1000, seed=2)
            assert [r.face for r in reports] == expected
            assert all(0 <= r.face_dim <= p.dim - 2 for r in reports)

    @pytest.mark.parametrize("samples,error", [
        (0, OutOfRangeError), (MAX_SAMPLES + 1, TooLargeError)])
    def test_sample_count_guards(self, samples, error):
        # Refused before the exact cases that sample nothing: a vertex off
        # the facet, a polytope whose faces below the facets are all
        # ridges, and one with no such face at all.
        c3 = cube(3)
        outside = min(set(range(8)) - c3.facets[0].vertex_set)
        with pytest.raises(error):
            facet_angle(c3, 0, frozenset([outside]), samples)
        for p in (cube(2), simplex(1), cube(3)):
            with pytest.raises(error):
                curvature_checks(p, samples)

    @pytest.mark.parametrize("p", [
        cube(4), cross_polytope(4), simplex(5), cyclic(9, 5),
        random_sphere(3, 12, 0), pyramid(cube(2)), cyclic(8, 4),
        near_cube(3, 8), near_cube(3, 12), near_cube(4, 8), near_cube(4, 12),
    ], ids=("cube-4", "cross-4", "simplex-5", "cyclic-5-9",
            "random-sphere-3-12", "pyramid-square", "cyclic-4-8",
            "near-cube-3-8", "near-cube-3-12", "near-cube-4-8",
            "near-cube-4-12"))
    def test_facet_angles_match_facet_polytope_oracle(self, p):
        # Below dimension 5 every row is exact and ok, ridges included,
        # and each of its facet angles is compared with the exact oracle;
        # from dimension 5 the sampled rows are compared with the sampled
        # one.  The facets at a split square of a near-cube are nearly
        # parallel: a float projection of one's normal onto the other's
        # hyperplane is rounding noise there, which broke Gram's relation
        # at d = 3 and put d = 4 angles off by up to 0.35.
        samples, seed = 4_000, 21
        compared = pairs = 0
        for rep in curvature_checks(p, samples, seed):
            through = facets_containing(p, frozenset(rep.face))
            assert [e.seed for e in rep.facet_angles] == [
                derive_seed(seed, "facet", j) for j in through]
            pairs += len(through)
            if p.dim <= 4:
                assert rep.exact and rep.stderr == 0.0 and rep.ok
                for j, est in zip(through, rep.facet_angles):
                    assert est.exact
                    assert abs(est.mean - facet_angle_exact(p, j, rep.face)
                               ) <= 1e-12, (rep.face, j)
                    compared += 1
                continue
            if rep.exact:
                continue
            hits = [round(e.mean * samples) for e in rep.facet_angles]
            assert rep.total == sum(hits) / samples
            assert math.isclose(rep.stderr, math.sqrt(
                sum(e.stderr ** 2 for e in rep.facet_angles)))
            for j, est in zip(through, rep.facet_angles):
                oracle = facet_angle(p, j, frozenset(rep.face), samples,
                                     derive_seed(seed, "oracle", j))
                spread = math.hypot(est.stderr, oracle.stderr)
                assert abs(est.mean - oracle.mean) <= (
                    FACET_Z_BOUND * spread + 1e-12), (rep.face, j)
                compared += 1
        # pyramid-square has only 32 (face, facet) pairs: it compares all.
        assert compared >= min(100, pairs)

    @pytest.mark.parametrize("entry", needle_corpus(), ids=lambda e: e.name)
    def test_needle_closed_forms_match_sampled_cones(self, entry):
        # Each closed-form facet angle of a needle-thin 4-polytope against
        # 20,000 draws per facet of the same cone rows (the stream that
        # curvature_checks reads from dimension 5), within SIGMA_FACTOR
        # standard errors of the closed form.  Ordering the unit normals
        # around their sum once divided by 0.0 on needle-tip and measured
        # -0.0644 at a vertex of needle-facet, where no draw hits.
        p, samples, seed = entry.polytope, 20_000, 1
        lattice = p.face_lattice()
        faces = [f for k in range(p.dim - 1) for f in lattice.faces_of_dim(k)]
        containing = np.concatenate([lattice.containing(k)
                                     for k in range(p.dim - 1)])
        exact = _facet_angles_exact(p, faces, containing)
        seeds = [derive_seed(seed, "facet", j) for j in range(p.n_facets)]
        hits = _facet_hits(p, samples, seeds, faces, containing)
        assert exact.keys() == hits.keys()
        for key, alpha in exact.items():
            assert -EXACT_SLACK <= alpha <= 1.0 + EXACT_SLACK, key
            spread = math.sqrt(max(alpha * (1.0 - alpha), 0.0) / samples)
            assert abs(hits[key] / samples - alpha) <= (
                SIGMA_FACTOR * spread + EXACT_SLACK), key

    @pytest.mark.parametrize("entry", needle_corpus(), ids=lambda e: e.name)
    def test_needle_totals_are_not_negative(self, entry):
        # A closed-form cone area is float rounding around 0 at a needle's
        # tip; at vertex 6 of needle-tip it once summed to -2.12e-16.
        for rep in curvature_checks(entry.polytope, 1_000, seed=1):
            assert rep.total >= 0.0, rep.face
            assert all(e.mean >= 0.0 for e in rep.facet_angles), rep.face

    def test_dropped_face_breaks_gram(self, monkeypatch):
        # Vertex 0 missing from every facet's face list: its quadrant of
        # each square is then held by no listed face.
        drop_vertex_zero(monkeypatch)
        with pytest.raises(GramViolationError, match="in facet"):
            curvature_checks(cube(3), 2_000, seed=5)

    def test_dropped_face_breaks_gram_cube4(self, monkeypatch):
        # Each 3-cube facet through vertex 0 misses its octant.
        drop_vertex_zero(monkeypatch)
        with pytest.raises(GramViolationError, match="in facet"):
            curvature_checks(cube(4), 2_000, seed=5)

    def test_wrong_cone_breaks_gram(self, monkeypatch):
        # Vertex 0 sees one facet fewer.  Sampled, its cone in the other
        # two facets through it widens from a quadrant to a halfplane; in
        # closed form, the facet it no longer sees misses its quadrant.
        drop_one_facet(monkeypatch, frozenset([0]))
        with pytest.raises(GramViolationError, match="in facet"):
            curvature_checks(cube(3), 2_000, seed=5)

    def test_wrong_cone_breaks_gram_cube4(self, monkeypatch):
        # The facet that vertex 0 no longer sees misses its octant.
        drop_one_facet(monkeypatch, frozenset([0]))
        with pytest.raises(GramViolationError, match="in facet 0"):
            curvature_checks(cube(4), 2_000, seed=5)

    @pytest.mark.parametrize("digits", [120, 160, 200])
    def test_big_coordinates(self, digits):
        # Facet normals of points of size 10^k reach 10^(2k): at k = 120
        # their squares overflowed to NaN totals, and from k = 160 the
        # conversion to floats raised OverflowError.  A copy scaled by
        # 10^(k-6) and moved by a few units has the same angles, to far
        # below the float precision.
        points, moved = gaussian_points(digits)
        small = curvature_checks(hull_from_points(points), 2000, 1)
        big = curvature_checks(hull_from_points(moved), 2000, 1)
        assert [r.face for r in big] == [r.face for r in small]
        for a, b in zip(small, big):
            assert b.ok and abs(a.total - b.total) <= 1e-12

    def test_process_invariance(self):
        # 140,000 samples is three chunks of every facet's stream; from
        # dimension 5 the facet angles are sampled.
        outs = in_fresh_processes(
            "from polyface.angles import curvature_checks\n"
            "from polyface.generators import simplex\n"
            "print(repr(curvature_checks(simplex(5), 140000, seed=4)))\n"
        )
        assert outs[0] == outs[1]
        assert "exact=False" in outs[0]

    def test_nearly_flat_ridges_sampled(self):
        # A float projection in the sampled facet streams of near_cube(5, 8)
        # made samples break Gram's relation.
        reports = curvature_checks(near_cube(5, 8), 20_000, seed=1)
        assert reports and all(r.ok for r in reports)


class TestAngleSumFloor:
    def test_segment_equality_exact(self):
        seg = hull_from_points([(0,), (1,)])
        rep = angle_sum_lower_check(seg, angle_sums(seg)[0])
        assert rep.total == 1.0 and rep.bound == 1 and rep.passed
        assert rep.equality and rep.stderr == 0.0

    def test_triangle_equality(self):
        tri = simplex(2)
        rep = angle_sum_lower_check(tri, angle_sums(tri, SAMPLES, seed=8)[0])
        assert rep.passed and rep.equality
        assert rep.bound == 0.5

    def test_cube_strict(self):
        p = cube(3)
        rep = angle_sum_lower_check(p, angle_sums(p, SAMPLES, seed=8)[1])
        assert rep.passed and rep.bound == 1 and not rep.equality


class TestProjectionAngleBound:
    def test_hexagon_equality(self):
        hexa = cyclic(6, 2)
        rep = projection_angle_check(hexa,
                                     angle_sums(hexa, 300_000, seed=3)[0],
                                     _directions(hexa, 3, 5))
        assert rep.verdict == "PASS" and rep.equality
        assert rep.bound == 2 and all(c == 2 for c in rep.shadow_counts)

    def test_cube_edges_equality(self):
        p = cube(3)
        rep = projection_angle_check(p, angle_sums(p, 300_000, seed=3)[1],
                                     _directions(p, 3, 5))
        assert rep.verdict == "PASS" and rep.equality
        assert rep.bound == 3 and all(c == 6 for c in rep.shadow_counts)

    def test_tetrahedron_never_errors(self):
        p = simplex(3)
        dirs = _directions(p, 5, 6)
        for report in angle_sums(p, 60_000, seed=5):
            rep = projection_angle_check(p, report, dirs)
            assert rep.verdict in ("PASS", "WARN")

    def test_no_directions_is_refused(self):
        p = cube(3)
        with pytest.raises(OutOfRangeError):
            projection_angle_check(p, angle_sums(p, 1000, seed=3)[1], [])

    def test_reads_k_from_the_report(self):
        p = cube(3)
        report = angle_sums(p, 1000, seed=3)[1]
        floor = angle_sum_lower_check(p, report)
        proj = projection_angle_check(p, report, _directions(p, 3, 2))
        for rep in (floor, proj):
            assert (rep.k, rep.total, rep.stderr) == (1, report.total,
                                                      report.stderr)

    def test_top_dimensional_sum_is_refused(self):
        p = cube(3)
        report = AngleSumReport(p.dim, 1.0, 0.0, ())
        with pytest.raises(OutOfRangeError, match="got 3"):
            angle_sum_lower_check(p, report)
        with pytest.raises(OutOfRangeError, match="got 3"):
            projection_angle_check(p, report, _directions(p, 3, 1))
