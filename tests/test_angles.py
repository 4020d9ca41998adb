"""Solid angles: tangent cones, Monte Carlo vs closed forms, angle sums."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import polyface._hull
import polyface.angles
from polyface._rng import chunk_generator, chunk_sizes, derive_seed, thread_count
from polyface.angles import (
    MAX_SAMPLES,
    AngleEstimate,
    AngleSumReport,
    _check_samples,
    _cone_angle,
    _euclidean_normal_matrix,
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
from polyface.generators import cross_polytope, cube, cyclic, simplex
from polyface.lattice import FaceLattice
from polyface.polytope import Polytope, hull_from_points
from polyface.projection import sample_direction

SAMPLES = 120_000

def _directions(p, seed, count):
    """Directions sampled as the CLI samples them: the i-th from the seed
    derived from (seed, "dir", i)."""
    return [sample_direction(p, derive_seed(seed, "dir", i))
            for i in range(count)]


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

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="one CPU: the thread cap makes every run serial")
    def test_thread_count_invariance(self):
        # Chunked integer aggregation: same bits regardless of pool size.
        code = (
            "import os; os.environ['POLYFACE_THREADS'] = '%s'\n"
            "from polyface.angles import solid_angle\n"
            "from polyface.generators import cube\n"
            "print(repr(solid_angle(cube(3), frozenset([0]), 200000, seed=4)))\n"
        )
        outs = [
            subprocess.run([sys.executable, "-c", code % threads],
                           capture_output=True, text=True, check=True).stdout
            for threads in ("1", "4")
        ]
        assert outs[0] == outs[1]

    def test_pool_capped_by_cpus_and_chunks(self, monkeypatch):
        # A spy pool that maps serially: no thread is started.
        sizes = []

        class SpyPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(polyface.angles, "ThreadPoolExecutor", SpyPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("POLYFACE_THREADS", "100000")
        assert thread_count() == 4
        pooled = [solid_angle(cube(3), frozenset([0]), n, seed=4)
                  for n in (140_000, 700_000)]  # 3 and 11 chunks
        assert sizes == [3, 4]
        monkeypatch.setenv("POLYFACE_THREADS", "1")
        assert pooled == [solid_angle(cube(3), frozenset([0]), n, seed=4)
                          for n in (140_000, 700_000)]
        assert sizes == [3, 4]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        monkeypatch.setenv("POLYFACE_THREADS", "8")
        assert thread_count() == 1


class TestExactLowDim:
    def test_segment(self):
        seg = hull_from_points([(0,), (1,)])
        assert solid_angle_exact(seg, frozenset([1])) == 0.5

    def test_equilateral_triangle_vertex(self):
        # A facet of the regular tetrahedron, in its intrinsic metric.
        tri = REGULAR_TETRA.facet_as_polytope(0)
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
    fp = p.facet_as_polytope(facet_index)
    local = sorted(record.vertex_set)
    remap = {orig: i for i, orig in enumerate(local)}
    # A face of p inside the facet is a face of the facet: its cone there
    # needs only the facet polytope's incidences, not its lattice.
    inside = fp.facets_containing(frozenset(remap[v] for v in vs))
    return _cone_angle(fp, tuple(fp.facets[i].plane.normal for i in inside),
                       samples, seed)


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
            fp = p.facet_as_polytope(i)
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
    """Make every caller see one facet fewer through the vertex set
    victim: a mutant whose tangent cone at that face is too wide."""
    original = Polytope.facets_containing

    def mutated(self, vertex_set):
        found = original(self, vertex_set)
        return found[1:] if vertex_set == victim else found

    monkeypatch.setattr(Polytope, "facets_containing", mutated)


class TestAngleSums:
    @pytest.mark.parametrize("p,samples", [
        (simplex(3), 70_000),
        (cross_polytope(4), 20_000),
        (cyclic(7, 3), 9_000),
        # A restricted polytope: its metric scales the normals.
        (REGULAR_TETRA.facet_as_polytope(0), 5_000),
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

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="one CPU: the thread cap makes every run serial")
    def test_thread_count_invariance(self):
        code = (
            "import os; os.environ['POLYFACE_THREADS'] = '%s'\n"
            "from polyface.angles import angle_sums\n"
            "from polyface.generators import cross_polytope\n"
            "print(repr(angle_sums(cross_polytope(4), 140000, seed=4)))\n"
        )
        outs = [
            subprocess.run([sys.executable, "-c", code % threads],
                           capture_output=True, text=True, check=True).stdout
            for threads in ("1", "4")
        ]
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
            assert abs(rep.total - 0.75) <= 4 * rep.stderr
            assert rep.ok and not rep.equality and not rep.exact

    def test_tetrahedron_vertex_half(self):
        for rep in curvature_checks(REGULAR_TETRA, SAMPLES, seed=6):
            if rep.face_dim == 0:
                assert abs(rep.total - 0.5) <= 4 * rep.stderr

    def test_builds_no_hull(self, monkeypatch):
        # Each facet's angles come from projected normals of p, so once p
        # is built no facet polytope is hulled.
        p = cube(4)
        calls = []
        original = polyface._hull.incremental_facets

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(polyface._hull, "incremental_facets", counting)
        reports = curvature_checks(p, 2000, seed=6)
        assert any(not r.exact for r in reports)
        assert calls == []

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
    ], ids=("cube-4", "cross-4", "simplex-5", "cyclic-5-9"))
    def test_facet_angles_match_facet_polytope_oracle(self, p):
        samples, seed = 4_000, 21
        compared = 0
        for rep in curvature_checks(p, samples, seed):
            through = p.facets_containing(frozenset(rep.face))
            assert [e.seed for e in rep.facet_angles] == [
                derive_seed(seed, "facet", j) for j in through]
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
        assert compared >= 100

    def test_dropped_face_breaks_gram(self, monkeypatch):
        # Vertex 0 missing from every facet's face list: its quadrant of
        # each square is then held by no listed face.
        original = FaceLattice.faces_of_dim

        def mutated(self, k):
            faces = original(self, k)
            return tuple(f for f in faces if f.vertex_set != {0}) \
                if k == 0 else faces

        monkeypatch.setattr(FaceLattice, "faces_of_dim", mutated)
        with pytest.raises(GramViolationError, match="in facet"):
            curvature_checks(cube(3), 2_000, seed=5)

    def test_wrong_cone_breaks_gram(self, monkeypatch):
        # Vertex 0 sees one facet fewer: in the other two facets through
        # it, its cone widens from a quadrant to a halfplane.
        drop_one_facet(monkeypatch, frozenset([0]))
        with pytest.raises(GramViolationError, match="in facet"):
            curvature_checks(cube(3), 2_000, seed=5)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="one CPU: the thread cap makes every run serial")
    def test_thread_count_invariance(self):
        # 140,000 samples is three chunks of every facet's stream.
        code = (
            "import os; os.environ['POLYFACE_THREADS'] = '%s'\n"
            "from polyface.angles import curvature_checks\n"
            "from polyface.generators import simplex\n"
            "print(repr(curvature_checks(simplex(4), 140000, seed=4)))\n"
        )
        outs = [
            subprocess.run([sys.executable, "-c", code % threads],
                           capture_output=True, text=True, check=True).stdout
            for threads in ("1", "4")
        ]
        assert outs[0] == outs[1]


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
        with pytest.raises(OutOfRangeError):
            angle_sum_lower_check(p, report)
        with pytest.raises(OutOfRangeError):
            projection_angle_check(p, report, _directions(p, 3, 1))
