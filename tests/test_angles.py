"""Solid angles: tangent cones, Monte Carlo vs closed forms, angle sums."""
import math
import subprocess
import sys

import pytest

from polyface._rng import derive_seed
from polyface.angles import (
    MAX_SAMPLES,
    angle_sum,
    angle_sum_lower_check,
    curvature_check,
    facet_angle,
    projection_angle_check,
    solid_angle,
    solid_angle_exact,
    tangent_cone,
)
from polyface.errors import (
    NotAFaceError,
    OutOfRangeError,
    TooLargeError,
    UnsupportedDimensionError,
)
from polyface.generators import cross_polytope, cube, cyclic, simplex
from polyface.polytope import hull_from_points
from polyface.projection import sample_direction

SAMPLES = 120_000

def _directions(p, seed, count):
    """Directions sampled as the CLI samples them: the i-th from the seed
    derived from (seed, "dir", i)."""
    return [sample_direction(p, derive_seed(seed, "dir", i))
            for i in range(count)]


# Rational-coordinate regular tetrahedron (all edges sqrt(2)).
REGULAR_TETRA = hull_from_points([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)])


def within(est, value, sigmas=4.0):
    return abs(est.mean - value) <= sigmas * est.stderr


class TestTangentCone:
    def test_cube_vertex_three_normals(self):
        cone = tangent_cone(cube(3), frozenset([0]))
        assert len(cone.normals) == 3

    def test_cube_facet_one_normal(self):
        p = cube(3)
        cone = tangent_cone(p, p.facets[0].vertex_set)
        assert len(cone.normals) == 1

    def test_whole_polytope_empty_cone(self):
        p = cube(3)
        cone = tangent_cone(p, frozenset(range(8)))
        assert cone.normals == ()

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


class TestFacetAngle:
    def test_disjoint_face_is_exact_zero(self):
        p = cube(3)
        outside = next(
            v for v in range(8)
            if v not in p.facets[0].vertex_set
        )
        est = facet_angle(p, 0, frozenset([outside]))
        assert est.mean == 0.0 and est.exact

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


class TestAngleSums:
    def test_segment_exact_one(self):
        seg = hull_from_points([(0,), (1,)])
        rep = angle_sum(seg, 0)
        assert rep.total == 1.0 and rep.stderr == 0.0

    def test_triangle_half(self):
        rep = angle_sum(simplex(2), 0, SAMPLES, seed=2)
        assert abs(rep.total - 0.5) <= 4 * rep.stderr

    def test_cube_edges_three(self):
        rep = angle_sum(cube(3), 1, SAMPLES, seed=2)
        assert abs(rep.total - 3.0) <= 4 * rep.stderr

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            angle_sum(cube(2), 5)


class TestCurvature:
    def test_cube_edge_exact_equality(self):
        p = cube(3)
        edge = next(f for f in p.face_lattice().faces_of_dim(1))
        rep = curvature_check(p, edge)
        assert rep.total == 1.0 and rep.exact and rep.equality and rep.ok

    def test_cube_vertex_three_quarters(self):
        rep = curvature_check(cube(3), frozenset([0]), SAMPLES, seed=6)
        assert abs(rep.total - 0.75) <= 4 * rep.stderr
        assert rep.ok and not rep.equality

    def test_tetrahedron_vertex_half(self):
        rep = curvature_check(REGULAR_TETRA, frozenset([0]), SAMPLES, seed=6)
        assert abs(rep.total - 0.5) <= 4 * rep.stderr

    def test_face_dim_guard(self):
        p = cube(3)
        with pytest.raises(OutOfRangeError):
            curvature_check(p, p.facets[0].vertex_set)


class TestAngleSumFloor:
    def test_segment_equality_exact(self):
        seg = hull_from_points([(0,), (1,)])
        rep = angle_sum_lower_check(seg, angle_sum(seg, 0))
        assert rep.total == 1.0 and rep.bound == 1 and rep.passed
        assert rep.equality and rep.stderr == 0.0

    def test_triangle_equality(self):
        tri = simplex(2)
        rep = angle_sum_lower_check(tri, angle_sum(tri, 0, SAMPLES, seed=8))
        assert rep.passed and rep.equality
        assert rep.bound == 0.5

    def test_cube_strict(self):
        p = cube(3)
        rep = angle_sum_lower_check(p, angle_sum(p, 1, SAMPLES, seed=8))
        assert rep.passed and rep.bound == 1 and not rep.equality


class TestProjectionAngleBound:
    def test_hexagon_equality(self):
        hexa = cyclic(6, 2)
        rep = projection_angle_check(hexa, angle_sum(hexa, 0, 300_000, seed=3),
                                     _directions(hexa, 3, 5))
        assert rep.verdict == "PASS" and rep.equality
        assert rep.bound == 2 and all(c == 2 for c in rep.shadow_counts)

    def test_cube_edges_equality(self):
        p = cube(3)
        rep = projection_angle_check(p, angle_sum(p, 1, 300_000, seed=3),
                                     _directions(p, 3, 5))
        assert rep.verdict == "PASS" and rep.equality
        assert rep.bound == 3 and all(c == 6 for c in rep.shadow_counts)

    def test_tetrahedron_never_errors(self):
        p = simplex(3)
        dirs = _directions(p, 5, 6)
        for k in range(3):
            rep = projection_angle_check(p, angle_sum(p, k, 60_000, seed=5),
                                         dirs)
            assert rep.verdict in ("PASS", "WARN")

    def test_no_directions_is_refused(self):
        p = cube(3)
        with pytest.raises(OutOfRangeError):
            projection_angle_check(p, angle_sum(p, 1, 1000, seed=3), [])

    def test_reads_k_from_the_report(self):
        p = cube(3)
        report = angle_sum(p, 1, 1000, seed=3)
        floor = angle_sum_lower_check(p, report)
        proj = projection_angle_check(p, report, _directions(p, 3, 2))
        for rep in (floor, proj):
            assert (rep.k, rep.total, rep.stderr) == (1, report.total,
                                                      report.stderr)

    def test_top_dimensional_sum_is_refused(self):
        p = cube(3)
        report = angle_sum(p, 3, 1000)
        with pytest.raises(OutOfRangeError):
            angle_sum_lower_check(p, report)
        with pytest.raises(OutOfRangeError):
            projection_angle_check(p, report, _directions(p, 3, 1))
