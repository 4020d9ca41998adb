"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Exact criteria use
zero tolerance; statistical criteria use 4 standard errors at the stated
sample counts.  Projection criteria run over every corpus polytope of
dimension at least 2, the 6-cube included, with 20 seeded directions
each, all in general position by construction.
"""
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from polyface._rng import derive_seed
from polyface.angles import (
    angle_sum,
    angle_sum_lower_check,
    curvature_check,
    projection_angle_check,
    solid_angle,
    solid_angle_exact,
)
from polyface.bounds import min_face_check, ratio_bound, verify_main_bounds
from polyface.generators import cross_polytope, cube, cyclic, simplex
from polyface.projection import (
    diagram_vertices,
    gap_check,
    sample_direction,
)

from corpus import extended_corpus, standard_corpus
from test_bounds import binomial_convexity_check

SIGMA = 4.0
FULL_SAMPLES = 1_000_000
SWEEP_SAMPLES = 20_000
DIRECTIONS = 20


@pytest.fixture(scope="module")
def corpus():
    entries = standard_corpus()
    assert len(entries) >= 50
    return entries


@pytest.fixture(scope="module")
def full_corpus():
    """Standard corpus plus the nearly flat extras; every exact criterion
    runs over this larger set."""
    return extended_corpus()


@pytest.fixture(scope="module")
def projection_corpus(full_corpus):
    """Every corpus entry of dim >= 2 with 20 directions each (their
    shadows are cached on the polytopes, so the criteria below share
    them)."""
    return {
        entry.name: (entry.polytope, [
            sample_direction(entry.polytope, derive_seed(0, entry.name, i))
            for i in range(DIRECTIONS)])
        for entry in full_corpus if entry.polytope.dim >= 2
    }


def _report(n, name, detail):
    print(f"ACCEPTANCE {n:2d} {name}: PASS ({detail})")


def test_criterion_01_f_vector_closed_forms():
    t0 = time.time()
    for d in range(1, 6):
        fv = simplex(d).f_vector()
        for k in range(d):
            assert fv.count(k) == comb(d + 1, k + 1)
    for d in range(2, 6):
        fv = cube(d).f_vector()
        for k in range(d):
            assert fv.count(k) == 2 ** (d - k) * comb(d, k)
    for d in range(2, 6):
        fv = cross_polytope(d).f_vector()
        for k in range(d):
            assert fv.count(k) == 2 ** (k + 1) * comb(d, k + 1)
    for n in range(5, 9):
        assert cyclic(n, 4).f_vector().count(3) == n * (n - 3) // 2
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(1, "f-vector closed forms", f"exact, {elapsed:.1f}s")


def test_criterion_02_euler_relation(corpus, full_corpus):
    randoms = [e for e in corpus if e.family == "random-sphere"]
    assert len(randoms) == 20
    assert max(e.dim for e in corpus) == 6
    for entry in full_corpus:
        fv = entry.polytope.f_vector()  # construction asserts Euler
        total = sum((-1) ** k * c for k, c in enumerate(fv.counts))
        assert total == 1 - (-1) ** entry.dim
    _report(2, "Euler relation", f"{len(full_corpus)} polytopes, exact")


def test_criterion_03_main_bounds_with_equality_cases(full_corpus):
    equalities = 0
    for entry in full_corpus:
        report = verify_main_bounds(entry.polytope)  # raises on violation
        assert report.all_ok(), entry.name
        for row in report.rows:
            assert row.equality_vertices == row.predicted_equality_vertices
            assert row.equality_facets == row.predicted_equality_facets
            equalities += row.equality_vertices + row.equality_facets
    _report(3, "main ratio bounds", f"{len(full_corpus)} polytopes, "
            f"{equalities} predicted equalities, exact")


def test_criterion_04_minimum_face_count(full_corpus):
    for entry in full_corpus:
        rep = min_face_check(entry.polytope)
        assert rep.ok, entry.name
    _report(4, "minimum face-count rule",
            f"{len(full_corpus)} polytopes, exact")


def test_criterion_05_ratio_bound_self_tests():
    for d in range(1, 21):
        assert ratio_bound(d, 0) == 1
        if d >= 2:
            assert ratio_bound(d, 1) == Fraction(d, 2)
    for d in range(1, 20, 2):
        k = (d - 1) // 2
        assert ratio_bound(d, k) == Fraction(d - 1, 4) + 1
    checked = 0
    for a in range(41):
        for b in range(41):
            for c in range(41):
                assert binomial_convexity_check(a, b, c)
                checked += 1
    _report(5, "bound self-tests", f"rho values d<=20, convexity sweep "
            f"{checked} triples, exact")


def test_criterion_06_solid_angle_oracles():
    t0 = time.time()
    sq = solid_angle(cube(2), frozenset([0]), FULL_SAMPLES, seed=1)
    assert abs(sq.mean - 0.25) <= SIGMA * sq.stderr
    cv = solid_angle(cube(3), frozenset([0]), FULL_SAMPLES, seed=1)
    assert abs(cv.mean - 0.125) <= SIGMA * cv.stderr
    checked = 0
    for p in (cube(3), simplex(3), cross_polytope(3)):
        for i in range(p.n_facets):
            est = solid_angle(p, p.facets[i].vertex_set, FULL_SAMPLES, seed=2)
            assert abs(est.mean - 0.5) <= SIGMA * est.stderr
            assert est.stderr == pytest.approx(5e-4, rel=0.1)
            checked += 1
        for face in p.face_lattice().faces:
            if face.dim < 0:
                continue
            oracle = solid_angle_exact(p, face)
            est = solid_angle(p, face, FULL_SAMPLES,
                              seed=derive_seed(3, str(sorted(face.vertex_set))))
            assert abs(est.mean - oracle) <= SIGMA * est.stderr + 1e-12
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(6, "solid-angle oracles", f"{checked} angles at 1e6 samples, "
            f"{elapsed:.1f}s")


def test_criterion_07_curvature_bound(corpus):
    exact_equalities = 0
    strict_cases = 0
    worst = 0.0
    for entry in corpus:
        p = entry.polytope
        if p.dim < 2:
            continue
        lattice = p.face_lattice()
        for k in range(0, p.dim - 1):
            for face in lattice.faces_of_dim(k):
                if k == p.dim - 2:
                    rep = curvature_check(p, face)
                    assert rep.exact and rep.total == 1.0 and rep.equality
                    exact_equalities += 1
                else:
                    rep = curvature_check(p, face, SWEEP_SAMPLES,
                                          seed=derive_seed(7, entry.name, k))
                    assert rep.total <= 0.99, (entry.name, face, rep.total)
                    strict_cases += 1
                    worst = max(worst, rep.total)
    _report(7, "curvature bound", f"{exact_equalities} ridge equalities "
            f"exact, {strict_cases} strict cases (max {worst:.3f} <= 0.99)")


def test_criterion_08_angle_sum_floor(corpus):
    seg = angle_sum_lower_check(simplex(1), angle_sum(simplex(1), 0))
    assert seg.total == 1.0 and seg.bound == 1 and seg.stderr == 0.0
    assert seg.passed and seg.equality
    tri = angle_sum_lower_check(
        simplex(2), angle_sum(simplex(2), 0, 400_000, seed=8))
    assert tri.passed and tri.equality and tri.bound == Fraction(1, 2)
    checked = 0
    for entry in corpus:
        q = entry.polytope
        if not 1 <= q.dim <= 3:
            continue
        for k in range(q.dim):
            rep = angle_sum_lower_check(q, angle_sum(
                q, k, 100_000, seed=derive_seed(8, entry.name, k)))
            assert rep.passed, (entry.name, k, rep)
            checked += 1
    _report(8, "angle-sum floors", f"segment and triangle equalities, "
            f"{checked} low-dim cases at 4 sigma")


def test_criterion_09_projection_angle_bound(projection_corpus):
    hexa, hex_dirs = projection_corpus["cyclic-6-2"]
    rep = projection_angle_check(
        hexa, angle_sum(hexa, 0, FULL_SAMPLES, seed=9), hex_dirs)
    assert rep.verdict == "PASS" and rep.equality and rep.bound == 2
    cube3, cube_dirs = projection_corpus["cube-3"]
    rep = projection_angle_check(
        cube3, angle_sum(cube3, 1, FULL_SAMPLES, seed=9), cube_dirs)
    assert rep.verdict == "PASS" and rep.equality and rep.bound == 3
    outcomes = {"PASS": 0, "WARN": 0}
    for name, (p, dirs) in projection_corpus.items():
        for k in range(p.dim):
            rep = projection_angle_check(p, angle_sum(
                p, k, SWEEP_SAMPLES, seed=derive_seed(9, name, k)), dirs)
            assert rep.verdict in ("PASS", "WARN"), (name, k)
            outcomes[rep.verdict] += 1
    _report(9, "projection angle bound", f"two equalities at 1e6 samples; "
            f"sweep {outcomes['PASS']} PASS / {outcomes['WARN']} WARN")


def test_criterion_10_projection_gap(projection_corpus):
    checks = 0
    for name, (q, dirs) in projection_corpus.items():
        for d in dirs:
            for k in range(q.dim):
                rep = gap_check(q, d, k)
                assert rep.ok, (name, k, rep)
                checks += 1
    _report(10, "projection gap", f"{checks} exact checks "
            f"({DIRECTIONS} directions each), zero violations")


def test_criterion_11_interior_vertex(projection_corpus):
    trials = 0
    for name, (q, dirs) in projection_corpus.items():
        budget = 6 if q.dim <= 3 else (4 if q.dim == 4 else 2)
        for d in dirs[:budget]:
            dvs = diagram_vertices(q, d)
            assert any(dv.interior for dv in dvs), (name, d)
            trials += 1
    assert trials >= 200
    _report(11, "interior-vertex lemma", f"{trials} trials, zero failures")


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one CPU: the thread cap makes every run serial")
def test_criterion_12_deterministic_corpus_output(tmp_path):
    outputs = []
    angle_outputs = []
    for threads in ("1", "4"):
        out = tmp_path / f"corpus-{threads}.csv"
        env = dict(os.environ, POLYFACE_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "polyface", "corpus",
             "--families", "simplex,cube,cross,cyclic", "--dims", "2..5",
             "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
        # corpus never samples; this run splits each solid angle into
        # three chunks, which four threads estimate in parallel.
        proc = subprocess.run(
            [sys.executable, "-m", "polyface", "angles", "--family", "simplex",
             "--dim", "2", "--samples", "140000", "--directions", "1"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        angle_outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert angle_outputs[0] == angle_outputs[1]
    rows = outputs[0].decode().splitlines()
    assert all("VIOLATED" not in r for r in rows)
    _report(12, "deterministic runs", f"{len(rows) - 1} CSV rows and a "
            f"3-chunk angles run byte-identical across thread counts")
