"""Solid angles of polytopes at their faces.

The solid angle at a face G is the fraction of a small ball centered in
the relative interior of G that the polytope occupies.  Because the local
geometry at a face is a cone, the ball never has to be materialized: the
angle equals the probability that a uniformly random direction lies in the
tangent cone, which is cut out by exactly the facets containing G.  Those
facets are read off the hull's exact vertex-facet incidences, so building
a cone does no arithmetic.  The probability is estimated by Monte Carlo
over isotropic Gaussian directions (seeded, chunked, bit-reproducible; see
_rng) and, in dimension <= 3, cross-checked against closed forms.

Restricted polytopes carry a diagonal metric; the sampler folds the metric
into the facet normals so that the sampled directions are isotropic with
respect to the geometry of the original space.

Two cases are exact by construction and never sampled: the cone with no
constraints (the angle at the polytope itself, which is 1) and any cone in
an ambient dimension <= 1, where the unit sphere is the two-point set
{-1, +1} (an endpoint of a segment gets exactly 1/2).

Angle sums sample one stream per polytope: the signs of every facet normal
against each draw are computed once, and a face's cone holds the draw iff
all facets through the face say so.  For every direction off the facet
hyperplanes, the faces whose cones hold it satisfy Gram's relation
sum_F (-1)^dim F = 0, the polytope itself included (Welzl, "Gram's
equation -- a probabilistic proof", 1994); that is checked on every sample.

Curvature checks sample one stream per facet: projected onto the facet's
hyperplane, the draws are isotropic there, and their signs against the
other facet normals, projected the same way, give the facet's angle at
each of its faces with no facet polytope built.  Gram's relation for the
facet itself is checked on every sample of its stream.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._rng import chunk_generator, chunk_sizes, derive_seed, thread_count
from .bounds import ratio_bound
from .errors import (
    GramViolationError,
    OutOfRangeError,
    PolyfaceError,
    TooLargeError,
    UnsupportedDimensionError,
)
from .exact import Vector
from .polytope import Polytope
from .projection import shadow

DEFAULT_SAMPLES = 1_000_000
MAX_SAMPLES = 10**9
SIGMA_FACTOR = 4.0
# Each chunk is drawn whole and then tested in blocks of rows, so the
# stream does not depend on the block size; matrices wider than 64 normals
# get proportionally fewer rows per block.
ROW_BLOCK = 8192
BLOCK_CELLS = ROW_BLOCK * 64


@dataclass(frozen=True)
class AngleEstimate:
    """A solid-angle value.  samples == 0 marks an exact (unsampled) value,
    in which case stderr is 0 by construction."""

    mean: float
    stderr: float
    samples: int
    seed: int

    @property
    def exact(self) -> bool:
        return self.samples == 0

    def to_json(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr,
                "samples": self.samples, "seed": self.seed}


def tangent_cone(p: Polytope, face) -> tuple[Vector, ...]:
    """The tangent cone of p at a nonempty face (Face or vertex set): the
    normals of exactly the facets containing the face.  A direction u
    points into p from the face's relative interior iff n . u <= 0 for
    each of them; the face itself has no normals."""
    vs = p.require_face(face).vertex_set
    return tuple(p.facets[i].plane.normal for i in p.facets_containing(vs))


def _euclidean_normal_matrix(p: Polytope,
                             normals: tuple[Vector, ...]) -> np.ndarray:
    """Facet covectors rescaled so that plain-dot tests against standard
    Gaussian draws are isotropic in the original geometry."""
    scale = np.array([1.0 / math.sqrt(float(g)) for g in p.metric])
    mat = np.array([[float(c) for c in n] for n in normals])
    return mat * scale


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise OutOfRangeError("samples must be >= 1")
    if samples > MAX_SAMPLES:
        raise TooLargeError(f"samples must be <= {MAX_SAMPLES}, got {samples}")


def _estimate(hits: int, samples: int, seed: int) -> AngleEstimate:
    mean = hits / samples
    return AngleEstimate(mean, math.sqrt(mean * (1.0 - mean) / samples),
                         samples, seed)


def _chunk_tally(matrix: np.ndarray, seed: int, index: int, count: int,
                 tally) -> np.ndarray:
    """tally's integer vector, summed over the row blocks of the signs
    (z . n <= 0) of chunk `index` against every row n of matrix."""
    z = chunk_generator(seed, index).standard_normal((count, matrix.shape[1]))
    rows = max(1, min(ROW_BLOCK, BLOCK_CELLS // len(matrix)))
    return sum(tally(z[lo:lo + rows] @ matrix.T <= 0.0)
               for lo in range(0, count, rows))


def _sample(matrix: np.ndarray, samples: int, seed: int,
            tally) -> list[np.ndarray]:
    """The tally of each chunk of the stream, in chunk order.

    The sample space is split into fixed-size chunks, each with its own
    derived generator, on a pool of at most POLYFACE_THREADS threads; the
    tallies are integers, so parallel and serial runs agree bit for bit.
    """
    sizes = chunk_sizes(samples)

    def run(chunk: tuple[int, int]) -> np.ndarray:
        return _chunk_tally(matrix, seed, chunk[0], chunk[1], tally)

    workers = min(thread_count(), len(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, enumerate(sizes)))
    return [run(chunk) for chunk in enumerate(sizes)]


def _cone_tally(signs: np.ndarray) -> np.ndarray:
    return np.array([np.count_nonzero(signs.all(axis=1))])


def solid_angle(p: Polytope, face, samples: int = DEFAULT_SAMPLES,
                seed: int = 0) -> AngleEstimate:
    """Monte Carlo solid angle of p at a face; deterministic given seed."""
    _check_samples(samples)
    return _cone_angle(p, tangent_cone(p, face), samples, seed)


def _cone_angle(p: Polytope, normals: tuple[Vector, ...], samples: int,
                seed: int) -> AngleEstimate:
    """The solid angle of the cone {u : n . u <= 0 for each normal n} in
    p's space, sampled unless it is exact by construction."""
    if not normals:
        return AngleEstimate(1.0, 0.0, 0, seed)
    if p.dim <= 1:
        # The 0-sphere has two directions; one of them is in the halfline.
        return AngleEstimate(0.5, 0.0, 0, seed)
    matrix = _euclidean_normal_matrix(p, normals)
    hits = sum(int(t[0]) for t in _sample(matrix, samples, seed, _cone_tally))
    return _estimate(hits, samples, seed)


# -- closed forms in dimension <= 3 ------------------------------------------


def _euclidean_coords(p: Polytope) -> list[np.ndarray]:
    scale = np.array([math.sqrt(float(g)) for g in p.metric])
    return [np.array([float(c) for c in v]) * scale for v in p.vertices]


def _polygon_angle(p: Polytope, vs: frozenset[int]) -> float:
    (v,) = vs
    coords = _euclidean_coords(p)
    neighbors = []
    for f in p.facets:
        if v in f.vertex_set:
            (other,) = f.vertex_set - {v}
            neighbors.append(other)
    if len(neighbors) != 2:
        raise PolyfaceError("polygon vertex not on exactly two edges")
    u = coords[neighbors[0]] - coords[v]
    w = coords[neighbors[1]] - coords[v]
    cos = float(u @ w / (np.linalg.norm(u) * np.linalg.norm(w)))
    return math.acos(max(-1.0, min(1.0, cos))) / (2.0 * math.pi)


def _edge_directions_at(p: Polytope, v: int) -> list[np.ndarray]:
    coords = _euclidean_coords(p)
    dirs = []
    for face in p.face_lattice().faces_of_dim(1):
        if v in face.vertex_set:
            (other,) = face.vertex_set - {v}
            e = coords[other] - coords[v]
            dirs.append(e / np.linalg.norm(e))
    return dirs


def _cone_angle_3d(dirs: list[np.ndarray]) -> float:
    """Spherical measure of a convex 3d cone spanned by edge directions:
    fan the cross-section polygon and sum the simplicial cone angles via
    the standard triple-product / scalar formula."""
    axis = np.add.reduce(dirs)
    axis = axis / np.linalg.norm(axis)
    ref = np.array([1.0, 0.0, 0.0])
    if abs(ref @ axis) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    u = ref - (ref @ axis) * axis
    u /= np.linalg.norm(u)
    w = np.cross(axis, u)
    order = sorted(range(len(dirs)),
                   key=lambda i: math.atan2(dirs[i] @ w, dirs[i] @ u))
    ordered = [dirs[i] for i in order]
    total = 0.0
    for i in range(1, len(ordered) - 1):
        a, b, c = ordered[0], ordered[i], ordered[i + 1]
        num = abs(float(a @ np.cross(b, c)))
        den = 1.0 + float(a @ b) + float(a @ c) + float(b @ c)
        total += 2.0 * math.atan2(num, den)
    return total / (4.0 * math.pi)


def _dihedral_angle(p: Polytope, vs: frozenset[int]) -> float:
    containing = p.facets_containing(vs)
    if len(containing) != 2:
        raise PolyfaceError("edge of a 3-polytope not on exactly two facets")
    scale = np.array([1.0 / math.sqrt(float(g)) for g in p.metric])
    n1 = np.array([float(c) for c in p.facets[containing[0]].plane.normal]) * scale
    n2 = np.array([float(c) for c in p.facets[containing[1]].plane.normal]) * scale
    cos = float(n1 @ n2 / (np.linalg.norm(n1) * np.linalg.norm(n2)))
    between = math.acos(max(-1.0, min(1.0, cos)))
    return (math.pi - between) / (2.0 * math.pi)


def solid_angle_exact(p: Polytope, face) -> float:
    """Closed-form solid angle for polytopes of dimension <= 3.

    1d: endpoints get 1/2.  2d: the planar angle over the full turn.
    3d: spherical measure of the vertex cone, or the dihedral angle at an
    edge.  Facets always get 1/2 and the whole polytope 1.  Serves as the
    independent oracle for the Monte Carlo estimator.
    """
    if p.dim > 3:
        raise UnsupportedDimensionError("closed forms stop at dimension 3")
    face = p.require_face(face)
    vs, k = face.vertex_set, face.dim
    if k == p.dim:
        return 1.0
    if k == p.dim - 1:
        return 0.5
    if p.dim == 2:
        return _polygon_angle(p, vs)
    # p.dim == 3, k in {0, 1}
    if k == 1:
        return _dihedral_angle(p, vs)
    (v,) = vs
    return _cone_angle_3d(_edge_directions_at(p, v))


# -- aggregates ---------------------------------------------------------------


@dataclass(frozen=True)
class AngleSumReport:
    """Sum of solid angles over all k-faces.  The faces of a polytope share
    one stream, so stderr is that of the per-sample count of k-faces whose
    cone holds the sample, not a quadrature of the per-face stderrs."""

    k: int
    total: float
    stderr: float
    estimates: tuple[AngleEstimate, ...]

    def to_json(self) -> dict:
        return {"k": self.k, "total": self.total, "stderr": self.stderr,
                "faces": [e.to_json() for e in self.estimates]}


def _face_tally(cones: list[list[int]], dims: list[int], dim: int):
    """A tally of per-face hits, then per-k sums of X_k^2, then the number
    of samples that break Gram's relation; X_k counts the k-faces whose
    cone (the facets listed in cones) holds the sample."""
    def tally(signs: np.ndarray) -> np.ndarray:
        by_facet = np.ascontiguousarray(signs.T)
        counts = np.zeros((dim, len(signs)), dtype=np.int64)
        hits = []
        for cone, k in zip(cones, dims):
            inside = by_facet[cone].all(axis=0)
            hits.append(np.count_nonzero(inside))
            counts[k] += inside
        gram = (-1) ** dim + counts[0::2].sum(axis=0) - counts[1::2].sum(axis=0)
        return np.array(hits + (counts * counts).sum(axis=1).tolist()
                        + [np.count_nonzero(gram)])
    return tally


def _stream_totals(matrix: np.ndarray, samples: int, seed: int,
                   cones: list[list[int]], dims: list[int], dim: int,
                   where: str = "") -> list[int]:
    """_face_tally's columns summed over one stream of `samples` draws
    against the rows of matrix; a sample that breaks Gram's relation for
    the dim-polytope whose faces the cones are raises GramViolationError."""
    tallies = _sample(matrix, samples, seed, _face_tally(cones, dims, dim))
    for i, t in enumerate(tallies):
        if t[-1]:
            raise GramViolationError(
                f"Gram's relation fails on {int(t[-1])} samples of chunk {i} "
                f"of seed {seed}{where}")
    return [sum(col) for col in zip(*(t.tolist() for t in tallies))]


def angle_sums(p: Polytope, samples: int = DEFAULT_SAMPLES,
               seed: int = 0) -> list[AngleSumReport]:
    """The angle sums of p for k = 0..dim-1 from one stream of `samples`
    Gaussian draws; deterministic given seed.

    A k-sum's total is its faces' hits over the sample count, one division,
    so a sum that is constant per sample comes out exact.  Its stderr is
    sqrt(var(X_k) / samples).  A sample that breaks Gram's relation raises
    GramViolationError.
    """
    _check_samples(samples)
    lattice = p.face_lattice()
    levels = [lattice.faces_of_dim(k) for k in range(p.dim)]
    if p.dim <= 1:
        # A point has no sums.  A segment's directions are the 0-sphere,
        # and each endpoint holds one of its two.
        half = AngleEstimate(0.5, 0.0, 0, seed)
        return [AngleSumReport(0, 1.0, 0.0, (half,) * len(level))
                for level in levels]
    faces = [face for level in levels for face in level]
    cones = [p.facets_containing(face.vertex_set) for face in faces]
    matrix = _euclidean_normal_matrix(p, [f.plane.normal for f in p.facets])
    totals = _stream_totals(matrix, samples, seed, cones,
                            [f.dim for f in faces], p.dim)
    hits, squares = totals[:len(faces)], totals[len(faces):-1]
    reports, start = [], 0
    for k, level in enumerate(levels):
        level_hits = hits[start:start + len(level)]
        start += len(level)
        h = sum(level_hits)
        # Exact integers until the square root: var = (n*S2 - H^2) / n^2.
        stderr = math.sqrt((samples * squares[k] - h * h) / samples ** 3)
        reports.append(AngleSumReport(
            k, h / samples, stderr,
            tuple(_estimate(x, samples, seed) for x in level_hits)))
    return reports


@dataclass(frozen=True)
class CurvatureReport:
    """Sum of facet angles at a face: at most 1, with equality exactly at
    codimension 2 (where the two flat angles of 1/2 are taken exactly,
    no sampling).  facet_angles holds the angle of each facet through the
    face, in facet order; JSON reports only their sum and its stderr."""

    face: tuple[int, ...]
    face_dim: int
    total: float
    stderr: float
    exact: bool
    equality: bool
    ok: bool
    facet_angles: tuple[AngleEstimate, ...]

    def to_json(self) -> dict:
        return {"face": list(self.face), "face_dim": self.face_dim,
                "total": self.total, "stderr": self.stderr,
                "exact": self.exact, "equality": self.equality,
                "ok": self.ok}


def curvature_checks(p: Polytope, samples: int = DEFAULT_SAMPLES,
                     seed: int = 0) -> list[CurvatureReport]:
    """The facet-angle sum bound at every face of dimension 0..dim-2, in
    lattice order; deterministic given seed.

    Facet j draws one stream of `samples` Gaussian draws z in p's space,
    seeded by derive_seed(seed, "facet", j).  The projection w of z onto
    the facet's hyperplane H is a standard Gaussian of H, and at a face G
    of the facet the facet's tangent cone is T_G P cut with H: w lies in
    it iff n' . z <= 0 for every other facet through G, n' that facet's
    normal with its component along the facet's own normal removed.  So
    one sign matrix per facet serves every face of it, and no facet
    polytope is built.  On every sample, the faces of the facet whose
    cones hold w satisfy Gram's relation for the facet itself, ridges
    included; a sample that breaks it raises GramViolationError.

    A face's total is its hits over the facets through it, over the
    sample count.  Those facets draw independent streams, so its stderr
    is the quadrature of theirs.
    """
    _check_samples(samples)
    d = p.dim
    lattice = p.face_lattice()
    faces = [face for k in range(d - 1) for face in lattice.faces_of_dim(k)]
    containing = [p.facets_containing(face.vertex_set) for face in faces]
    seeds = [derive_seed(seed, "facet", j) for j in range(p.n_facets)]
    hits = {}  # (face index, facet index) -> hits
    # Below dimension 3 every face reported is a ridge: nothing to sample.
    if d >= 3:
        normals = _euclidean_normal_matrix(
            p, [f.plane.normal for f in p.facets])
        for j, normal in enumerate(normals):
            unit = normal / np.linalg.norm(normal)
            # Row j is left as rounding noise; no cone in the facet reads it.
            projected = normals - np.outer(normals @ unit, unit)
            members = [g for g, through in enumerate(containing)
                       if j in through]
            cones = [[i for i in containing[g] if i != j] for g in members]
            totals = _stream_totals(
                projected, samples, seeds[j], cones,
                [faces[g].dim for g in members], d - 1, f" in facet {j}")
            hits.update(((g, j), h) for g, h in zip(members, totals))
    reports = []
    for g, (face, through) in enumerate(zip(faces, containing)):
        vs = tuple(sorted(face.vertex_set))
        if face.dim == d - 2:
            # A ridge lies in exactly two facets and is a facet of each, so
            # both angles are flat halfspace angles of exactly 1/2.
            if len(through) != 2:
                raise PolyfaceError("ridge not contained in exactly two facets")
            flat = tuple(AngleEstimate(0.5, 0.0, 0, seeds[j]) for j in through)
            reports.append(CurvatureReport(vs, face.dim, 1.0, 0.0, True, True,
                                           True, flat))
            continue
        found = [hits[g, j] for j in through]
        total = sum(found) / samples
        # Exact integers until the square root.
        stderr = math.sqrt(sum(h * (samples - h) for h in found)
                           / samples ** 3)
        tol = SIGMA_FACTOR * stderr
        reports.append(CurvatureReport(
            vs, face.dim, total, stderr, exact=False,
            equality=abs(total - 1.0) <= tol, ok=total <= 1.0 + tol,
            facet_angles=tuple(_estimate(h, samples, seeds[j])
                               for h, j in zip(found, through))))
    return reports


@dataclass(frozen=True)
class AngleSumBoundReport:
    """Angle-sum floor: the k-th angle sum of a polytope of dimension m is
    at least ratio_bound(m+1, m-k)."""

    k: int
    total: float
    stderr: float
    bound: Fraction
    passed: bool
    equality: bool

    def to_json(self) -> dict:
        return {"k": self.k, "total": self.total, "stderr": self.stderr,
                "bound": str(self.bound), "passed": self.passed,
                "equality": self.equality}


def angle_sum_lower_check(q: Polytope,
                          report: AngleSumReport) -> AngleSumBoundReport:
    """Check an estimated k-th angle sum (k = report.k) against its floor."""
    k = report.k
    if not 0 <= k <= q.dim - 1:
        raise OutOfRangeError(f"angle-sum floor needs 0 <= k < dim, got {k}")
    bound = ratio_bound(q.dim + 1, q.dim - k)
    tol = SIGMA_FACTOR * report.stderr
    return AngleSumBoundReport(
        k, report.total, report.stderr, bound,
        passed=report.total >= float(bound) - tol,
        equality=abs(report.total - float(bound)) <= tol,
    )


@dataclass(frozen=True)
class ProjectionAngleReport:
    """Angle sums against projections: the k-th angle sum is at least half
    of f_k minus the best shadow's k-face count.

    The max over directions is approximated by the sampled maximum, so the
    tested bound is stronger than the theorem's: a miss is reported as
    WARN, never as a hard failure.
    """

    k: int
    total: float
    stderr: float
    f_k: int
    shadow_counts: tuple[int, ...]
    bound: Fraction
    verdict: str  # "PASS" or "WARN"
    equality: bool

    def to_json(self) -> dict:
        return {"k": self.k, "total": self.total, "stderr": self.stderr,
                "f_k": self.f_k, "shadow_counts": list(self.shadow_counts),
                "bound": str(self.bound), "verdict": self.verdict,
                "equality": self.equality}


def projection_angle_check(p: Polytope, report: AngleSumReport,
                           directions: list) -> ProjectionAngleReport:
    """Check the projection lower bound on the estimated k-th angle sum of
    p (k = report.k) over the given general-position directions."""
    k = report.k
    if not 0 <= k <= p.dim - 1:
        raise OutOfRangeError(f"projection angle check needs 0 <= k < dim")
    counts = [shadow(p, d).poly.f_vector().count(k) for d in directions]
    if not counts:
        raise OutOfRangeError("projection angle check needs a direction")
    fk = p.f_vector().count(k)
    bound = Fraction(fk - max(counts), 2)
    tol = SIGMA_FACTOR * report.stderr
    passed = report.total >= float(bound) - tol
    return ProjectionAngleReport(
        k, report.total, report.stderr, fk, tuple(counts), bound,
        verdict="PASS" if passed else "WARN",
        equality=abs(report.total - float(bound)) <= tol,
    )
