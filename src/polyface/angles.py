"""Solid angles of polytopes at their faces.

The solid angle at a face G is the fraction of a small ball centered in
the relative interior of G that the polytope occupies.  Because the local
geometry at a face is a cone, the ball never has to be materialized: the
angle equals the probability that a uniformly random direction lies in the
tangent cone, which is cut out by exactly the facets containing G.  That
probability is estimated by Monte Carlo over isotropic Gaussian directions
(seeded, chunked, bit-reproducible; see _rng) and, in dimension <= 3,
cross-checked against closed forms.

Restricted polytopes carry a diagonal metric; the sampler folds the metric
into the facet normals so that the sampled directions are isotropic with
respect to the geometry of the original space.

Two cases are exact by construction and never sampled: the cone with no
constraints (the angle at the polytope itself, which is 1) and any cone in
an ambient dimension <= 1, where the unit sphere is the two-point set
{-1, +1} (an endpoint of a segment gets exactly 1/2).
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


@dataclass(frozen=True)
class TangentCone:
    """The local cone of a polytope at a face.

    ``normals`` are the stored facet covectors of exactly the facets
    containing the face; a direction u points into the polytope iff
    n . u <= 0 for each of them.  The apex (the centroid of the face's
    vertices) satisfies every listed facet equation exactly.
    """

    apex: Vector
    normals: tuple[Vector, ...]
    facet_indices: tuple[int, ...]


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


def tangent_cone(p: Polytope, face) -> TangentCone:
    """The tangent cone of p at a nonempty face (Face or vertex set)."""
    vs = p.require_face(face).vertex_set
    idx = tuple(p.facets_containing(vs))
    apex = p.centroid_of(vs)
    for i in idx:
        if not p.facets[i].plane.contains(apex):
            raise PolyfaceError("tangent cone apex off its facet hyperplane")
    return TangentCone(apex, tuple(p.facets[i].plane.normal for i in idx), idx)


def _euclidean_normal_matrix(p: Polytope, cone: TangentCone) -> np.ndarray:
    """Facet covectors rescaled so that plain-dot tests against standard
    Gaussian draws are isotropic in the original geometry."""
    scale = np.array([1.0 / math.sqrt(float(g)) for g in p.metric])
    mat = np.array([[float(c) for c in n] for n in cone.normals])
    return mat * scale


def _chunk_hits(matrix: np.ndarray, dim: int, seed: int, index: int,
                count: int) -> int:
    rng = chunk_generator(seed, index)
    z = rng.standard_normal((count, dim))
    inside = (z @ matrix.T <= 0.0).all(axis=1)
    return int(np.count_nonzero(inside))


def solid_angle(p: Polytope, face, samples: int = DEFAULT_SAMPLES,
                seed: int = 0) -> AngleEstimate:
    """Monte Carlo solid angle of p at a face; deterministic given seed.

    The sample space is split into fixed-size chunks, each with its own
    derived generator; integer hit counts are aggregated, so parallel and
    serial runs agree bit for bit.
    """
    if samples < 1:
        raise OutOfRangeError("samples must be >= 1")
    if samples > MAX_SAMPLES:
        raise TooLargeError(f"samples must be <= {MAX_SAMPLES}, got {samples}")
    cone = tangent_cone(p, face)
    if not cone.normals:
        return AngleEstimate(1.0, 0.0, 0, seed)
    if p.dim <= 1:
        # The 0-sphere has two directions; one of them is in the halfline.
        return AngleEstimate(0.5, 0.0, 0, seed)
    matrix = _euclidean_normal_matrix(p, cone)
    sizes = chunk_sizes(samples)
    workers = thread_count()
    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(
                lambda ic: _chunk_hits(matrix, p.dim, seed, ic[0], ic[1]),
                enumerate(sizes),
            ))
    else:
        hits = sum(_chunk_hits(matrix, p.dim, seed, i, c)
                   for i, c in enumerate(sizes))
    mean = hits / samples
    stderr = math.sqrt(mean * (1.0 - mean) / samples)
    return AngleEstimate(mean, stderr, samples, seed)


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


def facet_angle(p: Polytope, facet_index: int, face,
                samples: int = DEFAULT_SAMPLES, seed: int = 0) -> AngleEstimate:
    """Solid angle of a facet (as a polytope in its own hyperplane) at a
    nonempty face of p.  Exactly 0 when the face is not in that facet;
    NotAFaceError when the vertex set is no face of p."""
    if not 0 <= facet_index < p.n_facets:
        raise IndexError(f"facet index {facet_index} out of range")
    vs = p.require_face(face).vertex_set
    record = p.facets[facet_index]
    if not vs <= record.vertex_set:
        return AngleEstimate(0.0, 0.0, 0, seed)
    fp = p.facet_as_polytope(facet_index)
    local = sorted(record.vertex_set)
    remap = {orig: i for i, orig in enumerate(local)}
    return solid_angle(fp, frozenset(remap[v] for v in vs), samples, seed)


@dataclass(frozen=True)
class AngleSumReport:
    """Sum of solid angles over all k-faces, with quadrature stderr."""

    k: int
    total: float
    stderr: float
    estimates: tuple[AngleEstimate, ...]

    def to_json(self) -> dict:
        return {"k": self.k, "total": self.total, "stderr": self.stderr,
                "faces": [e.to_json() for e in self.estimates]}


def angle_sum(p: Polytope, k: int, samples: int = DEFAULT_SAMPLES,
              seed: int = 0) -> AngleSumReport:
    if not 0 <= k <= p.dim:
        raise OutOfRangeError(f"angle sum needs 0 <= k <= dim, got {k}")
    estimates = []
    for i, face in enumerate(p.face_lattice().faces_of_dim(k)):
        estimates.append(
            solid_angle(p, face, samples, derive_seed(seed, "face", k, i))
        )
    total = sum(e.mean for e in estimates)
    stderr = math.sqrt(sum(e.stderr ** 2 for e in estimates))
    return AngleSumReport(k, total, stderr, tuple(estimates))


@dataclass(frozen=True)
class CurvatureReport:
    """Sum of facet angles at a face: at most 1, with equality exactly at
    codimension 2 (where the two flat angles of 1/2 are taken exactly,
    no sampling)."""

    face: tuple[int, ...]
    face_dim: int
    total: float
    stderr: float
    exact: bool
    equality: bool
    ok: bool

    def to_json(self) -> dict:
        return {"face": list(self.face), "face_dim": self.face_dim,
                "total": self.total, "stderr": self.stderr,
                "exact": self.exact, "equality": self.equality,
                "ok": self.ok}


def curvature_check(p: Polytope, face, samples: int = DEFAULT_SAMPLES,
                    seed: int = 0, sigma: float = SIGMA_FACTOR) -> CurvatureReport:
    """Verify the facet-angle sum bound at a face of dimension <= dim-2."""
    face = p.require_face(face)
    vs, k = face.vertex_set, face.dim
    d = p.dim
    if not 0 <= k <= d - 2:
        raise OutOfRangeError(f"curvature check needs 0 <= dim G <= {d - 2}")
    containing = p.facets_containing(vs)
    if k == d - 2:
        # The face is a ridge: it lies in exactly two facets and is a facet
        # of each, so both angles are flat halfspace angles of exactly 1/2.
        if len(containing) != 2:
            raise PolyfaceError("ridge not contained in exactly two facets")
        return CurvatureReport(tuple(sorted(vs)), k, 1.0, 0.0, True, True, True)
    estimates = [
        facet_angle(p, i, face, samples, derive_seed(seed, "facet", i))
        for i in containing
    ]
    total = sum(e.mean for e in estimates)
    stderr = math.sqrt(sum(e.stderr ** 2 for e in estimates))
    tol = sigma * stderr
    return CurvatureReport(
        tuple(sorted(vs)), k, total, stderr,
        exact=all(e.exact for e in estimates),
        equality=abs(total - 1.0) <= tol,
        ok=total <= 1.0 + tol,
    )


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


def angle_sum_lower_check(q: Polytope, report: AngleSumReport,
                          sigma: float = SIGMA_FACTOR) -> AngleSumBoundReport:
    """Check an estimated k-th angle sum (k = report.k) against its floor."""
    k = report.k
    if not 0 <= k <= q.dim - 1:
        raise OutOfRangeError(f"angle-sum floor needs 0 <= k < dim, got {k}")
    bound = ratio_bound(q.dim + 1, q.dim - k)
    tol = sigma * report.stderr
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
                           directions: list,
                           sigma: float = SIGMA_FACTOR) -> ProjectionAngleReport:
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
    tol = sigma * report.stderr
    passed = report.total >= float(bound) - tol
    return ProjectionAngleReport(
        k, report.total, report.stderr, fk, tuple(counts), bound,
        verdict="PASS" if passed else "WARN",
        equality=abs(report.total - float(bound)) <= tol,
    )
