"""Solid angles of polytopes at their faces.

The solid angle at a face G is the fraction of a small ball centered in
the relative interior of G that the polytope occupies.  Because the local
geometry at a face is a cone, the ball never has to be materialized: the
angle equals the probability that a uniformly random direction lies in the
tangent cone, which is cut out by exactly the facets containing G.  Those
facets are read off the hull's exact vertex-facet incidences, so building
a cone does no arithmetic.  The probability is estimated by Monte Carlo
over isotropic Gaussian directions (seeded, chunked, bit-reproducible; see
_rng); the tests check it against solid_angle_exact in dimension <= 3.

The closed form reads the cone's facet normals and, from the lattice, the
pairs of them that meet in an edge of the cone: when they span at most 3
dimensions, the cone's share of the sphere is (2 pi - S) / 4 pi by Girard's
theorem, S summing the angles between those pairs (see _cone_fraction).

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

Curvature checks need each facet's angles at its faces.  In a facet's
hyperplane, the facet's cone at a face is cut out by its ridges through
the face, one per ridge-neighbour.  _facet_cones, the one place that
builds these cones, projects each neighbour's normal onto the facet's
hyperplane exactly, in integers, and rounds it once, so a neighbour
nearly parallel to the facet keeps its direction.  When every facet is a
polygon or a 3-polytope (dimension 3 or 4), those cones span at most 3
dimensions and the angles are closed forms, from the same formula that
solid_angle_exact uses.  From dimension 5 they sample one stream per
facet: projected onto the facet's hyperplane, the draws are isotropic
there, and their signs against the same projected normals give the
facet's angle at each of its faces.  Either way no facet polytope is
built, and Gram's relation for each facet is checked: on the closed
forms, or on every sample.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress

import numpy as np

from ._predicates import _bounded
from ._rng import chunk_generator, chunk_sizes, derive_seed
from .bounds import ratio_bound
from .errors import (
    GramViolationError,
    OutOfRangeError,
    PolyfaceError,
    TooLargeError,
    UnsupportedDimensionError,
)
from .polytope import Polytope
from .projection import shadow

DEFAULT_SAMPLES = 1_000_000
MAX_SAMPLES = 10**9
SIGMA_FACTOR = 4.0
# Float slack per term of a closed-form sum of angles: a facet's Gram sum
# of m terms, or a curvature total of m facet angles, may miss its exact
# value by m * EXACT_SLACK.  Each angle is a few dozen float operations on
# correctly rounded inputs, with values at most 1, and lands within about
# 1e-15 of the truth; a wrong cone or a missing face moves a sum by many
# orders of magnitude more.
EXACT_SLACK = 1e-12
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


def _facets_through(p: Polytope, face) -> np.ndarray:
    """Which facets contain a nonempty face (Face or vertex set): the
    face's row of the lattice's `containing`, found by bisecting its
    level's canonical order."""
    face = p.require_face(face)
    lattice = p.face_lattice()
    row = bisect_left(lattice.faces_of_dim(face.dim), face.vertices,
                      key=lambda f: f.vertices)
    return lattice.containing(face.dim)[row]


def tangent_cone(p: Polytope, face) -> tuple[tuple[int, ...], ...]:
    """The tangent cone of p at a nonempty face (Face or vertex set): the
    primitive integer normals of exactly the facets containing the face,
    in facet order.  A direction u points into p from the face's relative
    interior iff n . u <= 0 for each of them; the face itself has no
    normals."""
    return tuple(f.plane.normal
                 for f in compress(p.facets, _facets_through(p, face)))


def _euclidean_normal_matrix(p: Polytope, normals) -> np.ndarray:
    """Integer covectors (rows of ints, such as the hull's facet normals) as
    float rows, rescaled by the metric so that plain-dot tests against
    standard Gaussian draws are isotropic in the original geometry.  Each
    row comes out over a power of two of its own (`_bounded`), so that no
    entry overflows.  Within the float range that is the correctly rounded
    row scaled exactly, which moves no sample's sign and no closed form:
    they read only a row's direction."""
    try:
        scale = np.array([1.0 / math.sqrt(float(g)) for g in p.metric])
    except OverflowError:
        # An entry past the float range.  Entries can differ by more than
        # that range, so no common power of two would rescue them.
        raise TooLargeError("a metric column scale does not fit a float"
                            ) from None
    return _bounded(normals, len(scale))[0] * scale


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
    """The tally of each chunk of the stream, in chunk order.  The sample
    space is split into fixed-size chunks, each with its own derived
    generator; a chunk's draws are freed before the next chunk's."""
    return [_chunk_tally(matrix, seed, index, count, tally)
            for index, count in enumerate(chunk_sizes(samples))]


def _cone_tally(signs: np.ndarray) -> np.ndarray:
    return np.array([np.count_nonzero(signs.all(axis=1))])


def solid_angle(p: Polytope, face, samples: int = DEFAULT_SAMPLES,
                seed: int = 0) -> AngleEstimate:
    """Monte Carlo solid angle of p at a face; deterministic given seed."""
    _check_samples(samples)
    return _cone_angle(p, tangent_cone(p, face), samples, seed)


def _cone_angle(p: Polytope, normals: tuple[tuple[int, ...], ...],
                samples: int, seed: int) -> AngleEstimate:
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


# -- closed forms -------------------------------------------------------------
#
# One formula, on float vectors of Euclidean normals (the metric folded in):
# solid_angle_exact applies it to p itself, in dimension <= 3;
# curvature_checks applies it inside each facet of a 3- or 4-polytope.


def _angle_between(u, w) -> float:
    """The angle between two nonzero vectors by Kahan's formula,
    2 atan2(| |w| u - |u| w |, | |w| u + |u| w |), which keeps its digits
    near 0 and pi, where the arccosine of a cosine loses half of them."""
    nu, nw = math.hypot(*u), math.hypot(*w)
    return 2.0 * math.atan2(
        math.hypot(*(nw * a - nu * b for a, b in zip(u, w))),
        math.hypot(*(nw * a + nu * b for a, b in zip(u, w))))


def _cone_fraction(normals, edges) -> float:
    """The measure, over the whole sphere, of the cone {u : n . u <= 0 for
    each normal n}, for irredundant Euclidean outward normals that span at
    most 3 dimensions.  edges holds an index pair (a, b) into normals for
    each edge of the cone, where the facets of normals a and b meet; only
    three or more normals read it.

    By Girard's theorem the cone's spherical polygon, whose angle at an
    edge is pi - theta_ab (_angle_between), has area 2 pi - sum theta_ab:
    no order of the normals and no frame.  So no normals give 1, one gives
    1/2, and two at angle theta (a lune of two corners) (pi - theta) / 2 pi.
    A needle-thin cone's area is float rounding around 0, which can come
    out below it; a measure is never negative, so that reads 0.
    """
    if len(normals) < 2:
        return 1.0 - 0.5 * len(normals)
    if len(normals) == 2:
        turn = 2.0 * _angle_between(*normals)
    else:
        turn = sum(_angle_between(normals[a], normals[b]) for a, b in edges)
    return max(0.0, (2.0 * math.pi - turn) / (4.0 * math.pi))


def solid_angle_exact(p: Polytope, face) -> float:
    """Closed-form solid angle for polytopes of dimension <= 3: the
    _cone_fraction of the Euclidean normals of the facets through the
    face, each of which cuts a facet of the tangent cone.  Two of them
    that share an edge of p meet in it, so it is an edge of the cone: the
    cone's edges are the rows of containing(1) that hold two of them.
    Serves as the independent oracle for the Monte Carlo estimator.
    """
    if p.dim > 3:
        raise UnsupportedDimensionError("closed forms stop at dimension 3")
    inside = _facets_through(p, face)
    normals = [f.plane.normal for f in compress(p.facets, inside)]
    held = p.face_lattice().containing(1)[:, inside]
    edges = np.nonzero(held[held.sum(axis=1) == 2])[1].reshape(-1, 2)
    return _cone_fraction(_euclidean_normal_matrix(p, normals).tolist(),
                          edges.tolist())


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
    cones = np.concatenate([lattice.containing(k) for k in range(p.dim)])
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


def _facet_cones(p: Polytope, containing: np.ndarray):
    """(rows, starts, cones): each facet's cone at each of its faces, for
    the faces of curvature_checks, whose facets are the rows of containing.

    In facet j's hyperplane H, j's tangent cone at a face G is cut out by
    the facets of j through G.  Each is the ridge that j shares with a
    ridge-neighbour k, and its outward normal in H is

        m_k = <n_j, n_j> n_k - <n_k, n_j> n_j,

    with <a, b> = sum a_i b_i / g_i the product of covectors under p's
    metric g; the other facets through G meet j in smaller faces and
    would be redundant.  m_k is computed exactly, in integers: the hull's
    normals are primitive integer vectors, and the metric enters as the
    integer weights lcm(numerators of g) / g_i.  So a neighbour nearly
    parallel to j keeps its direction in H.  Every m_k of every facet is
    then rounded, with the metric folded in, by one _euclidean_normal_matrix
    call.

    Facet j's rows are rows[starts[j]:starts[j + 1]], one per
    ridge-neighbour, in facet order.  cones[j] pairs the indices of j's
    faces with a bool matrix that has a row per face, marking j's rows of
    the ridge-neighbours through it.
    """
    # The two facets of each ridge (curvature_checks checks there are two).
    ridges = p.face_lattice().containing(p.dim - 2)
    pairs = np.nonzero(ridges)[1].reshape(-1, 2)
    scale = math.lcm(*(g.numerator for g in p.metric))
    weights = [scale // g.numerator * g.denominator for g in p.metric]
    normals = [f.plane.normal for f in p.facets]
    rows, starts, cones = [], [0], []
    for j, n_j in enumerate(normals):
        near = np.sort(pairs[:, ::-1][pairs == j])  # j's ridge-neighbours
        weighted = [c * w for c, w in zip(n_j, weights)]
        jj = sum(a * b for a, b in zip(n_j, weighted))
        for k in near.tolist():
            n_k = normals[k]
            kj = sum(a * b for a, b in zip(n_k, weighted))
            rows.append([jj * a - kj * b for a, b in zip(n_k, n_j)])
        starts.append(len(rows))
        mine = np.flatnonzero(containing[:, j])
        cones.append((mine.tolist(), containing[mine][:, near]))
    return _euclidean_normal_matrix(p, rows), starts, cones


def _facet_angles_exact(p: Polytope, faces, containing) -> dict:
    """Each facet's angle at each of its faces, in closed form, keyed (face
    index, facet index), for p of dimension 3 or 4.

    The angle is the _cone_fraction of the facet's cone rows (see
    _facet_cones), read as they are: they lie in the facet's hyperplane,
    where an angle between two of them needs no frame.  A ridge of j has
    one row and gets 1/2.  Each (d-3)-face of j is a ridge of the polytope
    j, so its row of j's cone matrix marks exactly two rows; two rows of a
    face's cone meet in an edge of it iff such a pair holds both, since
    two faces of j meet in one face.  Gram's relation is checked in every
    facet, ridges and the facet itself (1) included; a miss by more than
    EXACT_SLACK per term raises GramViolationError.
    """
    d = p.dim
    rows, starts, cones = _facet_cones(p, containing)
    rows = rows.tolist()
    angles = {}
    for j, (members, cone_rows) in enumerate(cones):
        mine = rows[starts[j]:starts[j + 1]]
        cone_rows = cone_rows.tolist()
        meet = [list(compress(range(len(mine)), cone))
                for g, cone in zip(members, cone_rows)
                if faces[g].dim == d - 3]
        gram = (-1.0) ** (d - 1)
        for g, cone in zip(members, cone_rows):
            at = list(accumulate(cone))  # at[i] - 1: row i's index in cone
            edges = [(at[a] - 1, at[b] - 1) for a, b in meet
                     if cone[a] and cone[b]]
            alpha = angles[g, j] = _cone_fraction(list(compress(mine, cone)),
                                                  edges)
            gram += (-1) ** faces[g].dim * alpha
        if abs(gram) > EXACT_SLACK * (len(members) + 1):
            raise GramViolationError(
                f"Gram's relation fails by {gram:.3g} in facet {j}")
    return angles


def _facet_hits(p: Polytope, samples: int, seeds: list[int], faces,
                containing) -> dict:
    """Each facet's hits at each of its faces, keyed (face index, facet
    index), from one stream of `samples` draws per facet, facet j's seeded
    by seeds[j], against j's cone rows (see _facet_cones and
    curvature_checks)."""
    rows, starts, cones = _facet_cones(p, containing)
    hits = {}
    for j, (members, cone_rows) in enumerate(cones):
        totals = _stream_totals(
            rows[starts[j]:starts[j + 1]], samples, seeds[j], cone_rows,
            [faces[g].dim for g in members], p.dim - 1, f" in facet {j}")
        hits.update(((g, j), h) for g, h in zip(members, totals))
    return hits


def curvature_checks(p: Polytope, samples: int = DEFAULT_SAMPLES,
                     seed: int = 0) -> list[CurvatureReport]:
    """The facet-angle sum bound at every face of dimension 0..dim-2, in
    lattice order; deterministic given seed.

    A facet j's cone at a face G of it is cut out, in j's hyperplane H,
    by the normals of j's ridge-neighbours through G, each projected onto
    H exactly and then rounded (see _facet_cones).

    In dimension 3 and 4 every facet is a polygon or a 3-polytope, and its
    angles are closed forms in those projected normals (see
    _facet_angles_exact), exact up to float rounding: such reports are
    exact, with stderr 0, and `ok` and `equality` allow EXACT_SLACK per
    facet angle.  `samples` is still checked, and draws nothing.

    From dimension 5, facet j draws one stream of `samples` Gaussian draws
    z in p's space, seeded by derive_seed(seed, "facet", j).  The
    projection w of z onto H is a standard Gaussian of H, and w lies in
    j's cone at G iff m . z <= 0 for each of the cone's projected normals
    m, since m . z = m . w for m in H.  So one sign matrix per facet
    serves every face of it, and no facet polytope is built.  On every
    sample, the faces of the facet whose cones hold w satisfy Gram's
    relation for the facet itself, ridges included; a sample that breaks
    it raises GramViolationError.  A face's total is its hits over the
    facets through it, over the sample count.  Those facets draw
    independent streams, so its stderr is the quadrature of theirs, and
    `ok` and `equality` allow SIGMA_FACTOR standard errors.

    Ridges are exact in every dimension: their two facet angles are 1/2.

    Every facet angle carries the seed derive_seed(seed, "facet", j).
    """
    _check_samples(samples)
    d = p.dim
    lattice = p.face_lattice()
    if d < 2:
        return []  # no face of dimension 0 .. d-2
    faces = [face for k in range(d - 1) for face in lattice.faces_of_dim(k)]
    containing = np.concatenate([lattice.containing(k) for k in range(d - 1)])
    # A ridge lies in exactly two facets and is a facet of each, so both
    # angles are flat halfspace angles of exactly 1/2.
    if (lattice.containing(d - 2).sum(axis=1) != 2).any():
        raise PolyfaceError("ridge not contained in exactly two facets")
    seeds = [derive_seed(seed, "facet", j) for j in range(p.n_facets)]
    # Below dimension 3 every face reported is a ridge: nothing to compute.
    if d < 3:
        found_at = {}
    elif d <= 4:
        found_at = _facet_angles_exact(p, faces, containing)
    else:
        found_at = _facet_hits(p, samples, seeds, faces, containing)
    reports = []
    for g, (face, row) in enumerate(zip(faces, containing.tolist())):
        through = list(compress(range(p.n_facets), row))
        ridge = face.dim == d - 2
        exact = ridge or d <= 4
        found = [0.5, 0.5] if ridge else [found_at[g, j] for j in through]
        if exact:
            total, stderr, tol = sum(found), 0.0, EXACT_SLACK * len(found)
            estimates = tuple(AngleEstimate(a, 0.0, 0, seeds[j])
                              for a, j in zip(found, through))
        else:
            total = sum(found) / samples
            # Exact integers until the square root.
            stderr = math.sqrt(sum(h * (samples - h) for h in found)
                               / samples ** 3)
            tol = SIGMA_FACTOR * stderr
            estimates = tuple(_estimate(h, samples, seeds[j])
                              for h, j in zip(found, through))
        reports.append(CurvatureReport(
            face.vertices, face.dim, total, stderr, exact,
            equality=abs(total - 1.0) <= tol, ok=total <= 1.0 + tol,
            facet_angles=estimates))
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
        raise OutOfRangeError(
            f"projection angle check needs 0 <= k < dim, got {k}")
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
