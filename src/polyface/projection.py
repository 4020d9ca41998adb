"""Projections of polytopes: general-position directions, shadows,
upper/lower facet complexes, refinement-diagram vertices, and the
face-count gap against the shadow.

The shadow is the parallel projection along v onto x_j = 0, j the last
index with v_j != 0, with coordinate j dropped: it has the same
combinatorial type as any other projection along v, and everything checked
here is combinatorial.

A direction v is in general position when it is parallel to no proper
affine subspace spanned by vertices; equivalently, n.v != 0 for the normal
n of every hyperplane spanned by vertices.  `sample_direction` builds such
a direction in one step, by simulation of simplicity with an explicit
epsilon (Edelsbrunner & Muecke, ACM TOG 1990): a rounded Gaussian vector,
scaled up, plus a perturbation in powers of a modulus that exceeds twice
every possible normal coordinate.  No normal is enumerated, and the
direction is isotropic up to the rounding.  Shadows and facet partitions
are cached on the polytope, per direction vector, so the checks of one
direction share them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress
from math import comb, isnan, isqrt
from operator import mul
from typing import NamedTuple

import numpy as np

from ._predicates import _bounded, _certified_signs
from ._rng import chunk_generator
from .bounds import ratio_bound
from .errors import (
    DimensionTooLowError,
    MixedDimensionsError,
    OutOfRangeError,
    ZeroDotProductError,
)
from .exact import (
    Vector,
    dot,
    echelon,
    integer_scaled,
    null_space,
    primitive,
    span_basis,
    vector,
)
from .lattice import Face
from .polytope import Polytope, _build


@dataclass(frozen=True)
class Direction:
    """A direction, flagged when it is in general position by construction:
    a tuple of ints when sampled, rational as given otherwise."""

    v: Vector
    verified: bool

    def to_json(self) -> dict:
        return {"v": [str(c) for c in self.v], "verified": self.verified}


def sample_direction(q: Polytope, seed: int = 0) -> Direction:
    """Seeded direction in general position for q, deterministic in
    (polytope, seed).

    u = round(10^6 g) for a standard Gaussian g, and
    v = M^d u + (1, M, ..., M^(d-1)) with M = 2H + 1.
    """
    d = q.dim
    if d < 1:
        raise OutOfRangeError("directions need dimension >= 1")
    _, pts, _ = _int_geometry(q)
    spread = max(max(col) - min(col) for col in zip(*pts))
    # The primitive normal n of a hyperplane spanned by vertices is the
    # vector of (d-1)-minors of d-1 vertex differences over their gcd; the
    # rows have norm at most sqrt(d) * spread, so by Hadamard's inequality
    # |n_i| <= H = ceil(sqrt(d) * spread)^(d-1).  If n.u != 0 then
    # |M^d n.u| >= M^d > H (M^d - 1) / (M - 1) >= |sum n_i M^i|; otherwise
    # n.v = sum n_i M^i, a balanced base-M expansion with digits below M/2,
    # which is nonzero because n is.  Either way n.v != 0.
    h = (isqrt(d * spread * spread - 1) + 1) ** (d - 1)
    m = 2 * h + 1
    g = chunk_generator(seed, 0x61).standard_normal(d)
    u = [int(c) for c in np.rint(g * 1e6)]
    scale = m ** d
    return Direction(tuple(scale * ui + m ** i for i, ui in enumerate(u)),
                     True)


def _direction_vector(v) -> Vector:
    if isinstance(v, Direction):
        return v.v
    return vector(v)


@dataclass(frozen=True)
class ShadowPolytope:
    """The image of a polytope under the parallel projection along v onto
    x_j = 0 (j the last index with v_j != 0), coordinate j dropped: the
    same combinatorial type as any other projection along v.

    ``poly`` has the unit metric; ``vertex_map[i]`` gives the shadow vertex
    index that vertex i of the source projects to, or None when the
    projection lands inside the shadow (not a vertex of it).
    """

    poly: Polytope
    vertex_map: tuple[int | None, ...]


def _shadow_map(v: tuple[int, ...]):
    """The shadow map x -> x - (x_j / v_j) v, coordinate j dropped, for a
    primitive integer v: (image, den), image(y) being the numerators of the
    shadow of the integer point y over den = |v_j|, negated when v_j < 0 so
    that all share one positive denominator and compare exactly."""
    j = max(i for i, c in enumerate(v) if c)
    den = abs(v[j])
    rest = tuple(c if v[j] > 0 else -c for c in v[:j] + v[j + 1:])

    def image(y) -> tuple[int, ...]:
        return tuple(den * yi - y[j] * c
                     for yi, c in zip(y[:j] + y[j + 1:], rest))

    return image, den


def shadow(q: Polytope, v) -> ShadowPolytope:
    """Project q along v and rebuild the hull; v = 0 is a ZeroVectorError."""
    vec = _direction_vector(v)

    def build() -> ShadowPolytope:
        if len(vec) != q.dim:
            raise MixedDimensionsError(
                f"direction of dim {len(vec)} for a {q.dim}-polytope")
        scale, iverts, _ = _int_geometry(q)
        image, den = _shadow_map(primitive(vec))
        projected = [tuple(Fraction(c, den * scale) for c in image(p))
                     for p in iverts]
        poly = _build(projected, (Fraction(1),) * (q.dim - 1))
        locate = {p: i for i, p in enumerate(poly.vertices)}
        vmap = tuple(locate.get(p) for p in projected)
        return ShadowPolytope(poly, vmap)

    return q.memo(("shadow", vec), build)


@dataclass(frozen=True)
class ShadowComplexes:
    """Facet partition by the sign of the pairing with v, the proper faces
    of the two subcomplexes the parts generate (in lattice order), and the
    faces lying in both (the shadow boundary)."""

    upper: tuple[int, ...]
    lower: tuple[int, ...]
    upper_faces: tuple[Face, ...]
    lower_faces: tuple[Face, ...]
    boundary_faces: tuple[Face, ...]

    def to_json(self) -> dict:
        return {
            "upper": list(self.upper),
            "lower": list(self.lower),
            "boundary_faces": [sorted(f.vertex_set) for f in self.boundary_faces],
        }


def upper_lower(q: Polytope, v) -> ShadowComplexes:
    """Exact sign partition of the facets; a zero pairing means the
    direction is not in general position and is rejected (on every call)."""
    vec = _direction_vector(v)

    def build() -> ShadowComplexes:
        upper, lower = [], []
        for i, f in enumerate(q.facets):
            s = dot(f.plane.normal, vec)
            if s > 0:
                upper.append(i)
            elif s < 0:
                lower.append(i)
            else:
                raise ZeroDotProductError(
                    f"direction orthogonal to facet {i}: not in general position"
                )
        upper_faces, lower_faces, boundary = [], [], []
        for k in range(q.dim):
            faces = q.face_lattice().faces_of_dim(k)
            up, low = _lies_in(q, upper, k), _lies_in(q, lower, k)
            upper_faces += compress(faces, up)
            lower_faces += compress(faces, low)
            boundary += compress(faces, up & low)
        return ShadowComplexes(tuple(upper), tuple(lower), tuple(upper_faces),
                               tuple(lower_faces), tuple(boundary))

    return q.memo(("upper-lower", vec), build)


def _lies_in(q: Polytope, facets, k: int) -> np.ndarray:
    """Which k-faces of q, in lattice order, lie in one of the facets."""
    return q.face_lattice().containing(k)[:, facets].any(axis=1)


def shadow_boundary_check(q: Polytope, v) -> bool:
    """Combinatorial homeomorphism check: the projections of the shadow
    boundary faces are exactly the proper nonempty faces of the shadow."""
    sh = shadow(q, v)
    complexes = upper_lower(q, v)
    shadow_faces = {
        f.vertex_set: f.dim
        for f in sh.poly.face_lattice().faces
        if 0 <= f.dim < sh.poly.dim
    }
    seen = {}
    for face in complexes.boundary_faces:
        images = [sh.vertex_map[i] for i in face.vertex_set]
        if any(i is None for i in images):
            return False  # a boundary vertex projected to a non-vertex
        key = frozenset(images)
        if key not in shadow_faces or shadow_faces[key] != face.dim:
            return False
        if key in seen:
            return False  # two boundary faces with the same image
        seen[key] = face.dim
    return len(seen) == len(shadow_faces)


@dataclass(frozen=True)
class DiagramVertex:
    """A transversal crossing of an upper and a lower face seen in the
    shadow: the unique common point of their projections, labeled with both
    witness faces, their dimensions, and whether the point is interior to
    the shadow."""

    point: Vector
    x_plus: Face
    x_minus: Face
    l_plus: int
    l_minus: int
    interior: bool

    def to_json(self, point_text: list[str] | None = None) -> dict:
        """The JSON record; point_text, when given, is the point's
        coordinates already formatted."""
        return {
            "point": point_text if point_text is not None
            else [str(c) for c in self.point],
            "x_plus": sorted(self.x_plus.vertex_set),
            "x_minus": sorted(self.x_minus.vertex_set),
            "l_plus": self.l_plus,
            "l_minus": self.l_minus,
            "interior": self.interior,
        }


def _int_geometry(q: Polytope):
    """Integer-scaled copy of the polytope's geometry, cached.

    Returns (scale, int vertices, facet planes (a, c)): a is the facet's
    primitive integer normal and c its offset in the scaled space, where a
    point y given as numerators Y over a positive denominator DEN
    satisfies the facet iff a.Y <= c*DEN.  c is an int: the facet holds a
    vertex, whose scaled coordinates are ints, and c is a's integer dot
    product with them.
    """
    def build():
        verts, scale = integer_scaled(q.vertices)
        planes = [(f.plane.normal, int(f.plane.offset * scale))
                  for f in q.facets]
        return (scale, verts, planes)

    return q.memo("int-geometry", build)


def _aff_data_int(q: Polytope, face: Face, verts, planes):
    """(base, spanning diffs, hull equations, facet planes not containing
    the face) of a face's affine hull in the integer-scaled space.  The
    facets that contain the face hold with equality on its whole affine
    hull."""
    idx = sorted(face.vertex_set)
    base = verts[idx[0]]
    diffs = [tuple(a - b for a, b in zip(verts[i], base)) for i in idx[1:]]
    outside = tuple(t for f, t in zip(q.facets, planes)
                    if not face.vertex_set <= f.vertex_set)
    return (base, tuple(span_basis(diffs)), tuple(null_space(diffs, q.dim)),
            outside)


# -- the float filter of face pairs -------------------------------------------
#
# Values with magnitudes, certified by `_predicates`: every value below
# comes from at most 2m + 2 <= 16 input magnitudes per term, and
# `_rounding` bounds its depth.

# Float cells per array of one batch of pairs.
_FILTER_CELLS = 1 << 15
# Subtract values, add magnitudes.
_MINUS = np.array([-1.0, 1.0])


def _float_geometry(q: Polytope):
    """(beta, facet rows) of the integer-scaled geometry, cached.

    Positions are divided by 2^beta, which brings every vertex coordinate
    below 1 in size.  Facet plane (a, c) becomes the row (a, -c / 2^beta)
    over a power of two of its own, so its slack at a homogeneous point
    (y / 2^beta, 1) keeps its sign."""
    def build():
        _, verts, planes = _int_geometry(q)
        beta = max(c.bit_length() for p in verts for c in p)
        return beta, _bounded([a + (-c,) for a, c in planes], q.dim + 1,
                              (0,) * q.dim + (beta,))

    return q.memo("float-geometry", build)


class _FaceFloats(NamedTuple):
    """Faces' data for the float filter, stacked: each direction or
    equation over a power of two of its own, and positions over 2^beta.
    For F faces of dimension k: span bases (2, F, k, dim), base points
    (2, F, dim), hull equations (2, F, dim - k, dim) with their values at
    the base point (2, F, dim - k), and the facet slacks
    (2, F, k + 1, n_facets) of the homogeneous base point and of the span
    vectors."""

    span: np.ndarray
    base: np.ndarray
    eqs: np.ndarray
    offsets: np.ndarray
    slacks: np.ndarray

    def take(self, rows) -> _FaceFloats:
        return _FaceFloats(*(a[:, rows] for a in self))


def _face_floats(affs, k: int, dim: int, beta: int,
                 facet_rows: np.ndarray) -> _FaceFloats:
    """The filter data of k-faces given by their exact (base, span basis,
    hull equations, ...), in the scaling of `_float_geometry`."""
    count = len(affs)
    span = _bounded([r for aff in affs for r in aff[1]], dim)
    span = span.reshape(2, count, k, dim)
    base = _bounded([aff[0] for aff in affs], dim, beta, False)
    eqs = _bounded([eq + (sum(map(mul, eq, aff[0])),)
                    for aff in affs for eq in aff[2]],
                   dim + 1, (0,) * dim + (beta,))
    eqs = eqs.reshape(2, count, dim - k, dim + 1)
    ends = np.zeros((2, count, k + 1, 1))
    ends[:, :, 0] = 1.0
    points = np.concatenate([base[:, :, None], span], axis=2)
    return _FaceFloats(span, base, eqs[..., :dim], eqs[..., dim],
                       np.concatenate([points, ends], axis=3)
                       @ facet_rows.swapaxes(1, 2)[:, None])


class _FaceTable(NamedTuple):
    """The k-faces of a polytope for the diagram, in lattice order: the
    faces, each face's incidence row over the vertices, its exact affine
    data (`_aff_data_int`) and its filter data."""

    faces: tuple
    incidence: np.ndarray
    affs: tuple
    floats: _FaceFloats


def _face_table(q: Polytope, k: int) -> _FaceTable:
    """The k-faces' table, cached (direction independent)."""
    def build():
        _, verts, planes = _int_geometry(q)
        faces = q.face_lattice().faces_of_dim(k)
        incidence = np.zeros((len(faces), q.n_vertices))
        for i, f in enumerate(faces):
            incidence[i, sorted(f.vertex_set)] = 1.0
        affs = tuple(_aff_data_int(q, f, verts, planes) for f in faces)
        return _FaceTable(faces, incidence, affs,
                          _face_floats(affs, k, q.dim, *_float_geometry(q)))

    return q.memo(("face-table", k), build)


def _direction_floats(facet_rows: np.ndarray, v_int) -> tuple:
    """(v, facet slacks of v): v over a power of two as a (2, dim) array,
    and its pairing with each facet row, (2, n_facets)."""
    v = _bounded([v_int], len(v_int))[:, 0]
    return v, (facet_rows[:, :, :-1] @ v[:, :, None])[..., 0]


@lru_cache(maxsize=None)
def _laplace_plan(m: int, width: int):
    """Laplace expansion of the m x m minors of an m x width matrix, row by
    row: for each row r >= 1, the (r + 1)-subsets of columns, the index of
    each subset with one column dropped among the r-subsets, and the
    cofactor signs."""
    steps = []
    index = {(c,): c for c in range(width)}
    for r in range(1, m):
        subsets = list(combinations(range(width), r + 1))
        drop = [[index[s[:j] + s[j + 1:]] for j in range(r + 1)]
                for s in subsets]
        signs = np.array([[(-1.0) ** (r + j) for j in range(r + 1)],
                          [1.0] * (r + 1)])[:, None, None, :]
        steps.append((np.array(subsets), np.array(drop), signs))
        index = {s: i for i, s in enumerate(subsets)}
    return steps


def _minors(a: np.ndarray) -> np.ndarray:
    """(2, B, C(w, m)) from a (2, B, m, w) stack, w >= m: the m x m minors
    in the lexicographic order of their columns, and their magnitudes (the
    permanents of the magnitudes), at most m (m + 1) / 2 roundings deeper
    than the entries."""
    m = a.shape[2]
    minors = a[:, :, 0]
    for r, (subsets, drop, signs) in enumerate(_laplace_plan(m, a.shape[3]),
                                               1):
        minors = (a[:, :, r][:, :, subsets] * minors[:, :, drop]
                  * signs).sum(axis=-1)
    return minors


def _rounding(m: int, dim: int) -> float:
    """A bound on gamma_N / (1 - gamma_N), with a factor 2 to spare, for the
    deepest value of the filter: inputs 2 roundings each, system entries
    dim + 5 deep, m x m minors m (dim + 5) + m (m + 1) / 2, and facet
    slacks (m + 1)(dim + 6) + m (m + 1) / 2."""
    n = (m + 1) * (dim + 6) + m * (m + 1) // 2
    return 2 * (n + 4) * 2.0 ** -53


def _system(span: np.ndarray, eqs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The matrices A (2, B, m, m) of pairs: the lower face's hull
    equations (rows) against the upper face's span and v (columns)."""
    cols = np.concatenate([span, np.broadcast_to(
        v[:, None, None], span.shape[:2] + (1, v.shape[1]))], axis=2)
    return eqs @ cols.swapaxes(2, 3)


def _det_signs(span: np.ndarray, eqs: np.ndarray, v: np.ndarray,
               rounding: float) -> np.ndarray:
    """The certified sign of D = det A of each pair (-1, 0 or 1, NaN when
    uncertified), from the upper faces' span and the lower faces' hull
    equations alone."""
    return _certified_signs(_minors(_system(span, eqs, v))[:, :, 0],
                            rounding)


def _filter_values(up: _FaceFloats, low: _FaceFloats, v: np.ndarray,
                   step_slacks: np.ndarray):
    """(Cramer values, upper slacks, lower slacks) of the pairs (up[i],
    low[i]) of one level, each with its magnitudes on the leading axis.

    The system A (`_system`) has the upper face's span and v for columns
    and the lower face's hull equations for rows; b is those equations'
    values at the lower base point less their values at the upper one.
    Cramer's values (2, B, m + 1) are D = det A and c_0 .. c_(m-1), c_k
    being det A with column k replaced by b; the last, c_t, is the step's.
    The lifts' slacks against facet row f_j (2, B, n_facets) are linear in
    them: the upper one is D (f_j . (base, 1)) + sum_i c_i (f_j .
    (span_i, 0)), and the lower one adds c_t (f_j . (v, 0)).  Each is the
    lift's exact slack times D, times a positive power of two."""
    aug = np.concatenate([
        _system(up.span, low.eqs, v),
        (low.offsets + _MINUS[:, None, None]
         * (low.eqs @ up.base[..., None])[..., 0])[..., None]], axis=3)
    m = aug.shape[2]
    # The minor without column k sits at m - k; c_k is it times
    # (-1)^(m-1-k), which moves the right-hand side back into column k.
    signs = np.array([[1.0] + [(-1.0) ** (m - 1 - k) for k in range(m)],
                      [1.0] * (m + 1)])
    cramer = _minors(aug)[:, :, [0] + list(range(m, 0, -1))] \
        * signs[:, None, :]
    upper = np.einsum("xbr,xbrj->xbj", cramer[:, :, :m], up.slacks)
    return cramer, upper, upper + cramer[:, :, m, None] * step_slacks[:, None]


def _rejected(up: _FaceFloats, low: _FaceFloats, v: np.ndarray,
              step_slacks: np.ndarray, rounding: float) -> np.ndarray:
    """Whether the float filter proves that the disjoint pair (up[i],
    low[i]) gives no crossing: D = 0 certified (a singular system), or
    D != 0 certified and either sign(c_t) sign(D) >= 0 (no step down from
    the upper lift) or sign(D) times some lift's slack > 0 (a lift outside
    the polytope)."""
    cramer, upper, lower = _filter_values(up, low, v, step_slacks)
    det = _certified_signs(cramer[:, :, 0], rounding)
    step = _certified_signs(cramer[:, :, -1], rounding)
    outside = ((_certified_signs(upper, rounding) * det[:, None] > 0)
               | (_certified_signs(lower, rounding) * det[:, None] > 0))
    return (det == 0) | ((abs(det) == 1) & (
        (step * det > 0) | (step == 0) | outside.any(axis=1)))


def _in_chunks(rows: np.ndarray, width: int):
    """Consecutive parts of rows, each small enough that arrays of `width`
    float cells a row hold at most _FILTER_CELLS."""
    chunk = max(1, _FILTER_CELLS // (2 * width))
    return (rows[at:at + chunk] for at in range(0, len(rows), chunk))


def _solve(aff_p, aff_m, v_int):
    """(den, numerators) of a pair's system by exact elimination: den > 0
    and the numerators of the coefficients along aff(x_plus), then of the
    step t along v.  None when the system is singular."""
    base_p, span_p, _, _ = aff_p
    base_m, _, eqs_m, _ = aff_m
    cols = span_p + (v_int,)
    m = len(cols)
    # One equation per hull equation of x_minus in the unknowns; square
    # because the witness dimensions are complementary.  The augmented
    # rows [A | b] reduce to D * [I | x] with D = +-det A exactly when A is
    # nonsingular, so D and the last column are Cramer's denominator and
    # numerators up to one common sign.
    rows = [[sum(map(mul, eq, col)) for col in cols]
            + [sum(map(mul, eq, base_m)) - sum(map(mul, eq, base_p))]
            for eq in eqs_m]
    reduced, pivots = echelon(rows)
    if pivots != list(range(m)):
        return None  # projected hulls parallel or overlapping
    den = reduced[0][0]
    nums = [row[m] for row in reduced]
    return (den, nums) if den > 0 else (-den, [-x for x in nums])


def _disjoint_crossing(aff_p, aff_m, v_int):
    """(den, numerators) of the upper lift of a disjoint pair's interior
    crossing; None when the pair does not cross."""
    solved = _solve(aff_p, aff_m, v_int)
    # Disjoint faces cannot share a lift, and the upper lift must sit
    # strictly above the lower one: t < 0.
    if solved is None or solved[1][-1] >= 0:
        return None
    den, nums = solved
    base_p, span_p, _, outside_p = aff_p
    outside_m = aff_m[3]
    y_plus = [den * c for c in base_p]
    for coeff, b in zip(nums[:-1], span_p):
        if coeff:
            for j in range(len(y_plus)):
                y_plus[j] += coeff * b[j]
    y_minus = [yj + nums[-1] * vj for yj, vj in zip(y_plus, v_int)]
    if not _contains_int(outside_p, y_plus, den) or \
       not _contains_int(outside_m, y_minus, den):
        return None
    return den, y_plus


def diagram_vertices(q: Polytope, v) -> tuple[DiagramVertex, ...]:
    """All crossing vertices of the overlay of the projected upper and
    lower complexes.

    Pairs of faces with complementary dimensions (summing to dim-1) are
    classified by the vertices they share, one level (l_plus, l_minus) at a
    time, with one product of the level's vertex incidences, and only pairs
    that can give an interior crossing are solved.  The unknowns are a
    point of aff(x_plus) and a step t along v onto aff(x_minus); the system
    is square, and a nonsingular one gives the single common point of the
    projected hulls.  The point qualifies when both lifts lie in the
    polytope (equivalently, in the witness faces) with the upper lift at or
    above the lower one.

    * Two or more shared vertices: the hulls share a line, so the system
      is singular and the pair never crosses.
    * Exactly one shared vertex w: w solves the system with t = 0, so the
      pair crosses iff the system is nonsingular, and the crossing is w's
      shadow, a boundary crossing.
    * No shared vertex: the faces are disjoint, so a crossing needs t < 0,
      and under a general-position direction distinct lifts put it inside
      the shadow.  A crossing lies in both projected faces, so pairs whose
      projected vertices have disjoint bounding boxes are skipped (on
      floats, each coordinate column over one power of two: rounding is
      monotone, so a strict float miss is an exact one).

    The remaining pairs of a level go through one float filter with a
    certified error bound, batched.  For a one-vertex pair it computes D =
    det A alone (`_det_signs`): the pair crosses when the filter certifies
    D != 0, and is skipped when it certifies D = 0.  A disjoint pair is
    rejected (`_rejected`) when the filter proves it singular, with t >= 0,
    or with a lift outside the polytope.  A
    one-vertex pair with an uncertified D, and every disjoint pair not
    rejected, is solved exactly (`_solve`).  Each lift of a disjoint pair
    is tested only against the facets not containing its witness face; the
    others hold with equality on the face's affine hull.

    Every emitted point is computed fraction-free on a uniformly scaled
    integer copy of the geometry, so every output is exact.
    """
    if q.dim < 2:
        raise DimensionTooLowError("diagram construction needs dim >= 2")
    vec = _direction_vector(v)
    complexes = upper_lower(q, vec)
    scale, iverts, planes = _int_geometry(q)
    v_int = primitive(vec)
    dim = q.dim
    image, vden = _shadow_map(v_int)
    pden = vden * scale
    pv = [image(p) for p in iverts]
    # Shadow coordinates for the box test, each column over a power of two
    # that brings it below 1 in size: a monotone rounding.
    box_points = _bounded(pv, dim - 1, [max(abs(c) for c in col).bit_length()
                                        for col in zip(*pv)], False)[0]

    v_float, step_slacks = _direction_floats(_float_geometry(q)[1], v_int)
    # The shadow of vertex w, built once: it is every boundary crossing at
    # w, and they share it.
    shadow_points: dict[int, Vector] = {}

    def boxes(table, rows):
        inside = table.incidence[rows, :, None] > 0
        return (np.where(inside, box_points, np.inf).min(axis=1),
                np.where(inside, box_points, -np.inf).max(axis=1))

    out = []
    for l_plus in range(0, dim):
        l_minus = dim - 1 - l_plus
        tu, tl = _face_table(q, l_plus), _face_table(q, l_minus)
        # The table rows of the upper l_plus- and lower l_minus-faces.
        ru = np.flatnonzero(_lies_in(q, complexes.upper, l_plus))
        rl = np.flatnonzero(_lies_in(q, complexes.lower, l_minus))
        shared = tu.incidence[ru] @ tl.incidence[rl].T
        lo_u, hi_u = boxes(tu, ru)
        lo_l, hi_l = boxes(tl, rl)
        miss = ((hi_u[:, None] < lo_l[None]) | (hi_l[None] < lo_u[:, None])
                ).any(axis=2)
        # Disjoint pairs whose boxes meet, and one-vertex pairs, whose
        # boxes always do, in (upper, lower) index order: the order of
        # the level's vertices.
        iu, il = np.nonzero((shared == 1) | ((shared == 0) & ~miss))
        if len(iu):
            m = l_plus + 1
            rounding = _rounding(m, dim)
            pu, pl = ru[iu], rl[il]  # each pair's table rows
            touching = shared[iu, il] == 1
            det = np.full(len(iu), np.nan)
            todo = np.zeros(len(iu), dtype=bool)
            # A one-vertex pair needs only the sign of D, and is skipped
            # when D = 0 is certified.
            ones = np.flatnonzero(touching)
            for at in _in_chunks(ones, max(comb(m, r + 1) * (r + 1)
                                           for r in range(m))):
                det[at] = _det_signs(tu.floats.span[:, pu[at]],
                                     tl.floats.eqs[:, pl[at]], v_float,
                                     rounding)
            todo[ones] = det[ones] != 0
            width = max(max(comb(m + 1, r + 1) * (r + 1) for r in range(m)),
                        (m + 1) * len(planes))
            for at in _in_chunks(np.flatnonzero(~touching), width):
                todo[at] = ~_rejected(tu.floats.take(pu[at]),
                                      tl.floats.take(pl[at]), v_float,
                                      step_slacks, rounding)
            for a, b, one, sign in zip(iu[todo].tolist(), il[todo].tolist(),
                                       touching[todo].tolist(),
                                       det[todo].tolist()):
                x_plus, x_minus = tu.faces[ru[a]], tl.faces[rl[b]]
                aff_p, aff_m = tu.affs[ru[a]], tl.affs[rl[b]]
                if one:
                    if isnan(sign) and _solve(aff_p, aff_m, v_int) is None:
                        continue  # singular: the projected hulls overlap
                    (w,) = x_plus.vertex_set & x_minus.vertex_set
                    if w not in shadow_points:
                        shadow_points[w] = tuple(Fraction(c, pden)
                                                 for c in pv[w])
                    out.append(DiagramVertex(shadow_points[w], x_plus,
                                             x_minus, l_plus, l_minus, False))
                else:
                    found = _disjoint_crossing(aff_p, aff_m, v_int)
                    if found is not None:
                        den, y_plus = found
                        point = tuple(Fraction(c, den * pden)
                                      for c in image(y_plus))
                        out.append(DiagramVertex(point, x_plus, x_minus,
                                                 l_plus, l_minus, True))
    return tuple(out)


def _contains_int(planes, y: list[int], den: int) -> bool:
    for a, c in planes:
        s = 0
        for ai, yi in zip(a, y):
            s += ai * yi
        if s > c * den:
            return False
    return True


@dataclass(frozen=True)
class GapReport:
    """Exact face-count gap between a polytope and one of its shadows.

    ``shadow_f_k`` counts the k-faces of the shadow's boundary (its proper
    faces): those are exactly the images of the shadow-boundary faces of
    the polytope, so the gap counts the k-faces lost to the projection.
    """

    k: int
    f_k: int
    shadow_f_k: int
    gap: int
    bound: Fraction  # 2 * ratio_bound(dim + 1, dim - k)
    ok: bool

    def to_json(self) -> dict:
        return {"k": self.k, "f_k": self.f_k, "shadow_f_k": self.shadow_f_k,
                "gap": self.gap, "bound": str(self.bound), "ok": self.ok}


def gap_check(q: Polytope, v, k: int) -> GapReport:
    """f_k(Q) - (proper k-faces of the shadow), exactly at least
    2 * ratio_bound(dim+1, dim-k).

    The proper-face count matters only at k = dim(shadow), where it is 0;
    counting the shadow itself there would falsify the inequality on
    simplices, whose ridge count meets the bound with equality.
    """
    if q.dim < 2:
        raise DimensionTooLowError("gap check needs dim >= 2")
    if not 0 <= k <= q.dim - 1:
        raise OutOfRangeError(f"gap check needs 0 <= k < dim, got {k}")
    sh = shadow(q, v)
    fk = q.f_vector().count(k)
    sk = sh.poly.f_vector().count(k) if k < sh.poly.dim else 0
    gap = fk - sk
    bound = 2 * ratio_bound(q.dim + 1, q.dim - k)
    return GapReport(k, fk, sk, gap, bound, Fraction(gap) >= bound)


@dataclass(frozen=True)
class ShadowDiagram:
    """Everything the overlay construction produces for one direction."""

    direction: Direction
    complexes: ShadowComplexes
    shadow: ShadowPolytope
    vertices: tuple[DiagramVertex, ...]
    boundary_ok: bool
    gap_reports: tuple[GapReport, ...]

    @property
    def interior_vertices(self) -> tuple[DiagramVertex, ...]:
        return tuple(dv for dv in self.vertices if dv.interior)

    def to_json(self) -> dict:
        # The boundary crossings at one vertex share its shadow point, one
        # object: format each point object once.
        texts: dict[int, list[str]] = {}
        for dv in self.vertices:
            if id(dv.point) not in texts:
                texts[id(dv.point)] = [str(c) for c in dv.point]
        return {
            "direction": self.direction.to_json(),
            "partition": self.complexes.to_json(),
            "shadow_f_vector": list(self.shadow.poly.f_vector().counts),
            "boundary_homeomorphic": self.boundary_ok,
            "diagram_vertices": [dv.to_json(texts[id(dv.point)])
                                 for dv in self.vertices],
            "interior_count": len(self.interior_vertices),
            "gaps": [g.to_json() for g in self.gap_reports],
        }


def build_shadow_diagram(q: Polytope, direction: Direction) -> ShadowDiagram:
    """Shadow, facet partition, boundary check, diagram vertices and all
    gap checks for one general-position direction."""
    if q.dim < 2:
        raise DimensionTooLowError("diagrams need dim >= 2")
    sh = shadow(q, direction)
    complexes = upper_lower(q, direction)
    verts = diagram_vertices(q, direction)
    gaps = tuple(gap_check(q, direction, k) for k in range(q.dim))
    ok = shadow_boundary_check(q, direction)
    return ShadowDiagram(direction if isinstance(direction, Direction)
                         else Direction(_direction_vector(direction), False),
                         complexes, sh, verts, ok, gaps)
