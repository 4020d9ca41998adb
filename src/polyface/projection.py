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
from math import isqrt
from operator import mul

import numpy as np

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
    """A rational direction, flagged when it is in general position by
    construction."""

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
    return Direction(tuple(Fraction(scale * ui + m ** i)
                           for i, ui in enumerate(u)), True)


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
        image, den = _shadow_map(tuple(int(c) for c in primitive(vec)))
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
        upper_sets = [q.facets[i].vertex_set for i in upper]
        lower_sets = [q.facets[i].vertex_set for i in lower]
        upper_faces, lower_faces = [], []
        for face in q.face_lattice().faces:
            if face.dim < 0 or face.dim == q.dim:
                continue
            vs = face.vertex_set
            if any(vs <= u for u in upper_sets):
                upper_faces.append(face)
            if any(vs <= l for l in lower_sets):
                lower_faces.append(face)
        in_lower = set(lower_faces)
        boundary = tuple(f for f in upper_faces if f in in_lower)
        return ShadowComplexes(tuple(upper), tuple(lower), tuple(upper_faces),
                               tuple(lower_faces), boundary)

    return q.memo(("upper-lower", vec), build)


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

    def to_json(self) -> dict:
        return {
            "point": [str(c) for c in self.point],
            "x_plus": sorted(self.x_plus.vertex_set),
            "x_minus": sorted(self.x_minus.vertex_set),
            "l_plus": self.l_plus,
            "l_minus": self.l_minus,
            "interior": self.interior,
        }


def _int_geometry(q: Polytope):
    """Integer-scaled copy of the polytope's geometry, cached.

    Returns (scale, int vertices, facet triples (normal, num, den)) where a
    point y given as numerators Y over a positive denominator DEN (in the
    scaled space) satisfies facet (a, num, den) iff den*(a.Y) <= num*DEN.
    """
    def build():
        verts, scale = integer_scaled(q.vertices)
        facets = []
        for f in q.facets:
            a = tuple(int(c) for c in f.plane.normal)
            off = f.plane.offset * scale
            facets.append((a, off.numerator, off.denominator))
        return (scale, verts, facets)

    return q.memo("int-geometry", build)


def _aff_data_int(q: Polytope, face: Face, verts, ifacets):
    """(base, spanning diffs, hull equations, facet triples not containing
    the face) of a face's affine hull in the integer-scaled space, cached
    per face (direction independent).  The facets that contain the face
    hold with equality on its whole affine hull."""
    def build():
        idx = sorted(face.vertex_set)
        base = verts[idx[0]]
        diffs = [tuple(a - b for a, b in zip(verts[i], base))
                 for i in idx[1:]]
        outside = tuple(t for f, t in zip(q.facets, ifacets)
                        if not face.vertex_set <= f.vertex_set)
        return (base, tuple(span_basis(diffs)), tuple(null_space(diffs, q.dim)),
                outside)

    return q.memo(("face-affine", face.vertex_set), build)


def diagram_vertices(q: Polytope, v) -> tuple[DiagramVertex, ...]:
    """All crossing vertices of the overlay of the projected upper and
    lower complexes.

    Pairs of faces with complementary dimensions (summing to dim-1) are
    classified by the vertices they share, and only pairs that can give an
    interior crossing are solved.  The unknowns are a point of aff(x_plus)
    and a step t along v onto aff(x_minus); the system is square, and a
    nonsingular one gives the single common point of the projected hulls.
    The point qualifies when both lifts lie in the polytope (equivalently,
    in the witness faces) with the upper lift at or above the lower one.

    * Two or more shared vertices: the hulls share a line, so the system
      is singular and the pair never crosses.
    * Exactly one shared vertex w: w solves the system with t = 0, so the
      pair crosses iff the system is nonsingular (one rank test), and the
      crossing is w's shadow, a boundary crossing.
    * No shared vertex: the faces are disjoint, so a crossing needs t < 0,
      and under a general-position direction distinct lifts put it inside
      the shadow.  A crossing lies in both projected faces, so pairs whose
      projected vertices have disjoint bounding boxes are skipped.  The
      rest are solved, and each lift is tested only against the facets
      not containing its witness face; the others hold with equality on
      the face's affine hull.

    The arithmetic is fraction-free on a uniformly scaled integer copy of
    the geometry, so every decision is exact.
    """
    if q.dim < 2:
        raise DimensionTooLowError("diagram construction needs dim >= 2")
    vec = _direction_vector(v)
    complexes = upper_lower(q, vec)

    upper_faces: dict[int, list[Face]] = {}
    lower_faces: dict[int, list[Face]] = {}
    for face in complexes.upper_faces:
        upper_faces.setdefault(face.dim, []).append(face)
    for face in complexes.lower_faces:
        lower_faces.setdefault(face.dim, []).append(face)

    scale, iverts, ifacets = _int_geometry(q)
    v_int = tuple(int(c) for c in primitive(vec))
    dim = q.dim
    image, vden = _shadow_map(v_int)
    pden = vden * scale
    pv = [image(p) for p in iverts]

    def prepared(face):
        coords = list(zip(*(pv[i] for i in face.vertex_set)))
        return (face, sum(1 << i for i in face.vertex_set),
                _aff_data_int(q, face, iverts, ifacets),
                tuple(map(min, coords)), tuple(map(max, coords)))

    out = []
    for l_plus in range(0, dim):
        l_minus = dim - 1 - l_plus
        if l_plus not in upper_faces or l_minus not in lower_faces:
            continue
        lowers = [prepared(f) for f in lower_faces[l_minus]]
        for x_plus, mask_p, aff_p, lo_p, hi_p in map(prepared,
                                                     upper_faces[l_plus]):
            base_p, span_p, _, outside_p = aff_p
            cols = span_p + (v_int,)
            m = len(cols)
            for x_minus, mask_m, aff_m, lo_m, hi_m in lowers:
                shared = mask_p & mask_m
                if shared & (shared - 1):
                    continue  # two or more shared: the hulls share a line
                if not shared and any(hp < lm or hm < lp for lp, hp, lm, hm
                                      in zip(lo_p, hi_p, lo_m, hi_m)):
                    continue  # disjoint faces whose shadows' boxes miss
                base_m, _, eqs_m, outside_m = aff_m
                rows = [[sum(map(mul, eq, col)) for col in cols]
                        for eq in eqs_m]
                if shared:
                    if len(echelon(rows)[1]) == m:
                        point = tuple(Fraction(c, pden)
                                      for c in pv[shared.bit_length() - 1])
                        out.append(DiagramVertex(point, x_plus, x_minus,
                                                 l_plus, l_minus, False))
                    continue
                # One equation per hull equation of x_minus in the unknowns
                # (coefficients along aff(x_plus), step t along v); square
                # because the witness dimensions are complementary.  The
                # augmented rows [A | b] reduce to D * [I | x] with
                # D = +-det A exactly when A is nonsingular, so D and the
                # last column are Cramer's denominator and numerators up to
                # one common sign.
                for row, eq in zip(rows, eqs_m):
                    row.append(sum(map(mul, eq, base_m))
                               - sum(map(mul, eq, base_p)))
                reduced, pivots = echelon(rows)
                if pivots != list(range(m)):
                    continue  # projected hulls parallel or overlapping
                den = reduced[0][0]
                nums = [row[m] for row in reduced]
                if den < 0:
                    den = -den
                    nums = [-x for x in nums]
                # Disjoint faces cannot share a lift, and the upper lift
                # must sit strictly above the lower one: t < 0.
                if nums[-1] >= 0:
                    continue
                y_plus = [den * c for c in base_p]
                for coeff, b in zip(nums[:-1], span_p):
                    if coeff:
                        for j in range(dim):
                            y_plus[j] += coeff * b[j]
                y_minus = [yj + nums[-1] * vj for yj, vj in zip(y_plus, v_int)]
                if not _contains_int(outside_p, y_plus, den) or \
                   not _contains_int(outside_m, y_minus, den):
                    continue
                point = tuple(Fraction(c, den * pden) for c in image(y_plus))
                out.append(DiagramVertex(point, x_plus, x_minus,
                                         l_plus, l_minus, True))
    return tuple(out)


def _contains_int(ifacets, y: list[int], den: int) -> bool:
    for a, num, fden in ifacets:
        s = 0
        for ai, yi in zip(a, y):
            s += ai * yi
        if fden * s > num * den:
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
        return {
            "direction": self.direction.to_json(),
            "partition": self.complexes.to_json(),
            "shadow_f_vector": list(self.shadow.poly.f_vector().counts),
            "boundary_homeomorphic": self.boundary_ok,
            "diagram_vertices": [dv.to_json() for dv in self.vertices],
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
