"""Face lattices: construction from vertex-facet incidences, f-vectors,
duals and quotients.

Every lattice here comes from one incidence-only construction (Kaibel and
Pfetsch, "Computing the face lattice of a polytope from its vertex-facet
incidences", CGTA 2002).  Working top down on vertex bitmasks, the facets
of a face F are the inclusion-maximal sets among the intersections of F
with the polytope's facets, so each pass yields the faces one dimension
lower together with their covers.  The polytope's dimension is given, so
the lattice does no arithmetic at all.  The dual and the quotients reuse
the same construction on relabelled incidences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EulerViolationError, NotAFaceError
# Not called here.  benchmarks/test_benchmarks.py names this module as one
# that binds affine_dim; drop the import once that test finds the binding
# modules from their namespaces.
from .exact import affine_dim  # noqa: F401


@dataclass(frozen=True)
class Face:
    """A face as a set of vertex indices plus its dimension."""

    vertex_set: frozenset[int]
    dim: int

    def __repr__(self):
        verts = ",".join(str(v) for v in sorted(self.vertex_set))
        return f"Face(dim={self.dim}, {{{verts}}})"


@dataclass(frozen=True)
class FVector:
    """Face counts f_0 .. f_{dim-1}, with f_{-1} = f_dim = 1 by convention.

    The Euler relation is asserted at construction time; a violation means
    an upstream lattice bug, never bad luck.
    """

    dim: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != max(self.dim, 0):
            raise EulerViolationError(
                f"f-vector length {len(self.counts)} does not match dim {self.dim}"
            )
        total = sum((-1) ** k * c for k, c in enumerate(self.counts))
        expected = 1 - (-1) ** self.dim
        if total != expected:
            raise EulerViolationError(
                f"Euler relation failed: alternating sum {total} != {expected} "
                f"for counts {self.counts}"
            )

    def count(self, k: int) -> int:
        """f_k with the boundary conventions; 0 outside [-1, dim]."""
        if k == -1 or k == self.dim:
            return 1
        if 0 <= k < self.dim:
            return self.counts[k]
        return 0

    def __iter__(self):
        return iter(self.counts)

    def __getitem__(self, k: int) -> int:
        return self.count(k)


class FaceLattice:
    """The full graded lattice of faces, from the empty face to the polytope.

    Faces are listed in a canonical order (by dimension, then sorted vertex
    tuple); ``covers`` holds index pairs (lower, upper) of the covering
    relation.
    """

    def __init__(self, faces: Sequence[Face], covers: Sequence[tuple[int, int]],
                 dim: int, n_vertices: int):
        self.faces = tuple(faces)
        self.covers = tuple(covers)
        self.dim = dim
        self.n_vertices = n_vertices
        self._index = {f.vertex_set: i for i, f in enumerate(self.faces)}
        self._by_dim: dict[int, list[Face]] = {}
        for f in self.faces:
            self._by_dim.setdefault(f.dim, []).append(f)

    def __len__(self):
        return len(self.faces)

    def faces_of_dim(self, k: int) -> tuple[Face, ...]:
        return tuple(self._by_dim.get(k, ()))

    def find(self, face: Face | Iterable[int]) -> Face:
        """This lattice's face with the vertex set of a Face or vertex
        collection; NotAFaceError when there is none."""
        key = frozenset(face.vertex_set if isinstance(face, Face) else face)
        i = self._index.get(key)
        if i is None:
            raise NotAFaceError(f"{sorted(key)} is not a face of this lattice")
        return self.faces[i]

    def f_vector(self) -> FVector:
        counts = tuple(len(self._by_dim.get(k, ())) for k in range(self.dim))
        if len(self._by_dim.get(-1, ())) != 1 or len(self._by_dim.get(self.dim, ())) != 1:
            raise EulerViolationError("lattice must have unique bottom and top")
        return FVector(self.dim, counts)


def build_face_lattice(n: int, coatom_sets: Iterable[Iterable[int]],
                       dim: int) -> FaceLattice:
    """The face lattice of a dim-polytope on atoms 0..n-1 whose facets
    have the given atom sets, from the incidences alone; no arithmetic.

    Top down on bitmasks: the facets of a face F are the inclusion-maximal
    sets among F & G over the facets G not containing F, or the empty face
    when there is none.  Each pass is one dimension lower, so it yields the
    grading and the covers together.
    """
    coatoms = {sum(1 << a for a in atoms) for atoms in coatom_sets}
    level = {(1 << n) - 1}
    levels = [level]
    edges = []
    for _ in range(dim + 1):
        below = set()
        for f in level:
            kept = []
            for c in sorted({f & g for g in coatoms} - {f},
                            key=int.bit_count, reverse=True):
                if all(c & k != c for k in kept):
                    kept.append(c)
            for c in kept or [0]:
                below.add(c)
                edges.append((c, f))
        level = below
        levels.append(level)

    faces: list[Face] = []
    index: dict[int, int] = {}
    for d, masks in zip(range(-1, dim + 1), reversed(levels)):
        for bits, m in sorted((tuple(i for i in range(n) if m >> i & 1), m)
                              for m in masks):
            index[m] = len(faces)
            faces.append(Face(frozenset(bits), d))
    covers = sorted((index[lo], index[hi]) for lo, hi in edges)
    return FaceLattice(faces, covers, dim, n)


def dual(lattice: FaceLattice) -> FaceLattice:
    """Order-reversed lattice: faces relabeled by the facets containing them.

    Purely combinatorial (no polarity), so no interior-point requirement.
    The dual's vertices are the original facets, in canonical order; its
    facets are the original vertices.
    """
    facets = [f.vertex_set for f in lattice.faces_of_dim(lattice.dim - 1)]
    return build_face_lattice(
        len(facets),
        ([i for i, ft in enumerate(facets) if v in ft]
         for v in range(lattice.n_vertices)),
        lattice.dim,
    )


def quotient(lattice: FaceLattice, base) -> FaceLattice:
    """The lattice of the quotient polytope P/G: the interval (G, P].

    ``base`` is a Face or a vertex set naming a nonempty proper face G.
    The interval is regraded so the quotient has dimension
    dim P - dim G - 1; its vertices are the faces covering G, in canonical
    order, and its facets are the facets of P containing G.
    """
    g = lattice.find(base)
    if g.dim == -1 or g.dim == lattice.dim:
        raise NotAFaceError("quotient needs a nonempty proper face")

    gs = g.vertex_set
    atoms = [f.vertex_set for f in lattice.faces_of_dim(g.dim + 1)
             if gs < f.vertex_set]
    return build_face_lattice(
        len(atoms),
        ([i for i, a in enumerate(atoms) if a <= ft.vertex_set]
         for ft in lattice.faces_of_dim(lattice.dim - 1)
         if gs <= ft.vertex_set),
        lattice.dim - g.dim - 1,
    )
