"""Face lattices: construction from vertex-facet incidences, f-vectors,
duals and quotients.

Every lattice here comes from one incidence-only construction (Kaibel and
Pfetsch, "Computing the face lattice of a polytope from its vertex-facet
incidences", CGTA 2002).  Working top down on vertex bitmasks, the facets
of a face F are the inclusion-maximal sets among the intersections of F
with the polytope's facets, so each pass yields the faces one dimension
lower.  A lattice is its levels of faces by dimension, each kept as the
word rows and atom counts that the level step produces; level sizes give
the f-vector, and a level's `Face` tuple is built on first use.  The
order is read off the vertex sets, F <= G iff F's vertex set is a subset
of G's.  The polytope's dimension is given, so the lattice does no
arithmetic at all.  The dual and the quotients reuse the same
construction on relabelled incidences.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import EulerViolationError, NotAFaceError
# Not called here.  benchmarks/test_benchmarks.py names this module as one
# that binds affine_dim; drop the import once that test finds the binding
# modules from their namespaces.
from .exact import affine_dim  # noqa: F401

# Row blocks of the level step hold at most this many words of F & G.
BLOCK_CELLS = 1 << 14


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

    Each level of k-faces is kept as its (rows, sizes) arrays: one row of
    ceil(n/64) little-endian uint64 words per face, and its atom count.
    ``len`` and ``f_vector`` read the sizes alone; ``faces_of_dim(k)``
    builds level k's Face tuple on first use, and ``faces`` and ``find``
    build every level and the index on first use.  Faces are listed in a
    canonical order (by dimension, then sorted vertex tuple).  The order is
    inclusion of vertex sets: F <= G iff F's vertex set is a subset of G's.
    """

    def __init__(self, levels: Sequence[tuple[np.ndarray, np.ndarray]],
                 dim: int, n_vertices: int, coatoms: np.ndarray):
        # _levels[k + 1] holds the k-faces, for k = -1 .. dim.
        self._levels = list(levels)
        self._faces: list[tuple[Face, ...] | None] = [None] * len(levels)
        self._containing: list[np.ndarray | None] = [None] * len(levels)
        self._coatoms = coatoms
        self.dim = dim
        self.n_vertices = n_vertices

    def __len__(self):
        return sum(len(sizes) for _, sizes in self._levels)

    def faces_of_dim(self, k: int) -> tuple[Face, ...]:
        if not -1 <= k <= self.dim:
            return ()
        if self._faces[k + 1] is None:
            self._levels[k + 1], self._faces[k + 1] = _level_faces(
                *self._levels[k + 1], k)
        return self._faces[k + 1]

    def containing(self, k: int) -> np.ndarray:
        """Which facets contain each k-face, cached: a (f_k, n_facets) bool
        matrix, rows in faces_of_dim(k) order and columns in the order of
        the facet sets the lattice was built from.  One AND of the level's
        rows against the facet rows: F lies in G iff F & G is F."""
        if not -1 <= k <= self.dim:
            return np.zeros((0, len(self._coatoms)), dtype=bool)
        if self._containing[k + 1] is None:
            self.faces_of_dim(k)  # puts the level's rows in canonical order
            rows = self._levels[k + 1][0][:, None, :]
            self._containing[k + 1] = ((rows & self._coatoms) == rows).all(2)
        return self._containing[k + 1]

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        return tuple(f for k in range(-1, self.dim + 1)
                     for f in self.faces_of_dim(k))

    @cached_property
    def _index(self) -> dict[frozenset[int], Face]:
        return {f.vertex_set: f for f in self.faces}

    def find(self, face: Face | Iterable[int]) -> Face:
        """This lattice's face with the vertex set of a Face or vertex
        collection; NotAFaceError when there is none."""
        key = frozenset(face.vertex_set if isinstance(face, Face) else face)
        found = self._index.get(key)
        if found is None:
            raise NotAFaceError(f"{sorted(key)} is not a face of this lattice")
        return found

    def f_vector(self) -> FVector:
        # The rows of a level are distinct, so n singletons are all n atoms;
        # a polytope has at least one.
        sizes = self._levels[1][1]
        if (not self.n_vertices or len(sizes) != self.n_vertices
                or (sizes != 1).any()):
            raise EulerViolationError(
                f"the {len(sizes)} 0-faces are not the {self.n_vertices} "
                f"atoms as singletons")
        return FVector(self.dim, tuple(len(s) for _, s in self._levels[1:-1]))


def _level_faces(rows: np.ndarray, sizes: np.ndarray, k: int):
    """A level's (rows, sizes) and its k-faces, all in canonical order,
    each atom tuple built once from the set bits of its row.  The sort
    stays: the integer order of the rows is not the tuple order, where a
    prefix sorts first."""
    bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")
    flat = np.nonzero(bits)[1].tolist()
    ends = np.cumsum(sizes).tolist()
    tuples = [tuple(flat[a:b]) for a, b in zip([0] + ends, ends)]
    order = sorted(range(len(tuples)), key=tuples.__getitem__)
    return ((rows[order], sizes[order]),
            tuple(Face(frozenset(tuples[i]), k) for i in order))


def _bitmasks(n: int, sets: Iterable[Iterable[int]]) -> np.ndarray:
    """One row of max(1, ceil(n/64)) little-endian uint64 words per atom
    set, an empty set included."""
    sets = list(sets)
    rows, atoms = [], []
    for r, s in enumerate(sets):
        for a in s:
            rows.append(r)
            atoms.append(a)
    words = max(1, -(-n // 64))
    bits = np.zeros((len(sets), 64 * words), dtype=bool)
    bits[rows, atoms] = True
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def _runs(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts the rows given by their columns (first column
    first), and True at each sorted row that differs from the one before."""
    order = np.lexsort(columns[::-1])
    first = np.ones(len(order), dtype=bool)
    first[1:] = False
    for column in columns:
        column = column[order]
        first[1:] |= column[1:] != column[:-1]
    return order, first


def _as_ints(rows: np.ndarray) -> list[int]:
    data, step = rows.tobytes(), 8 * rows.shape[1]
    return [int.from_bytes(data[i:i + step], "little")
            for i in range(0, len(data), step)]


def _facets_of(level: np.ndarray, sizes: np.ndarray, coatoms: np.ndarray,
               j: int) -> tuple[np.ndarray, np.ndarray]:
    """The facets of the j-faces in ``level`` (j >= 1) with their sizes."""
    words = level.shape[1]
    block = max(1, BLOCK_CELLS // max(1, len(coatoms) * words))
    # Seeded empty: with no faces or no facets the next level is empty, and
    # f_vector refuses a lattice whose 0-faces are not its atoms.
    owner = [np.empty(0, np.intp)]
    meets = [np.empty((0, words), level.dtype)]
    counts = [np.empty(0, sizes.dtype)]
    for lo in range(0, len(level), block):
        meet = level[lo:lo + block, None, :] & coatoms
        count = np.bitwise_count(meet).sum(axis=2, dtype=sizes.dtype)
        # F & G is F exactly when it keeps all of F's atoms.  A facet of a
        # j-face has at least j atoms, and so has every set containing one.
        hit = np.flatnonzero((count >= j) & (count < sizes[lo:lo + block, None]))
        face, meet = lo + hit // len(coatoms), meet.reshape(-1, words)[hit]
        # A face lies in one block, so its duplicate candidates do too.
        order, first = _runs((face, *meet.T))
        unique = order[first]
        owner.append(face[unique])
        meets.append(meet[unique])
        counts.append(count.ravel()[hit[unique]])
    owner, meets, counts = (np.concatenate(owner), np.concatenate(meets),
                            np.concatenate(counts))

    # The facets of F are its maximal candidates.  Distinct sets of one size
    # never contain each other, so only a face whose candidates differ in
    # size needs the subset test.
    resized = (owner[1:] == owner[:-1]) & (counts[1:] != counts[:-1])
    if resized.any():
        mixed = sorted(set(owner[1:][resized].tolist()))
        keep = np.ones(len(owner), dtype=bool)
        ints, size = _as_ints(meets), counts.tolist()
        for a, b in zip(np.searchsorted(owner, mixed).tolist(),
                        np.searchsorted(owner, mixed, "right").tolist()):
            kept: list[int] = []
            for i in sorted(range(a, b), key=size.__getitem__, reverse=True):
                if any(ints[i] & k == ints[i] for k in kept):
                    keep[i] = False
                else:
                    kept.append(ints[i])
        owner, meets, counts = owner[keep], meets[keep], counts[keep]

    order, first = _runs(meets.T)
    return meets[order[first]], counts[order[first]]


def build_face_lattice(n: int, coatom_sets: Iterable[Iterable[int]],
                       dim: int) -> FaceLattice:
    """The face lattice of a dim-polytope (dim >= 0) on atoms 0..n-1 whose
    facets have the given atom sets, from the incidences alone; no
    arithmetic.

    Top down, one level at a time: the facets of a j-face F are the
    inclusion-maximal sets among F & G over the facets G not containing F.
    A face is a row of ceil(n/64) uint64 words, so a level is one numpy AND
    of its faces against all facets, in row blocks of at most BLOCK_CELLS
    words.  A candidate with fewer than j atoms is dropped before any
    subset test, and the floor is exact: a facet of F is a (j-1)-face, so
    it has at least j atoms, and so has every set containing it.  Duplicate
    (face, candidate) pairs go by one lexsort per block.  Only a face whose
    candidates differ in size gets the subset test, since distinct sets of
    one size never contain each other; a simplicial polytope needs none.
    The empty face, one all-zero row, lies below the atoms.  Each level is
    one dimension lower, so the faces come graded, and the order is read
    off the atom sets: F <= G iff F's atom set is a subset of G's.  The
    levels stay word rows; Face objects are built only when asked for.
    """
    coatoms = _bitmasks(n, coatom_sets)
    top = _bitmasks(n, [range(n)])
    # Popcounts in the smallest type that holds n: uint8 for any primal
    # lattice, where it makes the level step's comparisons cheapest.
    size = np.min_scalar_type(n)
    levels = [(top, np.array([n], size))]
    for j in range(dim, 0, -1):
        levels.append(_facets_of(*levels[-1], coatoms, j))
    levels.append((np.zeros_like(top), np.zeros(1, size)))  # the empty face
    return FaceLattice(levels[::-1], dim, n, coatoms)


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
