"""Face lattices, f-vectors, duals, quotients."""
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyface.lattice
from polyface.cli import main
from polyface.errors import EulerViolationError, NotAFaceError
from polyface.exact import affine_dim
from polyface.generators import (
    cross_polytope,
    cube,
    cyclic,
    pyramid,
    random_sphere,
    simplex,
)
from polyface.lattice import FVector, Face, build_face_lattice, dual, quotient
from polyface.polytope import hull_from_points

from corpus import extended_corpus, facets_containing


def reference_lattice(p):
    """The face lattice by definition: the facet vertex sets closed under
    intersection, each face graded by the affine dimension of its vertices,
    covers the subset pairs one dimension apart.  Returns ({vertex set:
    dim}, {(lower set, upper set)})."""
    facet_sets = [f.vertex_set for f in p.facets]
    faces = {frozenset(range(p.n_vertices)), frozenset(), *facet_sets}
    queue = list(facet_sets)
    while queue:
        face = queue.pop()
        for g in facet_sets:
            if face & g not in faces:
                faces.add(face & g)
                queue.append(face & g)
    dims = {f: affine_dim([p.vertices[i] for i in f]) for f in faces}
    covers = {(a, b) for a in faces for b in faces
              if a < b and dims[b] == dims[a] + 1}
    return dims, covers


def as_sets(lattice):
    """({vertex set: dim}, {(lower set, upper set)}) of a lattice, the
    covers read off the faces: vertex sets one dimension apart, the lower
    inside the upper."""
    dims = {f.vertex_set: f.dim for f in lattice.faces}
    covers = {(lo.vertex_set, hi.vertex_set)
              for k in range(-1, lattice.dim)
              for hi in lattice.faces_of_dim(k + 1)
              for lo in lattice.faces_of_dim(k)
              if lo.vertex_set < hi.vertex_set}
    return dims, covers


def check_canonical_graded(lattice):
    """Canonical order, faces_of_dim as the levels of faces, the diamond
    property and Euler."""
    keys = [(f.dim, sorted(f.vertex_set)) for f in lattice.faces]
    assert keys == sorted(keys)
    levels = [lattice.faces_of_dim(k) for k in range(-1, lattice.dim + 1)]
    assert sum(levels, ()) == lattice.faces
    assert all(f.dim == k for k, level in enumerate(levels, -1) for f in level)
    dims, covers = as_sets(lattice)
    # Graded: every face but the empty one covers a face, and every face
    # but the polytope is covered by one.
    top = frozenset(range(lattice.n_vertices))
    assert {hi for _, hi in covers} == set(dims) - {frozenset()}
    assert {lo for lo, _ in covers} == set(dims) - {top}
    up: dict[frozenset, list[frozenset]] = {}
    for lo, hi in covers:
        up.setdefault(lo, []).append(hi)
    # Every interval of length 2 has exactly two faces strictly inside.
    intervals = 0
    for f in lattice.faces:
        between = Counter(k for j in up.get(f.vertex_set, ())
                          for k in up.get(j, ()))
        assert set(between.values()) <= {2}
        intervals += len(between)
    assert intervals > 0 or lattice.dim < 1
    # Euler-Poincare over the whole lattice, f_-1 and f_dim included.
    assert sum((-1) ** f.dim for f in lattice.faces) == 0
    lattice.f_vector()  # asserts the Euler relation itself


def random_hulls():
    """Hulls of a few small integer points in dimension 2 to 4; lower
    dimensional inputs are restricted to their affine hull."""
    return st.integers(2, 4).flatmap(lambda d: st.lists(
        st.tuples(*[st.integers(-3, 3)] * d),
        min_size=1, max_size=9, unique=True,
    )).map(hull_from_points)


def quotient_by_interval(lattice, g):
    """The interval (G, P] relabelled by its atoms (the faces covering G),
    with G itself as the empty face; same form as as_sets."""
    atoms = [f.vertex_set for f in lattice.faces_of_dim(g.dim + 1)
             if g.vertex_set < f.vertex_set]

    def label(vs):
        return frozenset(i for i, a in enumerate(atoms) if a <= vs)

    dims = {label(f.vertex_set): f.dim - g.dim - 1
            for f in lattice.faces if g.vertex_set <= f.vertex_set}
    covers = {(label(lo), label(hi)) for lo, hi in as_sets(lattice)[1]
              if g.vertex_set <= lo}
    return dims, covers


def dual_by_labels(lattice):
    """Each face relabelled by the facets containing it, order reversed;
    same form as as_sets."""
    facets = lattice.faces_of_dim(lattice.dim - 1)

    def label(vs):
        return frozenset(i for i, f in enumerate(facets) if vs <= f.vertex_set)

    dims = {label(f.vertex_set): lattice.dim - 1 - f.dim
            for f in lattice.faces}
    covers = {(label(hi), label(lo)) for lo, hi in as_sets(lattice)[1]}
    return dims, covers


def check_against_oracles(p):
    lattice = p.face_lattice()
    assert lattice.dim == p.dim and lattice.n_vertices == p.n_vertices
    assert as_sets(lattice) == reference_lattice(p)
    check_canonical_graded(lattice)
    d = dual(lattice)
    assert d.dim == p.dim and d.n_vertices == len(lattice.faces_of_dim(p.dim - 1))
    assert as_sets(d) == dual_by_labels(lattice)
    check_canonical_graded(d)
    for g in lattice.faces:
        if 0 <= g.dim < p.dim:
            q = quotient(lattice, g)
            assert q.dim == p.dim - g.dim - 1
            assert as_sets(q) == quotient_by_interval(lattice, g)
            check_canonical_graded(q)


# The free sum of a square and a 3-cube.  Two facets e * Q and e' * Q, for
# opposite edges e, e' of the square and a square facet Q of the cube,
# meet in Q: a 2-face with 4 vertices inside a 4-face, so it passes the
# j-vertex floor and only the subset test (Q lies in v * Q, v a vertex of
# e) shows that it is no facet of e * Q.
SQUARE_PLUS_CUBE = hull_from_points(
    [(a, b, 0, 0, 0) for a in (-1, 1) for b in (-1, 1)]
    + [(0, 0, a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)])


class TestAgainstReference:
    @pytest.mark.parametrize("p", [cyclic(10, 4), cube(3), pyramid(cube(2)),
                                   cross_polytope(3), simplex(1),
                                   hull_from_points([(2, 5)])], ids=str)
    def test_fixed_polytopes(self, p):
        check_against_oracles(p)

    def test_candidate_inside_another_candidate(self):
        check_against_oracles(SQUARE_PLUS_CUBE)

    @given(random_hulls())
    @settings(max_examples=40, deadline=None)
    def test_random_hulls(self, p):
        check_against_oracles(p)


class TestWordBoundaries:
    """Faces are rows of 64-bit words: a full word, and one bit past it."""

    def test_cube_six_top_is_a_full_word(self):
        p = cube(6)
        assert p.n_vertices == 64
        lattice = p.face_lattice()
        assert as_sets(lattice) == reference_lattice(p)
        check_canonical_graded(lattice)

    @pytest.mark.parametrize("p,atoms", [
        (cross_polytope(6), 64), (cyclic(13, 4), 65), (cyclic(15, 6), 275),
    ], ids=["cross-6", "cyclic-13-4", "cyclic-15-6"])
    def test_dual_atoms(self, p, atoms):
        lattice = p.face_lattice()
        check_canonical_graded(lattice)
        d = dual(lattice)
        assert d.n_vertices == atoms
        assert as_sets(d) == dual_by_labels(lattice)
        check_canonical_graded(d)

    def test_dual_of_cross_seven_is_cube_seven(self):
        """128 atoms, so two words a row.  A k-face of cube-7 is a facet of
        7 - k of the (k+1)-faces, so each level's repeats span faces and
        blocks, and only a value sort of both words drops them."""
        lattice = cross_polytope(7).face_lattice()
        d = dual(lattice)
        assert d.n_vertices == 128
        assert d.f_vector().counts == tuple(2 ** (7 - k) * comb(7, k)
                                            for k in range(7))
        assert as_sets(d) == dual_by_labels(lattice)
        check_canonical_graded(d)


class TestRowBlocks:
    @pytest.mark.parametrize("p", [
        cyclic(15, 6), cross_polytope(7), random_sphere(6, 15, 1),
        SQUARE_PLUS_CUBE, pyramid(cube(5)),
    ], ids=["cyclic-15-6", "cross-7", "random-sphere-6-15",
            "square-plus-cube", "pyramid-cube-5"])
    def test_one_row_blocks_give_the_same_lattice(self, p, monkeypatch):
        args = (p.n_vertices, [f.vertex_set for f in p.facets], p.dim)
        default = build_face_lattice(*args)
        monkeypatch.setattr(polyface.lattice, "BLOCK_CELLS", 1)
        single = build_face_lattice(*args)
        assert single.faces == default.faces
        assert [single.faces_of_dim(k) for k in range(-1, p.dim + 1)] == \
            [default.faces_of_dim(k) for k in range(-1, p.dim + 1)]


class TestFacesOfDim:
    """faces_of_dim(k) is the level of k-faces for -1 <= k <= dim and
    empty outside, never a neighbouring level."""

    @pytest.mark.parametrize("lattice", [
        cube(3).face_lattice(), hull_from_points([(2, 5)]).face_lattice(),
        dual(cube(3).face_lattice()),
    ], ids=["cube-3", "point", "dual-cube-3"])
    def test_levels_end_at_bottom_and_top(self, lattice):
        top = frozenset(range(lattice.n_vertices))
        assert lattice.faces_of_dim(-2) == ()
        assert lattice.faces_of_dim(lattice.dim + 1) == ()
        assert lattice.faces_of_dim(-1) == (Face(frozenset(), -1),)
        assert lattice.faces_of_dim(lattice.dim) == (Face(top, lattice.dim),)
        check_canonical_graded(lattice)


class TestLatticeConstruction:
    def test_square_face_count(self):
        assert len(cube(2).face_lattice()) == 10  # empty + 4 + 4 + itself

    def test_three_cube_face_count(self):
        assert len(cube(3).face_lattice()) == 28  # 1 + 8 + 12 + 6 + 1

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_simplex_face_count(self, d):
        # Every vertex subset is a face: 2^(d+1) in total.
        assert len(simplex(d).face_lattice()) == 2 ** (d + 1)

    def test_closure_invariant(self):
        p = cube(3)
        lattice = p.face_lattice()
        for face in lattice.faces:
            if face.dim in (-1, p.dim):
                continue
            containing = [f.vertex_set for f in p.facets
                          if face.vertex_set <= f.vertex_set]
            inter = frozenset.intersection(*containing)
            assert inter == face.vertex_set

    def test_graded_covers(self):
        # 8 vertices over the empty face, 2 vertices per edge, 4 edges per
        # square and 6 squares under the cube.
        _, covers = as_sets(cube(3).face_lattice())
        assert len(covers) == 8 + 12 * 2 + 6 * 4 + 6

    def test_face_in_enough_facets(self):
        # A j-face lies in at least dim - j facets; exactly dim at the
        # vertices of a simple polytope.
        for p in (cube(3), cyclic(6, 4), pyramid(cube(2))):
            lattice = p.face_lattice()
            for face in lattice.faces:
                if face.dim in (-1, p.dim):
                    continue
                count = len(facets_containing(p, face.vertex_set))
                assert count >= p.dim - face.dim
        simple = cube(4)
        for v in range(simple.n_vertices):
            assert len(facets_containing(simple, frozenset([v]))) == 4


class TestFVector:
    def test_simplex_binomials(self):
        assert tuple(simplex(3).f_vector().counts) == (4, 6, 4)

    def test_cube_oracle(self):
        assert tuple(cube(3).f_vector().counts) == (8, 12, 6)

    def test_cyclic_six_four(self):
        assert tuple(cyclic(6, 4).f_vector().counts) == (6, 15, 18, 9)

    def test_conventions(self):
        fv = cube(3).f_vector()
        assert fv.count(-1) == 1
        assert fv.count(3) == 1
        assert fv.count(7) == 0

    def test_euler_enforced(self):
        with pytest.raises(EulerViolationError):
            FVector(3, (8, 12, 7))

    @pytest.mark.parametrize("n,facets,dim", [
        (4, [{0, 1}, {1, 2}, {2, 0}], 2),
        (5, [{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}], 3),
    ], ids=["triangle-plus-atom", "simplex-3-plus-atom"])
    def test_atom_in_no_facet(self, n, facets, dim):
        # The last atom lies in no proper face.  The counts still pass
        # Euler, so only the check on the 0-faces can catch it.
        lattice = build_face_lattice(n, facets, dim)
        FVector(dim, tuple(len(lattice.faces_of_dim(k)) for k in range(dim)))
        with pytest.raises(EulerViolationError, match="not the .* atoms"):
            lattice.f_vector()

    @pytest.mark.parametrize("n,facets,dim", [
        (2, [], 1), (3, [], 2), (4, [], 3), (0, [], 2), (2, [[], []], 2),
    ], ids=["segment", "triangle", "tetrahedron", "no-atoms", "empty-facets"])
    def test_no_facets(self, n, facets, dim):
        # No facet meets the top, so every level below it is empty.
        lattice = build_face_lattice(n, facets, dim)
        assert [len(lattice.faces_of_dim(k)) for k in range(dim)] == [0] * dim
        with pytest.raises(EulerViolationError):
            lattice.f_vector()

    def test_incidence_count_consistency(self):
        for p in (cube(3), cross_polytope(4), cyclic(7, 4)):
            by_facets = sum(len(f.vertex_set) for f in p.facets)
            by_vertices = sum(
                len(facets_containing(p, frozenset([v])))
                for v in range(p.n_vertices)
            )
            assert by_facets == by_vertices


class TestDual:
    def test_cube_dualizes_to_cross(self):
        d = dual(cube(3).face_lattice())
        assert tuple(d.f_vector().counts) == (6, 12, 8)

    def test_simplex_self_dual(self):
        fv = tuple(simplex(4).f_vector().counts)
        dv = tuple(dual(simplex(4).face_lattice()).f_vector().counts)
        assert dv == fv[::-1] == fv

    def test_double_dual_involution(self):
        # dual(dual(L)) is L relabelled: its vertex j is the facet j of
        # dual(L), i.e. the set of facets of L through one vertex v of L.
        for p in (cyclic(6, 4), cyclic(10, 4), cube(3), pyramid(cube(2))):
            lattice = p.face_lattice()
            facets = lattice.faces_of_dim(lattice.dim - 1)
            vertex_of = {
                frozenset(i for i, f in enumerate(facets) if v in f.vertex_set): v
                for v in range(lattice.n_vertices)
            }
            assert len(vertex_of) == lattice.n_vertices
            sigma = [vertex_of[f.vertex_set]
                     for f in dual(lattice).faces_of_dim(lattice.dim - 1)]
            assert sorted(sigma) == list(range(lattice.n_vertices))
            dd = dual(dual(lattice))
            assert dd.dim == lattice.dim
            dims, covers = as_sets(dd)
            relabel = {vs: frozenset(sigma[i] for i in vs) for vs in dims}
            assert {relabel[vs]: d for vs, d in dims.items()} == \
                as_sets(lattice)[0]
            assert {(relabel[a], relabel[b]) for a, b in covers} == \
                as_sets(lattice)[1]

    def test_dual_reverses_covers(self):
        for p in (cube(2), cube(3)):
            lattice = p.face_lattice()
            assert len(as_sets(dual(lattice))[1]) == len(as_sets(lattice)[1])


class TestQuotient:
    def test_cube_by_vertex_is_triangle(self):
        lattice = cube(3).face_lattice()
        q = quotient(lattice, frozenset([0]))
        assert q.dim == 2
        assert tuple(q.f_vector().counts) == (3, 3)

    def test_by_facet_is_point(self):
        p = cube(3)
        q = quotient(p.face_lattice(), p.facets[0].vertex_set)
        assert q.dim == 0
        assert tuple(q.f_vector().counts) == ()

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_simplex_by_vertex(self, d):
        q = quotient(simplex(d).face_lattice(), frozenset([0]))
        assert q.dim == d - 1
        assert len(q) == 2 ** d

    def test_face_count_identity(self):
        # f_j(P/G) equals the number of (j + dim G + 1)-faces containing G.
        p = cyclic(6, 4)
        lattice = p.face_lattice()
        g = lattice.faces_of_dim(1)[0]
        q = quotient(lattice, g)
        for j in range(q.dim):
            direct = sum(
                1 for f in lattice.faces_of_dim(j + g.dim + 1)
                if g.vertex_set < f.vertex_set
            )
            assert q.f_vector().count(j) == direct

    def test_rejects_improper_faces(self):
        lattice = cube(2).face_lattice()
        with pytest.raises(NotAFaceError):
            quotient(lattice, frozenset())
        with pytest.raises(NotAFaceError):
            quotient(lattice, frozenset(range(4)))
        with pytest.raises(NotAFaceError):
            quotient(lattice, frozenset([0, 3]))  # a diagonal, not a face

    def test_quotient_euler(self):
        lattice = cube(4).face_lattice()
        for face in lattice.faces_of_dim(1):
            quotient(lattice, face).f_vector()  # Euler asserted inside


def corpus_lattices():
    """Every corpus polytope's lattice, its dual and its quotients by each
    nonempty proper face, each with the atom sets of the facets it was
    built from, in the order given.  The dual's facets are the vertices,
    each the set of facets through it; a quotient's are the facets
    containing G, in lattice order, each the set of faces covering G that
    it contains."""
    for entry in extended_corpus():
        p = entry.polytope
        lattice = p.face_lattice()
        yield entry.name, lattice, [f.vertex_set for f in p.facets]
        facets = [f.vertex_set for f in lattice.faces_of_dim(p.dim - 1)]
        yield f"dual {entry.name}", dual(lattice), [
            {i for i, f in enumerate(facets) if v in f}
            for v in range(p.n_vertices)]
        for g in lattice.faces:
            if 0 <= g.dim < lattice.dim:
                atoms = [f.vertex_set for f in lattice.faces_of_dim(g.dim + 1)
                         if g.vertex_set < f.vertex_set]
                yield f"{entry.name} / {g}", quotient(lattice, g), [
                    {i for i, a in enumerate(atoms) if a <= f}
                    for f in facets if g.vertex_set <= f]


class TestLazyLevels:
    """Levels stay word rows until a Face is asked for."""

    @pytest.fixture
    def created(self, monkeypatch):
        """The arguments of every Face the lattice module creates."""
        made = []
        face = polyface.lattice.Face

        def counting(*args):
            made.append(args)
            return face(*args)

        monkeypatch.setattr(polyface.lattice, "Face", counting)
        return made

    @pytest.mark.parametrize("command", ["verify-bounds", "describe"])
    @pytest.mark.parametrize("spec", [
        ["cube", "--dim", "5"], ["cyclic", "--dim", "6", "--n", "14"],
        ["cross", "--dim", "7"],
    ], ids=["cube-5", "cyclic-6-14", "cross-7"])
    def test_reports_make_no_face(self, command, spec, created, capsys):
        assert main([command, "--family", *spec]) == 0
        assert capsys.readouterr().out
        assert created == []

    @pytest.mark.parametrize("k", range(-1, 5))
    def test_one_level_makes_its_faces(self, k, created):
        lattice = cube(4).face_lattice()
        level = lattice.faces_of_dim(k)
        assert len(created) == len(level) == lattice.f_vector()[k]
        assert {args[1] for args in created} == {k}
        assert lattice.faces_of_dim(k) is level
        assert len(created) == len(level)

    @pytest.mark.parametrize("p", [cube(3), cyclic(8, 4), SQUARE_PLUS_CUBE],
                             ids=["cube-3", "cyclic-8-4", "square-plus-cube"])
    def test_views_agree_in_either_order(self, p):
        args = (p.n_vertices, [f.vertex_set for f in p.facets], p.dim)
        first, second = build_face_lattice(*args), build_face_lattice(*args)
        keys = list(reference_lattice(p)[0])

        edges = first.faces_of_dim(1)
        faces = first.faces
        found = [first.find(key) for key in keys]
        incidences = [first.containing(k) for k in range(-1, p.dim + 1)]

        incidences_rev = [second.containing(k) for k in range(-1, p.dim + 1)]
        found_rev = [second.find(key) for key in keys]
        faces_rev = second.faces
        edges_rev = second.faces_of_dim(1)

        assert (edges, faces, found) == (edges_rev, faces_rev, found_rev)
        assert all(np.array_equal(a, b)
                   for a, b in zip(incidences, incidences_rev))
        # One object per face, whichever view built it.
        for lattice in (first, second):
            ids = {id(f) for f in lattice.faces}
            assert {id(f) for f in lattice.faces_of_dim(1)} <= ids
            assert {id(lattice.find(f.vertex_set))
                    for f in lattice.faces} == ids

    def test_containing_is_subset_of_each_facet(self):
        # Polytopes, duals and quotients, every level from the empty face
        # to the top: row i, column j says whether face i lies in the j-th
        # facet set given to build_face_lattice.
        for name, lattice, coatoms in corpus_lattices():
            for k in range(-1, lattice.dim + 1):
                expected = [[f.vertex_set <= c for c in coatoms]
                            for f in lattice.faces_of_dim(k)]
                found = lattice.containing(k)
                assert found.shape == (len(expected), len(coatoms)), name
                assert found.tolist() == expected, (name, k)

    def test_sizes_count_the_faces(self):
        # f_vector also checks that the 0-faces are the atoms, so every
        # corpus lattice, dual and quotient passes that check too.
        for name, lattice, _ in corpus_lattices():
            counted = Counter(f.dim for f in lattice.faces)
            assert len(lattice) == len(lattice.faces), name
            assert tuple(lattice.f_vector()) == \
                tuple(counted[k] for k in range(lattice.dim)), name
