"""Golden outputs: byte-identity of fast exact CLI commands.

Each case runs one command in-process and compares the sha256 of its
stdout with a hash recorded before the code behind it was rewritten (the
exact kernel; for `gen`, its one serialization path), so any change to the
combinatorics, the ordering of facets or faces, or the formatting of exact
scalars shows up here.  The `project` hashes were re-recorded when
directions became general position by construction (a deliberate change
of every direction), after the benchmark's `check_project` validator
accepted each new output, and re-recorded again, after the same check,
when the shadow became the parallel projection along v onto x_j = 0 (j
the last index with v_j != 0; same combinatorial type as any other
projection along v).  That change moved only the `point` coordinates of
the diagram vertices: with every `point` removed, the outputs equal the
ones before it.  The three `project` cases after pyramid-5 (200-digit
coordinates, cross-5, cyclic(d=6, n=9)) were recorded before the disjoint
face pairs of the diagram went through a floating-point filter.  Solid
angles are seeded but depend on numpy's generator; the two `angles` cases
pin the sampled curvature streams of dimension 5, and were recorded
before each facet's cone came from exact projections of its
ridge-neighbours' normals, which left those bytes unchanged.
"""
import hashlib
import json

import pytest

from polyface.cli import main

# A planar rational hexagon embedded at height 1/2 in 3-space: exercises
# the affine restriction path and the integer scaling of rational inputs.
FLAT_HEXAGON = {"ambient_dim": 3, "vertices": [
    ["0", "0", "1/2"], ["3/2", "0", "1/2"], ["0", "2/3", "1/2"],
    ["3/2", "2/3", "1/2"], ["1/3", "1/3", "1/2"], ["7/4", "1/3", "1/2"],
]}


def huge_polytope(digits: int) -> dict:
    """Eight points near the vertices of the cube [-10^digits, 10^digits]^3,
    each moved by a few units, so every facet is a triangle."""
    big = 10**digits
    offsets = [(1, 2, 3), (-2, 1, 4), (3, -1, 2), (1, 4, -3), (-3, -2, 1),
               (2, -3, -1), (-1, 3, -2), (4, 1, 1)]
    return {"ambient_dim": 3, "vertices": [
        [str((big if i >> j & 1 else -big) + o) for j, o in enumerate(off)]
        for i, off in enumerate(offsets)]}


CASES = [
    (["describe", "--family", "cube", "--dim", "4"],
     "69003698322ba12660dcdcdae3212ebdcb35a0dc9cafdef5135098e8d9aaa992"),
    (["describe", "--family", "random-sphere", "--dim", "4", "--n", "12",
      "--seed", "3"],
     "7af8f70bb0f470c7b1a0f4c8b649ac48a9eadd0ca15c296cf47949f2fa0a17ee"),
    (["describe", "--in", "{flat}"],
     "31ea605d6abb89d29fd04ee7301f089877c81c204b73040bad7f05784cead79a"),
    (["verify-bounds", "--family", "cyclic", "--dim", "5", "--n", "9"],
     "e72960a3b063aa14a49f836384092b512e9823fc02651d783badbfa4b86a964e"),
    (["verify-bounds", "--family", "prism", "--dim", "4"],
     "1d2d3509da2c442321b3f37628fdbb1906fc00d079f7e6cd4332eb5e4f28647b"),
    (["project", "--family", "cross", "--dim", "3", "--directions", "2"],
     "793126778c337852e5e8919264c98fd2610f5fed3c52d0a1458bb342ef5abdd5"),
    (["project", "--family", "random-sphere", "--dim", "3", "--n", "10",
      "--seed", "1", "--directions", "2"],
     "90f91e2983d9bdac10e4eac40222609e41851316625a56536c68a69c2e9fa190"),
    (["project", "--family", "pyramid", "--dim", "4", "--directions", "2"],
     "7d15ef681bd523d616069762b19dc7a6d9487262a8bc8172379da8f2fbc6bf68"),
    # pyramid-5 has upper/lower face pairs that share one vertex and yet
    # project to parallel hulls: the singular case of a shared vertex.
    (["project", "--family", "pyramid", "--dim", "5", "--directions", "1"],
     "53d7d2be37ad4ffe148625b0878ec5ada9c3fa6528ff3b0ddd7585b9682bd147"),
    # 200-digit coordinates: the direction has 1,212 digits, far past the
    # range of a float.
    (["project", "--in", "{huge}", "--directions", "1"],
     "9632497eed8aef1478fae69aff91eb51e15332f85af9699205f768b5941f0733"),
    (["project", "--family", "cross", "--dim", "5", "--directions", "1"],
     "584fbb89a1859e49c98fe2e562a437cb6ae84340552951c1c359ea24ea35b910"),
    (["project", "--family", "cyclic", "--dim", "6", "--n", "9",
      "--directions", "1"],
     "4e4a2102cc98992566bfc777b124386e445a92bc2cbf7013b89205d004a1195e"),
    (["project", "--family", "cube", "--dim", "4", "--directions", "2"],
     "bff49a7583020090ed964bff4dd87cd5bebea17162c5c1b75fbf86d9bdd7275c"),
    (["corpus", "--dims", "2..4"],
     "b8113ccd24297e0697e9155a1c738202c0b98c7544178a3bc738b2b8394fb22e"),
    (["angles", "--family", "simplex", "--dim", "5", "--samples", "20000",
      "--directions", "1"],
     "4b39042f03853070857091b53aef532a8dbc3b0afcd5b99bfd0e0e32e8d483d6"),
    (["angles", "--family", "cross", "--dim", "5", "--samples", "20000",
      "--directions", "1"],
     "a9f5c29a3c1e0d3b775b69dd1247d921d1eb7946d4597cab615b5c91b5c7f527"),
    (["gen", "--family", "cross", "--dim", "3"],
     "1762e9e9bc123c411e7d4b82361555121dfac8ec4f262130ba99eb99ef1c1f0e"),
    (["gen", "--in", "{flat}"],
     "b892600715f8a6fa6e2a56d30469639d47bd454af38906116099166331e38321"),
]


def _case_ids():
    """The first three words of each command, or five where three would
    repeat an earlier id."""
    ids = []
    for argv, _ in CASES:
        short = " ".join(argv[:3])
        ids.append(short if short not in ids else " ".join(argv[:5]))
    return ids


@pytest.mark.parametrize("argv,digest", CASES, ids=_case_ids())
def test_stdout_matches_golden_hash(argv, digest, tmp_path, capsys):
    files = {"{flat}": FLAT_HEXAGON, "{huge}": huge_polytope(200)}
    for name, data in files.items():
        (tmp_path / f"{name[1:-1]}.json").write_text(json.dumps(data))
    argv = [str(tmp_path / f"{a[1:-1]}.json") if a in files else a
            for a in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
