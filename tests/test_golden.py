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
ones before it.  Solid angles are left out: their floats are seeded but
depend on numpy's generator.
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
    (["project", "--family", "cube", "--dim", "4", "--directions", "2"],
     "bff49a7583020090ed964bff4dd87cd5bebea17162c5c1b75fbf86d9bdd7275c"),
    (["corpus", "--dims", "2..4"],
     "b8113ccd24297e0697e9155a1c738202c0b98c7544178a3bc738b2b8394fb22e"),
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
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(FLAT_HEXAGON))
    argv = [str(flat) if a == "{flat}" else a for a in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
