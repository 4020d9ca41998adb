"""The command line: pipelines, exit codes, deterministic output."""
import errno
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyface.cli
from polyface._rng import derive_seed
from polyface.angles import DEFAULT_SAMPLES, curvature_checks
from polyface.bounds import MinFaceReport
from polyface.cli import DEFAULT_DIRECTIONS, _emit, _write_json, main
from polyface.generators import cube

from corpus import NEEDLE_INPUTS, facets_containing
from test_angles import gaussian_points
from test_golden import huge_polytope

PKG_ENV = dict(os.environ)


def strict_json(text):
    """json.loads that refuses NaN and the infinities."""
    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def run_cli(*args, **env):
    """The CLI in a fresh interpreter, with env added to the environment."""
    return subprocess.run(
        [sys.executable, "-m", "polyface", *args],
        capture_output=True, text=True, env=dict(PKG_ENV, **env),
    )


class TestGenDescribe:
    def test_pipeline(self, tmp_path):
        path = tmp_path / "cube.json"
        assert main(["gen", "--family", "cube", "--dim", "3",
                     "--out", str(path)]) == 0
        out = tmp_path / "describe.json"
        assert main(["describe", "--in", str(path), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["f_vector"] == [8, 12, 6]
        assert data["simple"] is True and data["simplicial"] is False

    def test_describe_inline_family(self, capsys):
        assert main(["describe", "--family", "cross", "--dim", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["f_vector"] == [8, 24, 32, 16]

    def test_missing_input_fails(self):
        proc = run_cli("describe")
        assert proc.returncode == 1
        assert "error" in proc.stderr


# (name, file content or None for a missing file, extra argv, error type);
# a case with content reads it with --in.
BAD_INPUTS = [
    ("missing-file", None, ["describe"], "BadInputError"),
    ("bad-json", "{not json", ["describe"], "BadInputError"),
    ("json-list", "[[0, 0], [1, 0]]", ["describe"], "BadInputError"),
    ("missing-key", '{"ambient_dim": 2}', ["describe"], "BadInputError"),
    ("zero-denominator",
     '{"ambient_dim": 1, "vertices": [["0"], ["1/0"]]}', ["describe"],
     "BadInputError"),
    ("overflowing-coordinate",
     '{"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, 1e400]]}',
     ["describe"], "BadInputError"),
    ("infinite-coordinate",
     '{"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, Infinity]]}',
     ["describe"], "BadInputError"),
    ("nan-coordinate",
     '{"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, NaN]]}',
     ["describe"], "BadInputError"),
    ("string-vertex-row",
     '{"ambient_dim": 2, "vertices": ["00", "10", "01"]}', ["describe"],
     "BadInputError"),
    ("boolean-coordinate",
     '{"ambient_dim": 1, "vertices": [[false], [true]]}', ["describe"],
     "BadInputError"),
    # Refused before parsing: Fraction would build 10**10000000 exactly.
    ("huge-exponent-coordinate",
     '{"ambient_dim": 1, "vertices": [["0"], ["1e10000000"]]}', ["describe"],
     "TooLargeError"),
    ("huge-negative-exponent-coordinate",
     '{"ambient_dim": 1, "vertices": [["0"], [" -2.5E-0_300_000 "]]}',
     ["describe"], "TooLargeError"),
    # 20 points in R^6 with 4,000-digit JSON integers: as strings they are
    # refused at once, and so are they as integers.
    ("huge-integer-coordinates",
     json.dumps({"ambient_dim": 6, "vertices": [
         [(i + 1) * 10**3999 + i * j for j in range(6)] for i in range(20)]}),
     ["describe"], "TooLargeError"),
    ("overflowing-ambient-dim",
     '{"ambient_dim": 1e400, "vertices": [[0, 0], [1, 0], [0, 1]]}',
     ["describe"], "BadInputError"),
    ("fractional-ambient-dim",
     '{"ambient_dim": 2.5, "vertices": [[0, 0], [1, 0], [0, 1]]}',
     ["describe"], "BadInputError"),
    ("boolean-ambient-dim",
     '{"ambient_dim": true, "vertices": [[0], [1]]}', ["describe"],
     "BadInputError"),
    # Nests deeper than the interpreter's stack: json.load raises
    # RecursionError.
    ("deeply-nested", "[" * 100_000 + "]" * 100_000, ["describe"],
     "BadInputError"),
    ("deeply-nested-vertices",
     '{"ambient_dim": 2, "vertices": ' + "[" * 100_000 + "]" * 100_000 + "}",
     ["describe"], "BadInputError"),
    ("angles-zero-directions", None,
     ["angles", "--family", "simplex", "--dim", "2", "--directions", "0"],
     "OutOfRangeError"),
    ("angles-zero-samples", None,
     ["angles", "--family", "simplex", "--dim", "2", "--samples", "0"],
     "OutOfRangeError"),
    # Usage errors: an option argparse cannot parse, or no subcommand.
    ("describe-non-integer-dim", None,
     ["describe", "--family", "cube", "--dim", "x"], "BadSpecError"),
    ("angles-unknown-option", None,
     ["angles", "--family", "simplex", "--dim", "2", "--samples", "2000",
      "--directions", "1", "--tolerance-sigma", "4"], "BadSpecError"),
    ("no-subcommand", None, [], "BadSpecError"),
    # No polytope named: neither --in nor --family with --dim.
    ("no-input", None, ["verify-bounds"], "BadSpecError"),
    ("family-without-dim", None, ["describe", "--family", "cube"],
     "BadSpecError"),
    ("project-segment", '{"ambient_dim": 1, "vertices": [[0], [1]]}',
     ["project"], "DimensionTooLowError"),
    ("angles-too-many-samples", None,
     ["angles", "--family", "simplex", "--dim", "2",
      "--samples", "1000000000000000000", "--directions", "1"],
     "TooLargeError"),
    ("project-negative-directions", None,
     ["project", "--family", "cube", "--dim", "3", "--directions", "-1"],
     "OutOfRangeError"),
    # Refused before any point is generated: the 0-sphere has two points,
    # and the guards stop specs that would exhaust memory first.
    ("zero-sphere-three-points", None,
     ["describe", "--family", "random-sphere", "--dim", "1", "--n", "3"],
     "BadSpecError"),
    ("cyclic-too-many-points", None,
     ["describe", "--family", "cyclic", "--dim", "3", "--n", "100000000"],
     "TooLargeError"),
    ("random-sphere-too-many-points", None,
     ["describe", "--family", "random-sphere", "--dim", "3", "--n", "65"],
     "TooLargeError"),
    ("cube-too-high-dim", None,
     ["describe", "--family", "cube", "--dim", "40"], "TooLargeError"),
    ("corpus-unparsable-dims", None, ["corpus", "--dims", "x"],
     "BadSpecError"),
    ("corpus-empty-dim-range", None, ["corpus", "--dims", "5..2"],
     "BadSpecError"),
    ("corpus-no-families", None, ["corpus", "--families", ""],
     "BadSpecError"),
    ("corpus-dim-past-guard", None, ["corpus", "--dims", "2..8"],
     "TooLargeError"),
    # A planar hexagon in R^3 spanned by u and w of 201 digits: its
    # restricted metric has entries of about 2^1330 and 2^3989, past the
    # float range and too far apart for one common power of two.
    ("angles-huge-plane",
     json.dumps({"ambient_dim": 3, "vertices": [
         [str(a * x + b * y) for x, y in zip(
             (10**200 + 1, 2, 10**200), (0, 10**200 + 1, 10**200 + 5))]
         for a, b in [(0, 0), (1, 0), (1, 1), (0, 1), (2, 3), (3, 1)]]}),
     ["angles", "--samples", "2000", "--directions", "1"], "TooLargeError"),
]


@pytest.mark.parametrize("name,content,argv,error", BAD_INPUTS,
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_input_ends_in_json_error_line(name, content, argv, error,
                                           tmp_path, capsys):
    if content is not None or argv == ["describe"]:
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content)
        argv = argv + ["--in", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == error


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["angles", "-h"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "--samples" in out and "--tolerance-sigma" not in out


def test_calls_in_one_process_keep_no_options(tmp_path, capsys):
    # main parses every call with the process's one parser: an option of
    # one call, or a usage error, must not carry over to the next.
    angles = ["angles", "--family", "simplex", "--dim", "2",
              "--directions", "1"]
    project = ["project", "--family", "cube", "--dim", "3", "--seed", "1"]
    calls = [[*angles, "--samples", "5000"], angles,
             [*project, "--directions", "3"], project]
    outputs = []
    for i, argv in enumerate(calls):
        assert main(["angles", "--samples", "x"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "BadSpecError"
        out = tmp_path / f"call-{i}.json"
        assert main([*argv, "--out", str(out)]) == 0
        fresh = tmp_path / f"fresh-{i}.json"
        assert run_cli(*argv, "--out", str(fresh)).returncode == 0
        assert out.read_bytes() == fresh.read_bytes()
        outputs.append(json.loads(out.read_text()))
    for data, samples in zip(outputs, (5000, DEFAULT_SAMPLES)):
        assert {face["samples"] for s in data["angle_sums"]
                for face in s["faces"]} == {samples}
    assert [data["directions"] for data in outputs[2:]] == \
        [3, DEFAULT_DIRECTIONS]


# project's output takes several flushes of the JSON writer.
PROJECT_MULTI_FLUSH = ["project", "--family", "cube", "--dim", "4",
                       "--directions", "3"]


@pytest.mark.parametrize("argv", [
    ["describe", "--family", "cube", "--dim", "3"],
    ["corpus", "--dims", "2..3"],
    PROJECT_MULTI_FLUSH,
], ids=["describe", "corpus", "project"])
@pytest.mark.parametrize("target", ["missing-dir", "directory", "dev-full"])
def test_unwritable_out_ends_in_json_error_line(argv, target, tmp_path,
                                                capsys):
    # /dev/full opens, then fails every write with ENOSPC.
    if target == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    out = {"missing-dir": tmp_path / "missing" / "out",
           "directory": tmp_path, "dev-full": "/dev/full"}[target]
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "BadOutputError"
    assert not (tmp_path / "missing").exists()


def test_write_failing_after_flushes_ends_in_json_error_line(monkeypatch,
                                                            tmp_path, capsys):
    # A disk that fills up mid-output: the first writes land, a later one
    # fails.
    writes = []

    class FillingUp(io.StringIO):
        def write(self, text):
            if len(writes) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            writes.append(text)
            return len(text)

    monkeypatch.setattr(polyface.cli, "open",
                        lambda *args, **kwargs: FillingUp(), raising=False)
    out = tmp_path / "project.json"
    assert main(PROJECT_MULTI_FLUSH + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert len(writes) == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "BadOutputError"


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["gen", "--family", "cube", "--dim", "3"],
    ["corpus", "--dims", "2..3"],
    ["project", "--family", "cube", "--dim", "3", "--directions", "1"],
], ids=["gen", "corpus", "project"])
def test_full_stdout_ends_in_json_error_line(argv, unbuffered):
    # Buffered, gen and corpus print less than stdout's buffer, so only
    # the final flush fails, and the bytes it leaves behind must not fail
    # again at interpreter shutdown (exit code 120); project's 16 kB fail
    # in the write itself.  Unbuffered, every write goes to the device.
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    env = {k: v for k, v in PKG_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "polyface", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "BadOutputError"


class TestVerifyBounds:
    def test_octahedron_equalities(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify-bounds", "--family", "cross", "--dim", "3",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())["bounds"]
        eq_facets = [r["k"] for r in report["rows"] if r["equality_facets"]]
        assert eq_facets == [1, 2]

    def test_cyclic_clean_exit(self):
        assert main(["verify-bounds", "--family", "cyclic", "--dim", "4",
                     "--n", "7", "--out", os.devnull]) == 0


class TestAngles:
    def test_small_run(self, tmp_path):
        out = tmp_path / "angles.json"
        assert main(["angles", "--family", "simplex", "--dim", "2",
                     "--samples", "40000", "--directions", "3",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert all(f["passed"] for f in data["floors"])
        assert all(c["ok"] for c in data["curvature"])

    def test_byte_identical_across_processes(self):
        # 140,000 samples per face is three sampling chunks; two fresh
        # interpreters with different hash seeds write the same bytes.
        outs = []
        for hash_seed in ("1", "2"):
            proc = run_cli("angles", "--family", "simplex", "--dim", "2",
                           "--samples", "140000", "--directions", "1",
                           PYTHONHASHSEED=hash_seed)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_checks_read_the_reported_angle_sums(self, capsys):
        assert main(["angles", "--family", "cube", "--dim", "3",
                     "--samples", "2000", "--directions", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        for key in ("floors", "projection_bound"):
            assert [(r["k"], r["total"], r["stderr"]) for r in data[key]] == [
                (s["k"], s["total"], s["stderr"]) for s in data["angle_sums"]]

    def test_one_direction_list_per_run(self, monkeypatch, capsys):
        original = polyface.cli.sample_direction
        calls = []

        def counting(p, seed=0):
            calls.append(seed)
            return original(p, seed)

        monkeypatch.setattr(polyface.cli, "sample_direction", counting)
        assert main(["angles", "--family", "cube", "--dim", "3",
                     "--samples", "2000", "--directions", "2"]) == 0
        assert len(calls) == 2

    def test_shadow_counts_match_project(self, capsys):
        common = ["--family", "random-sphere", "--dim", "3", "--n", "9",
                  "--seed", "5", "--directions", "3"]
        assert main(["project", *common]) == 0
        fvs = [d["shadow_f_vector"]
               for d in json.loads(capsys.readouterr().out)["diagrams"]]
        assert main(["angles", *common, "--samples", "2000"]) == 0
        rows = json.loads(capsys.readouterr().out)["projection_bound"]
        # A shadow's own dimension counts one face: the shadow itself.
        expected = [[(fv + [1])[r["k"]] for fv in fvs] for r in rows]
        assert [r["shadow_counts"] for r in rows] == expected

    def test_curvature_seeded_per_facet(self, capsys):
        # A 4-cube facet's sixteen vertices share its one Gaussian stream,
        # and their orthants split the facet's space, so each sample is a
        # hit of exactly one of them: the 5-cube's 32 vertex totals sum to
        # 10 in exact counts.  Per-face streams would miss that by noise.
        samples = 20_000
        totals = [r.total for r in curvature_checks(cube(5), samples, seed=1)
                  if r.face_dim == 0]
        assert len(totals) == 32
        assert sum(round(t * samples) for t in totals) == 10 * samples
        assert main(["angles", "--family", "cube", "--dim", "3",
                     "--samples", str(samples), "--directions", "1"]) == 0
        rows = json.loads(capsys.readouterr().out)["curvature"]
        # The rows come from the seed path (--seed, "curv"), and the facets
        # through a face draw the distinct streams ("facet", j) under it.
        p, curv = cube(3), derive_seed(0, "curv")
        reports = curvature_checks(p, samples, curv)
        assert [r.to_json() for r in reports] == rows
        for rep in reports:
            seeds = [e.seed for e in rep.facet_angles]
            through = facets_containing(p, frozenset(rep.face))
            assert seeds == [derive_seed(curv, "facet", j) for j in through]
            assert len(set(seeds)) == len(seeds) >= 2

    def test_huge_coordinates(self, tmp_path, capsys):
        # Facet normals of 160-digit points overflow a float; only their
        # directions count, so they are scaled first.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"ambient_dim": 3, "vertices": [
            [str(c) for c in p] for p in gaussian_points(160)[1]]}))
        assert main(["angles", "--in", str(path), "--samples", "2000",
                     "--directions", "1"]) == 0
        data = strict_json(capsys.readouterr().out)
        assert data["curvature"] and all(c["ok"] for c in data["curvature"])

    @pytest.mark.parametrize("digits", [8, 12])
    def test_nearly_flat_ridges(self, digits, tmp_path, capsys):
        # Each square of this cube splits into two nearly coplanar
        # triangles; float projections of their normals raised a false
        # GramViolationError ("fails by 0.341 in facet 4" at 8 digits).
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(huge_polytope(digits)))
        assert main(["angles", "--in", str(path), "--samples", "2000",
                     "--directions", "1"]) == 0
        data = strict_json(capsys.readouterr().out)
        assert data["curvature"] and all(c["ok"] for c in data["curvature"])

    @pytest.mark.parametrize("name", NEEDLE_INPUTS)
    def test_needle_thin_facets(self, name, tmp_path, capsys):
        # Ordering each closed-form cone's unit normals around their sum
        # ended needle-tip in a ZeroDivisionError traceback and
        # needle-facet in a false GramViolationError.
        path = tmp_path / "needle.json"
        path.write_text(json.dumps(NEEDLE_INPUTS[name]))
        assert main(["angles", "--in", str(path), "--samples", "2000",
                     "--directions", "1"]) == 0
        data = strict_json(capsys.readouterr().out)
        assert data["curvature"] and all(c["ok"] for c in data["curvature"])

    def test_point_has_no_checks(self, tmp_path, capsys):
        path = tmp_path / "point.json"
        path.write_text('{"ambient_dim": 2, "vertices": [[1, 1]]}')
        assert main(["angles", "--in", str(path), "--samples", "100",
                     "--directions", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "angle_sums": [], "curvature": [], "floors": [],
            "projection_bound": []}


class TestProject:
    def test_cube_run(self, tmp_path):
        out = tmp_path / "project.json"
        assert main(["project", "--family", "cube", "--dim", "3",
                     "--directions", "3", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["diagrams"]) == 3
        for diagram in data["diagrams"]:
            assert diagram["interior_count"] >= 1
            assert diagram["boundary_homeomorphic"] is True
            assert all(g["ok"] for g in diagram["gaps"])


    def test_huge_coordinates(self, tmp_path):
        # 300-digit coordinates give diagram points of more than 4,300
        # digits, past the interpreter's default limit on int-to-str
        # conversion; the limit is lifted for the report only.
        path, out = tmp_path / "huge.json", tmp_path / "project.json"
        path.write_text(json.dumps(huge_polytope(300)))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert main(["project", "--in", str(path), "--directions", "1",
                     "--out", str(out)]) == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        diagram = strict_json(out.read_text())["diagrams"][0]
        assert diagram["interior_count"] >= 1
        assert max(len(c) for dv in diagram["diagram_vertices"]
                   for c in dv["point"]) > 2 * 4300


class TestCorpus:
    def test_default_grid_clean(self, tmp_path):
        out = tmp_path / "corpus.csv"
        assert main(["corpus", "--families", "simplex,cube,cross,cyclic",
                     "--dims", "2..4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("family,dim,n,k,f_k")
        assert all("VIOLATED" not in line for line in lines)

    def test_random_sphere_from_dim_one(self, capsys):
        # The 0-sphere has two points, so dimension 1 asks for two.
        assert main(["corpus", "--families", "random-sphere",
                     "--dims", "1..3"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1].startswith("random-sphere,1,2,")

    def test_byte_identical_across_processes(self, tmp_path):
        texts = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"corpus-{hash_seed}.csv"
            proc = run_cli("corpus", "--families", "simplex,cube,cross,cyclic",
                           "--dims", "2..4", "--out", str(out),
                           PYTHONHASHSEED=hash_seed)
            assert proc.returncode == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


@pytest.mark.parametrize("check, key, failed", [
    ("min_face_check", "min_face", MinFaceReport(False, ())),
    ("few_vertex_check", "few_vertex",
     {"applicable": True, "s": 0, "ok": False, "rows": []}),
    ("unimodality_check", "unimodality", {"applicable": True, "ok": False}),
])
def test_violated_check_fails_both_commands(check, key, failed, monkeypatch,
                                            tmp_path):
    # No polytope breaks these theorems, so a mutant check stands in for
    # one that would.
    monkeypatch.setattr(polyface.cli, check, lambda p: failed)
    report = tmp_path / "report.json"
    assert main(["verify-bounds", "--family", "cube", "--dim", "3",
                 "--out", str(report)]) == 1
    assert strict_json(report.read_text())[key]["ok"] is False
    out = tmp_path / "corpus.csv"
    assert main(["corpus", "--families", "cube", "--dims", "3",
                 "--out", str(out)]) == 1
    rows = out.read_text().splitlines()[1:]
    flag = key.replace("_", "-") + ":VIOLATED"
    assert rows and all(row.count("VIOLATED") == 1 and flag in row
                        for row in rows)


def _written(obj) -> str:
    out = io.StringIO()
    _write_json(obj, out.write)
    return out.getvalue()


_CHARS = st.one_of(st.characters(),
                   st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\ud800é€😀'))
_TEXT = st.text(_CHARS, max_size=8)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                     -2.225073858507201e-308, 1e-310, 1e300, 0.1]))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    _FLOATS, _FLOATS.map(np.float64), _TEXT)
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_TEXT, children, max_size=5)),
    max_leaves=40)

# Trees that place one object at several positions and depths, which the
# writer renders once per object and depth: lists of one scalar type, lists
# that mix bool with int or hold np.float64 (never rendered as one type),
# and dicts over a few keys, so that one key set recurs in several
# insertion orders.
_KEYS = st.sampled_from(["a", "b", "c", "\u00e9", ""])
_SHARED_LISTS = st.one_of(
    st.lists(st.integers(), min_size=1, max_size=4),
    st.lists(_TEXT, min_size=1, max_size=4).map(tuple),
    st.lists(st.one_of(st.booleans(), st.integers(-1, 2)), min_size=2,
             max_size=4),
    st.lists(_FLOATS.map(np.float64), min_size=1, max_size=4))


@st.composite
def _aliased_trees(draw):
    shared = draw(st.lists(_SHARED_LISTS, min_size=1, max_size=3))
    values = st.one_of(_SCALARS, st.sampled_from(shared))
    shared += draw(st.lists(st.dictionaries(_KEYS, values, min_size=1,
                                            max_size=5),
                            min_size=1, max_size=2))
    body = draw(st.recursive(
        st.one_of(_SCALARS, st.sampled_from(shared)),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(_KEYS, children, max_size=4)),
        max_leaves=30))
    # Each shared object at depths 2 and 3 at least, and the last dict's
    # keys also in reverse insertion order at depth 2.
    turned = dict(reversed(shared[-1].items()))
    return {"body": body, "once": shared, "twice": [shared, turned]}


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(_TREES)
    def test_bytes_of_json_dump(self, obj):
        assert _written(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @settings(max_examples=200, deadline=None)
    @given(_aliased_trees())
    def test_bytes_of_json_dump_with_shared_objects(self, obj):
        assert _written(obj) == json.dumps(obj, indent=2, sort_keys=True)

    def test_bool_next_to_int(self):
        obj = {"b": [True, 1, False, 0, None], "i": -(10 ** 80)}
        assert _written(obj) == json.dumps(obj, indent=2, sort_keys=True)

    _HALF = [Fraction(1, 2)]

    @pytest.mark.parametrize("obj, message", [
        (Fraction(1, 2), "Fraction is not JSON serializable"),
        ({1, 2}, "set is not JSON serializable"),
        (np.int64(3), "int64 is not JSON serializable"),
        ({1: "one"}, "keys must be str, not int"),
        ({"a": 1, 2: "b"}, "keys must be str, not int"),
        ([0, {"deep": [Fraction(1, 3)]}], "Fraction is not JSON"),
        ([{"a": 1}, {"a": 1, 2: "b"}], "keys must be str, not int"),
        ([_HALF, {"again": _HALF}], "Fraction is not JSON serializable"),
    ], ids=["fraction", "set", "np-int64", "int-key", "mixed-keys",
            "nested-fraction", "after-cached-layout", "shared-fraction"])
    def test_refuses_what_json_would_not_write_alike(self, obj, message):
        with pytest.raises(TypeError, match=message):
            _written(obj)

    @staticmethod
    def _assert_streams(payload, monkeypatch):
        class Recording:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return len(text)

            def flush(self):
                pass

        sink = Recording()
        monkeypatch.setattr(sys, "stdout", sink)
        _emit(payload, None)
        total = "".join(sink.writes)
        assert total == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert len(total) > 4_000_000
        assert len(sink.writes) >= 10
        assert max(map(len, sink.writes)) < len(total) / 10

    def test_streams_in_several_writes(self, monkeypatch):
        payload = {"rows": [{"point": [f"{i}/7", str(-i)], "index": i,
                             "interior": i % 2 == 0} for i in range(40_000)]}
        self._assert_streams(payload, monkeypatch)

    def test_streams_shared_lists_in_several_writes(self, monkeypatch):
        # The writer renders each of the 10 lists once, yet must still
        # stream the output rather than gather it.
        points = [(f"{i}/7", str(-i), "1") for i in range(10)]
        payload = {"rows": [{"point": points[i % 10], "index": i,
                             "interior": i % 2 == 0} for i in range(40_000)]}
        self._assert_streams(payload, monkeypatch)


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "cyclic", "--dim", "3", "--n", "6"],
    ["describe", "--family", "cross", "--dim", "4"],
    ["verify-bounds", "--family", "prism", "--dim", "4"],
    ["project", "--family", "random-sphere", "--dim", "3", "--n", "8",
     "--directions", "2"],
    # Many faces recur across the records of 8 directions.
    ["project", "--family", "cube", "--dim", "4", "--directions", "8",
     "--seed", "1"],
    ["angles", "--family", "cube", "--dim", "3", "--samples", "2000",
     "--directions", "1"],
], ids=["gen", "describe", "verify-bounds", "project", "project-shared",
        "angles"])
def test_output_is_json_dump_format(argv, capsys):
    # angles has no golden hash (its floats depend on numpy's generator),
    # so this is what pins its float formatting.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
