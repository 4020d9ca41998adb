"""The command line: pipelines, exit codes, deterministic output."""
import json
import os
import subprocess
import sys

import pytest

import polyface.cli
from polyface.cli import main

PKG_ENV = dict(os.environ)


def run_cli(*args, threads=None):
    env = dict(PKG_ENV)
    if threads is not None:
        env["POLYFACE_THREADS"] = str(threads)
    return subprocess.run(
        [sys.executable, "-m", "polyface", *args],
        capture_output=True, text=True, env=env,
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


# (name, file content or None for a missing file, extra argv, error type)
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
    ("overflowing-ambient-dim",
     '{"ambient_dim": 1e400, "vertices": [[0, 0], [1, 0], [0, 1]]}',
     ["describe"], "BadInputError"),
    ("fractional-ambient-dim",
     '{"ambient_dim": 2.5, "vertices": [[0, 0], [1, 0], [0, 1]]}',
     ["describe"], "BadInputError"),
    ("boolean-ambient-dim",
     '{"ambient_dim": true, "vertices": [[0], [1]]}', ["describe"],
     "BadInputError"),
    ("angles-zero-directions", None,
     ["angles", "--family", "simplex", "--dim", "2", "--directions", "0"],
     "OutOfRangeError"),
    ("angles-zero-samples", None,
     ["angles", "--family", "simplex", "--dim", "2", "--samples", "0"],
     "OutOfRangeError"),
    ("angles-infinite-sigma", None,
     ["angles", "--family", "simplex", "--dim", "2", "--samples", "2000",
      "--directions", "1", "--tolerance-sigma", "inf"], "OutOfRangeError"),
    ("angles-negative-sigma", None,
     ["angles", "--family", "simplex", "--dim", "2", "--samples", "2000",
      "--directions", "1", "--tolerance-sigma", "-1"], "OutOfRangeError"),
    ("angles-nan-sigma", None,
     ["angles", "--family", "simplex", "--dim", "2", "--samples", "2000",
      "--directions", "1", "--tolerance-sigma", "nan"], "OutOfRangeError"),
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
]


@pytest.mark.parametrize("name,content,argv,error", BAD_INPUTS,
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_input_ends_in_json_error_line(name, content, argv, error,
                                           tmp_path, capsys):
    if argv == ["describe"]:
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content)
        argv = argv + ["--in", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == error


@pytest.mark.parametrize("argv", [
    ["describe", "--family", "cube", "--dim", "3"],
    ["corpus", "--dims", "2..3"],
], ids=["describe", "corpus"])
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

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="one CPU: the thread cap makes every run serial")
    def test_byte_identical_across_thread_counts(self):
        # 140,000 samples per face is three sampling chunks, so four
        # threads really do split each estimate.
        outs = []
        for threads in (1, 4):
            proc = run_cli("angles", "--family", "simplex", "--dim", "2",
                           "--samples", "140000", "--directions", "1",
                           threads=threads)
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

    def test_curvature_seeded_per_face(self, capsys):
        # Each square facet's four quadrant angles sum to exactly 1 when
        # its vertices share one Gaussian stream, and so would the cube's
        # eight vertex curvature totals (to 6); per-face seeds break that.
        assert main(["angles", "--family", "cube", "--dim", "3",
                     "--samples", "20000", "--directions", "1"]) == 0
        rows = json.loads(capsys.readouterr().out)["curvature"]
        totals = [r["total"] for r in rows if r["face_dim"] == 0]
        assert len(totals) == 8
        assert sum(totals) != 6.0

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

    def test_byte_identical_across_thread_counts(self, tmp_path):
        texts = []
        for threads in (1, 4):
            out = tmp_path / f"corpus-{threads}.csv"
            proc = run_cli("corpus", "--families", "simplex,cube,cross,cyclic",
                           "--dims", "2..4", "--out", str(out),
                           threads=threads)
            assert proc.returncode == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
