"""Self-tests of the benchmark: the output checks reject doctored outputs,
the span recorder wraps and restores every binding, and a tiny run prints
every metric of BENCHMARK.json with its unit.

    python3 -m pytest -q benchmarks
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import validate
import workloads
from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import polyface.cli  # noqa: E402
import polyface.exact  # noqa: E402
import polyface.lattice  # noqa: E402
import polyface.polytope  # noqa: E402


def cli_output(op: Op) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert polyface.cli.main(op.argv()) == 0
    return json.loads(buf.getvalue())


def problems(op: Op, data: dict) -> list[str]:
    return validate.check_output(op, json.dumps(data))


BOUNDS_OP = Op("verify-bounds", "prism", 4)
PROJECT_OP = Op("project", "cube", 3, seed=7, directions=2)
ANGLES_OP = Op("angles", "simplex", 3, seed=7, directions=1, samples=4000)


@pytest.fixture(scope="module")
def outputs():
    return {op.command: cli_output(op) for op in (BOUNDS_OP, PROJECT_OP, ANGLES_OP)}


def test_real_outputs_pass(outputs):
    for op in (BOUNDS_OP, PROJECT_OP, ANGLES_OP):
        assert problems(op, outputs[op.command]) == []


@pytest.mark.parametrize("family,dim,n", [
    ("simplex", 4, None), ("cube", 4, None), ("cross", 4, None),
    ("prism", 4, None), ("pyramid", 4, None), ("cyclic", 4, 8),
])
def test_closed_forms_match_the_program(family, dim, n):
    op = Op("verify-bounds", family, dim, n)
    assert problems(op, cli_output(op)) == []


def test_rejects_wrong_f_vector(outputs):
    data = json.loads(json.dumps(outputs["verify-bounds"]))
    # +1 on f_0 and f_1 keeps Euler's relation, so only the closed form sees it.
    data["bounds"]["rows"][0]["f_k"] += 1
    data["bounds"]["rows"][1]["f_k"] += 1
    assert any("closed form" in p for p in problems(BOUNDS_OP, data))
    data["bounds"]["rows"][1]["f_k"] += 1
    assert any("Euler" in p for p in problems(BOUNDS_OP, data))


def test_rejects_broken_gram_sum(outputs):
    data = json.loads(json.dumps(outputs["angles"]))
    data["angle_sums"][0]["total"] += 0.25
    data["angle_sums"][0]["faces"][0]["mean"] += 0.25
    assert any("Gram" in p for p in problems(ANGLES_OP, data))


def test_rejects_diagram_without_interior_vertex(outputs):
    data = json.loads(json.dumps(outputs["project"]))
    diagram = data["diagrams"][1]
    for v in diagram["diagram_vertices"]:
        v["interior"] = False
    diagram["interior_count"] = 0
    assert any("interior" in p for p in problems(PROJECT_OP, data))


def test_rejects_malformed_output():
    assert validate.check_output(BOUNDS_OP, "not json")


def test_bytes_that_change_between_passes_fail():
    calls = []

    def flaky_main(argv):
        calls.append(argv)
        sys.stdout.write(json.dumps(cli_output(BOUNDS_OP)) + " " * (len(calls) % 2))
        return 0

    runner = run.Runner(flaky_main, [BOUNDS_OP])
    runner.warm_up()
    assert runner.problems == [[]]
    timed = runner.timed(0.0, 2)
    assert [runner.failed([p]) for p in timed.passes] == [1, 0]


def test_recorder_wraps_every_binding_and_restores():
    original = polyface.exact.affine_dim
    bound_at = (polyface.exact, polyface.polytope, polyface.lattice)
    assert all(m.affine_dim is original for m in bound_at)
    rec = tracing.Recorder()
    rec.install()
    try:
        assert all(m.affine_dim is not original for m in bound_at)
        op = rec.span(tracing.OP_SPAN, polyface.cli.main)
        with contextlib.redirect_stdout(io.StringIO()):
            op(BOUNDS_OP.argv())
    finally:
        rec.uninstall()
    assert all(m.affine_dim is original for m in bound_at)
    calls, total, own = rec.totals()
    assert calls["exact.rank"] > 0 and calls[tracing.OP_SPAN] == 1
    assert abs(sum(own.values()) - total[tracing.OP_SPAN]) < 1e-6


def test_percentile_does_not_depend_on_the_number_of_passes():
    mix = [0.1, 0.2, 0.3, 0.5, 0.8, 1.3, 2.1, 3.4, 5.5, 8.9]
    for p in (50.0, 75.0):
        assert run.percentile(mix * 4, p) == pytest.approx(run.percentile(mix * 5, p))
    assert run.percentile([2.0] * 7, 75.0) == pytest.approx(2.0)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(1000) == 99.0
    with pytest.raises(ValueError):
        run.tail_percentile(19)
    for name in workloads.NAMES:
        run.tail_percentile(len(workloads.build(name, 0)) * run.MIN_PASSES)


def test_seed_fixes_the_op_list():
    assert workloads.build("shadows", 3) == workloads.build("shadows", 3)
    assert workloads.build("shadows", 3) != workloads.build("shadows", 4)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_runner():
    spec = _benchmark_json()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (n, workloads.WHY[n]) for n in workloads.NAMES]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (n, u, b) for n, u, b in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (n, u, b) for n, u, b in tracing.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(monkeypatch, capsys, tmp_path, trace):
    tiny = [("verify-bounds", "simplex", 3, None, None, None)] * 5 + [
        ("project", "cube", 3, None, 1, None)] * 3 + [
        ("angles", "simplex", 2, None, 1, 1000)] * 2
    monkeypatch.setitem(workloads._MIXES, "angles", tiny)
    spans = tmp_path / "spans.jsonl"
    assert run.main(["--workload", "angles", "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--spans", str(spans)]) == 0
    if trace:
        first = json.loads(spans.read_text().splitlines()[0])
        assert set(first) == {"id", "name", "start", "end", "parent", "op"}
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in spec:
        assert any(line.startswith(f"metric {m['name']} = ")
                   and line.endswith(" " + m["unit"]) for line in lines)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "bounds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
