"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/summarize.py --workloads bounds,shadows,angles \\
        --seeds 1-10 --out benchmarks/BENCH_baseline.json

Each (workload, seed) is one ``run.py`` process with BENCHMARK.json's
``run_seconds``.  For every metric the summary gives the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(third minus first quartile, as a share of the median), and, for the
end-to-end metrics, whether the spread stays within the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int
            ) -> tuple[dict, dict, list[str]]:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: "
                           f"{out.stderr.strip()[-500:]}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    notes = [l for l in lines if l.startswith(("op_tail_s is", "tracing:", "metric fail_ratio",
                                              "metric angle_stderr_rms"))]
    return json.loads(lines[-1]), env, notes


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(workloads.NAMES))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    result: dict = {"run_seconds": spec["run_seconds"], "seeds": seeds,
                    "trace": args.trace, "workloads": {}}
    for name in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        attempted = failed = 0
        notes = {}
        for seed in seeds:
            res, env, notes[seed] = one_run(name, seed, spec["run_seconds"], args.trace)
            result.setdefault("environment", env)
            attempted += res["attempted"]
            failed += res["failed"]
            for metric, m in res["metrics"].items():
                per_metric.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                if k in bounds), flush=True)
        metrics = {k: summary(v) for k, v in per_metric.items()}
        for k, s in metrics.items():
            if k in bounds:
                s["bound"] = bounds[k]
                s["spread_within_bound"] = s["spread"] <= bounds[k]
                print(f"  {k:14s} median {s['median']:.5g} spread {s['spread']:.4f}"
                      f" bound {bounds[k]}", flush=True)
        result["workloads"][name] = {
            "ops": [op.label for op in workloads.build(name, 0)],
            "why": workloads.WHY[name], "attempted": attempted,
            "failed": failed, "metrics": metrics, "notes": notes}
    if args.trace:
        result["layer_moves"] = tracing.MOVES
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
