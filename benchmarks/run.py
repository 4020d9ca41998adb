"""Closed-loop benchmark of the polyface CLI.

    python3 benchmarks/run.py --workload bounds --seed 1 --seconds 25 --trace 0

One process, one client: each op is an in-process call of
``polyface.cli.main(argv)`` with stdout captured in memory, and the next op
starts when the previous one returns.  The run seed derives every argv
(see workloads.py).  A run sets up, runs one discarded warm-up pass whose
outputs are checked (validate.py), then repeats the pass for ``--seconds``
(at least MIN_PASSES times).  An op fails when it exits nonzero, raises,
or prints anything other than the checked warm-up bytes.

Every reported time is the op's wall time rescaled to a reference machine
speed measured around the op (calibrate.py); the unscaled figures are
printed too.  ops_per_s is the median over passes; op_p50_s and op_tail_s
are smoothed percentiles of all op times of the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half traced (tracing.py) and prints the per-layer
metrics; ``--spans FILE`` also writes every span as a JSON line.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the run exits 2 and prints no result.
"""
from __future__ import annotations

import os

# One BLAS thread: the default pool burns ~30% more CPU than wall time on
# the angles workload with no gain in wall time, and adds noise on a shared
# machine.  POLYFACE_THREADS stays at the program default.  Both must be
# settled before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("POLYFACE_THREADS", None)

import argparse
import ctypes
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import calibrate
import tracing
import validate
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
MIN_PASSES = 4
SETUP_PROBES = 7
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
SMOOTH = 10.0  # percentage points

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Runs in a fresh interpreter: import the program and build the op list,
# between two calibrations (interpreted work only: no numpy kernel, whose
# import would otherwise precede the timed one).
_SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[2])
import calibrate, workloads
before = calibrate.slowness()
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import polyface.cli
workloads.build(sys.argv[3], int(sys.argv[4]))
wall = time.perf_counter() - t
print(wall, before, calibrate.slowness())
"""


@dataclass
class OpResult:
    wall: float
    cpu: float
    ok: bool  # exit code 0 and no exception
    digest: bytes
    size: int
    error: str = ""
    scaled: float = 0.0  # wall at the reference speed (calibrate.py)


def percentile(values: list[float], p: float) -> float:
    """The ``p``-th percentile, smoothed: the mean of the empirical quantile
    function over the band p +- SMOOTH percentage points.  A single order
    statistic moves with the jitter of the one op it happens to be, and
    the band, unlike a fixed number of order statistics, covers the same
    ops of the mix however many passes a run makes."""
    xs = sorted(values)
    n = len(xs)
    lo, hi = max(0.0, (p - SMOOTH) / 100.0), min(1.0, (p + SMOOTH) / 100.0)
    return sum(x * max(0.0, min(hi, (i + 1) / n) - max(lo, i / n))
               for i, x in enumerate(xs)) / (hi - lo)


def tail_percentile(n_samples: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples above it."""
    for p in TAIL_LADDER:
        if n_samples * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            return p
    raise ValueError(f"{n_samples} samples leave no percentile with "
                     f"{TAIL_BEYOND} samples beyond it")


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(wall, scaled) seconds to import polyface and build the op list in
    a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH_DIR),
         workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    wall, before, after = map(float, out.stdout.split())
    return wall, calibrate.scale(wall, before, after)


def run_op(main, argv: list[str], keep_text: bool) -> tuple[OpResult, str]:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc, error = exc.code, f"SystemExit({exc.code})"
    except Exception as exc:  # an op that raises is a failed op, not a crash
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    text = out.getvalue()
    if rc != 0 and not error:
        error = f"exit {rc}: {err.getvalue().strip()[:200]}"
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
    result = OpResult(wall, cpu, rc == 0 and not error, digest, len(text), error)
    return result, (text if keep_text else "")


class Runner:
    def __init__(self, cli_main, ops: list[workloads.Op], numpy_share: float = 0.0):
        self.main = cli_main
        self.numpy_share = numpy_share
        self.ops = ops
        self.argvs = [op.argv() for op in ops]
        self.expected: list[bytes] = []
        self.problems: list[list[str]] = []
        self.stderrs: list[float] = []

    def warm_up(self) -> float:
        """Discarded first pass; its outputs are checked and become the
        bytes every later pass must reproduce."""
        t0 = time.perf_counter()
        for op, argv in zip(self.ops, self.argvs):
            res, text = run_op(self.main, argv, keep_text=True)
            problems = [res.error] if not res.ok else validate.check_output(op, text)
            if not problems and op.command == "angles":
                self.stderrs += validate.angle_stderrs(text)
            self.expected.append(res.digest)
            self.problems.append(problems)
        return time.perf_counter() - t0

    def timed(self, seconds: float, min_passes: int, main=None,
              recorder: tracing.Recorder | None = None) -> "Passes":
        main = main or self.main
        passes: list[list[OpResult]] = []
        walls: list[float] = []
        # Stop before a pass that would end past ``seconds``.
        while len(passes) < min_passes or sum(walls) * (1 + 1 / len(passes)) <= seconds:
            t0 = time.perf_counter()
            results = []
            before = calibrate.slowness(self.numpy_share)
            for i, argv in enumerate(self.argvs):
                if recorder is not None:
                    recorder.begin_op(len(passes) * len(self.argvs) + i)
                res = run_op(main, argv, keep_text=False)[0]
                after = calibrate.slowness(self.numpy_share)
                res.scaled = calibrate.scale(res.wall, before, after)
                before = after
                results.append(res)
            passes.append(results)
            walls.append(time.perf_counter() - t0)
        return Passes(passes, walls)

    def failed(self, passes: list[list[OpResult]]) -> int:
        return sum(1 for results in passes for i, r in enumerate(results)
                   if not r.ok or r.digest != self.expected[i] or self.problems[i])


@dataclass
class Passes:
    passes: list[list[OpResult]]
    walls: list[float]  # wall seconds of each pass

    @property
    def results(self) -> list[OpResult]:
        return [r for p in self.passes for r in p]

    @property
    def ops_per_s(self) -> float:
        """Median over the passes of ops completed per second of scaled op
        time (the calibration kernels between ops are not counted)."""
        return statistics.median(len(p) / sum(r.scaled for r in p)
                                 for p in self.passes)

    @property
    def raw_ops_per_s(self) -> float:
        return statistics.median(len(p) / sum(r.wall for r in p)
                                 for p in self.passes)


def blas_info() -> dict:
    info: dict = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        import numpy as np
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (ImportError, KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                info["library"] = os.path.basename(path)
                return info
    return info


def environment(warm_s: float, inproc_setup_s: float, slowness: float) -> dict:
    import numpy as np
    try:
        from polyface._rng import thread_count
        polyface_threads = thread_count()
    except ImportError:
        polyface_threads = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "polyface_threads": polyface_threads,
        "polyface_threads_env": os.environ.get("POLYFACE_THREADS"),
        "warmup_pass_s": warm_s,
        "inprocess_setup_s": inproc_setup_s,
        "slowness_at_start": slowness,
    }


def emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write every traced span here as JSON lines")
    args = ap.parse_args(argv)

    if not (SRC / "polyface" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no polyface sources under {SRC}\n")
        return 2
    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import polyface.cli
    ops = workloads.build(args.workload, args.seed)
    inproc_setup = time.perf_counter() - t0
    if Path(polyface.cli.__file__).resolve().parents[1] != SRC:
        sys.stderr.write(f"benchmark: polyface imported from {polyface.cli.__file__}\n")
        return 2

    share = workloads.NUMPY_SHARE[args.workload]
    runner = Runner(polyface.cli.main, ops, share)
    slowness = statistics.median(calibrate.slowness(share) for _ in range(9))
    warm_s = runner.warm_up()
    for op, problems in zip(ops, runner.problems):
        for problem in problems:
            emit(f"check failed: {op.label}: {problem}")
    emit("env " + json.dumps(environment(warm_s, inproc_setup, slowness), sort_keys=True))
    stderr_rms = (statistics.fmean(e * e for e in runner.stderrs) ** 0.5
                  if runner.stderrs else 0.0)

    if args.trace:
        untraced = runner.timed(args.seconds / 2, 2)
        rec = tracing.Recorder()
        op_span = rec.span(tracing.OP_SPAN, polyface.cli.main)
        rec.install()
        try:
            traced = runner.timed(args.seconds / 2, 1, main=op_span, recorder=rec)
        finally:
            rec.uninstall()
        if args.spans:
            rec.write_jsonl(args.spans)
        if rec.missing:
            emit("not traced (missing): " + ", ".join(rec.missing))
        all_passes = untraced.passes + traced.passes
        n_traced = len(traced.passes)
        results = traced.results
        factors = [r.scaled / r.wall for r in results]
        metrics = tracing.layer_metrics(rec, n_traced, factors, {
            "cli.cpu_per_wall": sum(r.cpu for r in results) / sum(r.wall for r in results),
            "cli._emit.bytes_out": sum(r.size for r in results) / n_traced,
            "angles.stderr_rms": stderr_rms,
            "trace.overhead_ratio": untraced.ops_per_s / traced.ops_per_s,
        })
        emit(f"tracing: {len(untraced.passes)} untraced passes at "
             f"{untraced.ops_per_s:.4g} ops/s, {n_traced} traced passes at "
             f"{traced.ops_per_s:.4g} ops/s, {len(rec.spans)} spans")
        for layer in tracing.LAYERS:
            emit(f"share {layer} = {metrics['share.' + layer]['value']:.3f}")
    else:
        timed = runner.timed(args.seconds, MIN_PASSES)
        all_passes = timed.passes
        walls = [r.scaled for r in timed.results]
        tail_p = tail_percentile(len(ops) * MIN_PASSES)
        values = {
            "setup_s": statistics.median(s for _, s in setup),
            "ops_per_s": timed.ops_per_s,
            "op_p50_s": percentile(walls, 50.0),
            "op_tail_s": percentile(walls, tail_p),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
        emit(f"op_tail_s is p{tail_p:g} of {len(walls)} op samples "
             f"({len(all_passes)} passes of {len(ops)} ops), smoothed over "
             f"p{tail_p - SMOOTH:g}-p{tail_p + SMOOTH:g}")
        raw = [r.wall for r in timed.results]
        emit("pass walls " + " ".join(f"{w:.3f}" for w in timed.walls))
        emit(f"unscaled: setup_s {statistics.median(w for w, _ in setup):.4g}, "
             f"ops_per_s {timed.raw_ops_per_s:.4g}, op_p50_s "
             f"{percentile(raw, 50.0):.4g}, op_tail_s {percentile(raw, tail_p):.4g}")

    attempted = sum(len(p) for p in all_passes)
    failed = runner.failed(all_passes)
    for name, m in metrics.items():
        emit(f"metric {name} = {m['value']:.6g} {m['unit']}")
    emit(f"metric fail_ratio = {failed / attempted:.6g} ratio")
    if args.workload == "angles":
        emit(f"metric angle_stderr_rms = {stderr_rms:.6g} ratio")
    emit(json.dumps({"correct": failed == 0, "attempted": attempted,
                     "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
