"""The determinism manifest: the sha256 of stdout and the exit code of each
op of the three benchmark workloads at run seeds 1-3, 102 ops in all.

The ops come from ``benchmarks/workloads.py`` (``build``), which is read,
never changed.  Each op is one in-process call of ``polyface.cli.main``,
as the benchmark runs it.  ``tests/test_outputs.py`` recomputes every
entry and names the ops whose bytes moved.  The `angles` ops print
sampled floats, which depend on numpy's generator, so the manifest
records the numpy version it was made with.

Re-record it only for a declared output change:

    PYTHONPATH=src python tests/record_outputs.py
"""
from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from polyface.cli import main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().with_name("outputs.json")
SEEDS = (1, 2, 3)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def ops(workload: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of each op of one workload, seeds in order."""
    return [(f"{workload}:seed{seed}:{i:02d}:{op.label}", op.argv())
            for seed in SEEDS
            for i, op in enumerate(WORKLOADS.build(workload, seed))]


def run(argv: list[str]) -> dict:
    """The sha256 of one op's stdout and its exit code; an op that raises
    records the exception's type in place of the code."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raising op is an output too
        code = f"raised {type(exc).__name__}"
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "exit": code}


def record() -> dict:
    return {"numpy": np.__version__,
            "ops": {name: run(argv) for workload in WORKLOADS.NAMES
                    for name, argv in ops(workload)}}


if __name__ == "__main__":
    manifest = record()
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"{len(manifest['ops'])} ops recorded in {MANIFEST.name} "
          f"with numpy {manifest['numpy']}")
