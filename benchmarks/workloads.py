"""Op mixes of the three benchmark workloads.

One op is one in-process call of ``polyface.cli.main(argv)``.  A workload
is a fixed list of ops (one *pass*); the runner repeats the pass in a
closed loop.  The run seed derives every ``--seed`` the program receives
(random-sphere vertices, sampled directions, Monte Carlo streams), so the
same seed gives the same argv lists and the program sees nothing else.

Sizes are chosen so one pass takes a few seconds on a 2-core machine:
a run repeats it at least ``MIN_PASSES`` times and the slowest op of the
mix still leaves at least ten samples above the reported tail percentile.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

WHY = {
    "bounds": "verify-bounds only: the exact kernel, hull and face lattice do "
              "nearly all the work; no projection and no sampling",
    "shadows": "project only: general-position normals and diagram vertices "
               "dominate, shadow hulls full of interior points, MB-sized JSON",
    "angles": "angles --directions 1 only: Monte Carlo solid angles dominate, "
              "a few large calls against hundreds of single-chunk calls",
}

# Share of each workload's op time in numpy-bound work, which sets the
# calibration mix (calibrate.py): solid-angle sampling is about 0.8 of the
# traced angles time; the other two workloads are interpreted Python.
NUMPY_SHARE = {"bounds": 0.0, "shadows": 0.0, "angles": 0.8}


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output check needs to know."""

    command: str  # verify-bounds | project | angles
    family: str
    dim: int
    n: int | None = None
    seed: int = 0
    directions: int | None = None
    samples: int | None = None

    @property
    def label(self) -> str:
        parts = [self.command, f"{self.family}-{self.dim}"]
        if self.n is not None:
            parts.append(f"n{self.n}")
        if self.directions is not None:
            parts.append(f"dir{self.directions}")
        if self.samples is not None:
            parts.append(f"s{self.samples}")
        return ":".join(parts)

    def argv(self) -> list[str]:
        out = [self.command, "--family", self.family, "--dim", str(self.dim),
               "--seed", str(self.seed)]
        if self.n is not None:
            out += ["--n", str(self.n)]
        if self.directions is not None:
            out += ["--directions", str(self.directions)]
        if self.samples is not None:
            out += ["--samples", str(self.samples)]
        return out


def op_seed(run_seed: int, workload: str, index: int) -> int:
    """A 32-bit program seed for op ``index`` of a run, from the run seed."""
    text = f"{run_seed}:{workload}:{index}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(text, digest_size=4).digest(), "big")


# (command, family, dim, n, directions, samples) per op of one pass.
_MIXES: dict[str, list[tuple]] = {
    # Hull, lattice grading and vertex tests.  Op sizes form two clusters
    # of similar cost, so that the median (~0.18 s ops) and the tail
    # percentile (~0.55 s ops: the 6- and 7-dimensional lattice and hull
    # work) do not sit on a step between two very different ops.
    "bounds": [
        ("verify-bounds", "simplex", 6, None, None, None),
        ("verify-bounds", "random-sphere", 4, 24, None, None),
        ("verify-bounds", "random-sphere", 4, 24, None, None),
        ("verify-bounds", "prism", 7, None, None, None),
        ("verify-bounds", "cube", 5, None, None, None),
        ("verify-bounds", "cross", 6, None, None, None),
        ("verify-bounds", "random-sphere", 5, 18, None, None),
        ("verify-bounds", "random-sphere", 5, 18, None, None),
        ("verify-bounds", "cyclic", 5, 15, None, None),
        ("verify-bounds", "random-sphere", 6, 15, None, None),
        ("verify-bounds", "pyramid", 6, None, None, None),
        ("verify-bounds", "cross", 7, None, None, None),
        ("verify-bounds", "cyclic", 6, 14, None, None),
        ("verify-bounds", "cyclic", 6, 15, None, None),
    ],
    # Diagram vertices dominate the 4-dimensional ops; general-position
    # normals (and verifying directions against them) dominate the
    # degenerate pyramid-5 ops and the 40-point 3-dimensional op.  The
    # multi-direction ops reuse the cached normals within the op; the
    # 8-direction ops sit at the median and four ~0.9 s ops at the tail.
    "shadows": [
        ("project", "cyclic", 3, 10, 1, None),
        ("project", "prism", 5, None, 1, None),
        ("project", "random-sphere", 3, 20, 1, None),
        ("project", "cyclic", 4, 10, 1, None),
        ("project", "cross", 4, None, 8, None),
        ("project", "cube", 4, None, 8, None),
        ("project", "random-sphere", 4, 12, 3, None),
        ("project", "random-sphere", 3, 40, 1, None),
        ("project", "pyramid", 5, None, 1, None),
        ("project", "pyramid", 5, None, 1, None),
    ],
    # Few large solid-angle calls (simplex-3, cube-3, random-sphere-3)
    # against hundreds of single-chunk calls per op (cube-4, cross-4,
    # simplex-5), like the acceptance curvature sweep.  cube-5 is left
    # out: its projection check would spend ~11 s in general-position
    # normals.
    "angles": [
        ("angles", "simplex", 3, None, 1, 150_000),
        ("angles", "cube", 3, None, 1, 30_000),
        ("angles", "random-sphere", 3, 12, 1, 15_000),
        ("angles", "random-sphere", 3, 12, 1, 15_000),
        ("angles", "cube", 4, None, 1, 8_000),
        ("angles", "cube", 4, None, 1, 8_000),
        ("angles", "cross", 4, None, 1, 8_000),
        ("angles", "cross", 4, None, 1, 8_000),
        ("angles", "simplex", 5, None, 1, 8_000),
        ("angles", "simplex", 5, None, 1, 8_000),
    ],
}

NAMES = tuple(_MIXES)


def build(workload: str, run_seed: int) -> list[Op]:
    """The op list of one pass of ``workload`` for ``run_seed``."""
    if workload not in _MIXES:
        raise ValueError(f"unknown workload {workload!r}; one of {NAMES}")
    return [
        Op(cmd, fam, dim, n, op_seed(run_seed, workload, i), dirs, samples)
        for i, (cmd, fam, dim, n, dirs, samples) in enumerate(_MIXES[workload])
    ]
