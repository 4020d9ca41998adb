"""Deterministic random-number discipline shared by the sampling modules.

The named source is numpy's PCG64 bit generator.  Every Monte Carlo
estimate with a requested seed s draws its i-th chunk of samples from

    Generator(PCG64(SeedSequence((s mod 2**64, i))))

with a fixed chunk size, and aggregates integer counts, so results are
bit-identical across runs and across thread counts.  Sub-tasks (the angle
sums of a polytope, the facet angles of a curvature check, a direction)
derive their own 64-bit seeds from the parent seed and a textual path via
BLAKE2b, which keeps independent streams decoupled without any global
state.
"""
from __future__ import annotations

import hashlib
import os

import numpy as np

SEED_MASK = 2**64 - 1
CHUNK_SIZE = 1 << 16


def derive_seed(seed: int, *path) -> int:
    """A stable 64-bit sub-seed for the given parent seed and path."""
    text = repr((seed & SEED_MASK,) + tuple(path))
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence((seed & SEED_MASK, chunk_index))
    return np.random.Generator(np.random.PCG64(ss))


def chunk_sizes(samples: int) -> list[int]:
    full, rest = divmod(samples, CHUNK_SIZE)
    sizes = [CHUNK_SIZE] * full
    if rest:
        sizes.append(rest)
    return sizes


def thread_count() -> int:
    """Worker cap from POLYFACE_THREADS, at most os.cpu_count(); defaults
    to 1 (serial)."""
    raw = os.environ.get("POLYFACE_THREADS", "")
    try:
        wanted = int(raw)
    except ValueError:
        return 1
    return max(1, min(wanted, os.cpu_count() or 1))
