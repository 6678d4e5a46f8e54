"""Deterministic random-stream construction.

All sampling routines take an explicit ``numpy.random.Generator``. The CLI
and the verification suite build their generators here so that every logical
task runs on its own named, reproducible stream (counter-based Philox bit
generator, one independent substream per task label).
"""
from __future__ import annotations

import zlib

import numpy as np

from .grid import check_count


def make_rng(seed: int, stream: str | None = None) -> np.random.Generator:
    """Philox generator for ``seed``; ``stream`` selects an independent substream.

    Streams with distinct labels are statistically independent, so parallel
    tasks can be given one stream each without sharing generator state.
    ``seed`` must be an integer >= 0 (``grid.check_count``).
    """
    check_count(seed, "seed")
    if stream is None:
        ss = np.random.SeedSequence(seed)
    else:
        ss = np.random.SeedSequence(seed, spawn_key=(zlib.crc32(stream.encode("utf-8")),))
    return np.random.Generator(np.random.Philox(ss))


def fill_rows(n: int, block_size, draw) -> tuple[np.ndarray, ...]:
    """First n accepted rows of a rejection sampler: ``draw(size)`` returns a
    tuple of arrays holding the accepted rows of ``size`` candidates, and
    ``block_size(remaining)`` sizes each block. Surplus rows are dropped."""
    parts = []
    remaining = n
    while remaining > 0:
        parts.append([a[:remaining] for a in draw(block_size(remaining))])
        remaining -= parts[-1][0].shape[0]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))
