"""Chunked process-pool map shared by the Monte Carlo and E911 collectors."""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

__all__ = ["map_spans"]


def map_spans(
    func: Callable[..., np.ndarray],
    args: tuple,
    n: int,
    workers: int,
    align: int = 1,
) -> np.ndarray:
    """``func(*args, start, stop)`` over spans covering ``range(n)``, concatenated.

    The range is cut into one span per worker, or one per block of
    ``align`` rows when there are fewer blocks than workers, with starts
    that are multiples of ``align``.  A single span runs in this process;
    more run in a pool of one process per span, capped at the number of
    CPUs this process may use; spans beyond the cap queue on the pool.
    A ``func`` whose rows depend only on their index (and, with
    ``align``, on the block holding it) therefore returns the same array
    for every worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    units = -(-n // align)
    bounds = np.linspace(0, units, max(1, min(workers, units)) + 1, dtype=int) * align
    spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], np.minimum(bounds[1:], n))]
    if len(spans) == 1:
        return func(*args, 0, n)
    with _pool(min(len(spans), _cpu_count())) as pool:
        parts = list(pool.map(_run_span, [(func, args, a, b) for a, b in spans]))
    return np.concatenate(parts, axis=0)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool(processes: int):
    """A pool of ``processes`` worker processes.

    The pool is imported here, so a run that never starts one never
    loads ``multiprocessing``.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=processes)


def _run_span(task) -> np.ndarray:
    func, args, start, stop = task
    return func(*args, start, stop)
