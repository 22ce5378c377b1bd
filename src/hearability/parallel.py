"""Chunked process-pool map shared by the Monte Carlo and E911 collectors."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
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

    With ``workers > 1`` the range is cut into about ``4 * workers`` spans
    whose starts are multiples of ``align`` and the spans run in a process
    pool.  A ``func`` whose rows depend only on their index (and, with
    ``align``, on the block holding it) therefore returns the same array
    for every worker count.
    """
    if workers <= 1:
        return func(*args, 0, n)
    units = -(-n // align)
    bounds = np.minimum(np.linspace(0, units, 4 * workers + 1, dtype=int) * align, n)
    spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_run_span, [(func, args, a, b) for a, b in spans]))
    return np.concatenate(parts, axis=0)


def _run_span(task) -> np.ndarray:
    func, args, start, stop = task
    return func(*args, start, stop)
