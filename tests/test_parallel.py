"""Unit tests for the chunked process-pool map."""

import numpy as np
import pytest

from hearability import parallel
from hearability.parallel import map_spans


def _rows(offset, start, stop):
    return np.arange(start, stop)[:, None] + np.array([[0, offset]])


class _InlinePool:
    """Stands in for the process pool: records its size, runs in this process."""

    def __init__(self, seen, processes):
        seen.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


CPUS = 4  # the CPU count every case runs with


@pytest.fixture()
def pools(monkeypatch):
    seen = []
    monkeypatch.setattr(parallel, "_pool", lambda processes: _InlinePool(seen, processes))
    monkeypatch.setattr(parallel, "_cpu_count", lambda: CPUS)
    return seen


def _spans(monkeypatch):
    """Records the ``(start, stop)`` of every span the pool runs."""
    calls = []
    run_span = parallel._run_span

    def record(task):
        calls.append(task[2:])
        return run_span(task)

    monkeypatch.setattr(parallel, "_run_span", record)
    return calls


@pytest.mark.parametrize(
    "n,workers,align,spans,pool",
    [
        (20, 3, 16, [(0, 16), (16, 20)], 2),
        (10, 3, 16, [], None),
        (203, 2, 16, [(0, 96), (96, 203)], 2),
        (203, 3, 16, [(0, 64), (64, 128), (128, 203)], 3),
        (50, 1, 16, [], None),
        (7, 4, 1, [(0, 1), (1, 3), (3, 5), (5, 7)], 4),
    ],
)
def test_one_span_per_worker_and_no_surplus_process(
    monkeypatch, pools, n, workers, align, spans, pool
):
    calls = _spans(monkeypatch)
    out = map_spans(_rows, (5,), n, workers, align)
    np.testing.assert_array_equal(out, _rows(5, 0, n))
    assert calls == spans
    assert pools == ([] if pool is None else [pool])


def test_pool_never_outgrows_the_cpus(monkeypatch, pools):
    # 1000 workers on 203 rows cut 13 spans of 16-row blocks; they queue
    # on a pool of one process per CPU.
    calls = _spans(monkeypatch)
    out = map_spans(_rows, (5,), 203, 1000, 16)
    np.testing.assert_array_equal(out, _rows(5, 0, 203))
    assert len(calls) == 13
    assert pools == [CPUS]


@pytest.mark.parametrize("workers", [0, -5])
def test_rejects_fewer_than_one_worker(pools, workers):
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        map_spans(_rows, (5,), 20, workers)
    assert pools == []
