"""Outside-in span recorder for the traced benchmark run.

The recorder wraps module attributes that callers look up at call time
(``hearability.analytic.bisect_monotone_array``,
``hearability.simulate.stream``, ...), so the program itself is not
edited.  Each call becomes a span ``(name, start, end, parent, detail)``
kept in memory and written out when the repetition ends.  Counts taken
at the same boundaries (integrand panels, E911 solver paths) go into
``Recorder.counts``.

``span_metrics`` turns spans and counts into the per-layer metrics
named in ``PER_LAYER``; the benchmark's ``BENCHMARK.json`` lists the
same names.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable

# Span tuple fields.
NAME, START, END, PARENT, DETAIL = range(5)

ROOT_SPAN = "cli.main"


class Recorder:
    """Spans and counts of one traced process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable | None = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``on_result(recorder, args, kwargs, result)`` may return a short
        detail string stored on the span and may bump ``counts``.  An
        exception is counted as ``<name>.error.<type>`` and re-raised.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                spans[index] = (name, start, clock(), parent, type(err).__name__)
                self.counts[f"{name}.error.{type(err).__name__}"] += 1
                raise
            finally:
                stack.pop()
            end = clock()
            detail = on_result(self, args, kwargs, result) if on_result else None
            spans[index] = (name, start, end, parent, detail)
            return result

        return traced


# --- boundaries -------------------------------------------------------------


def _method_detail(rec, args, kwargs, result):
    method = args[0] if args else kwargs["method"]
    return str(getattr(method, "value", method))


def _realizations(rec, args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs["config"]
    rec.counts["simulate.realizations"] += int(config.realizations)
    return None


def _trial_outcome(rec, args, kwargs, result):
    rec.counts[f"e911.path.{result.method}"] += 1
    if result.position is not None:
        rec.counts["e911.fixes"] += 1
    return result.method


def _counting_integrate(rec: Recorder, integrate: Callable) -> Callable:
    """``integrate_adaptive`` that counts integrand calls (panels) and nodes."""

    def integrate_counted(f, a, b, *rest, **kwargs):
        def counted(xs):
            rec.counts["numerics.integrand_evals"] += 1
            rec.counts["numerics.nodes"] += len(xs)
            return f(xs)

        return integrate(counted, a, b, *rest, **kwargs)

    return integrate_counted


# (module, attribute the callers look up, span name, on_result)
BOUNDARIES = (
    ("hearability.cli", "write_csv", "cli.write_csv", None),
    ("hearability.cli", "evaluate", "analytic.evaluate", _method_detail),
    ("hearability.cli", "min_processing_gain", "analytic.min_processing_gain", None),
    ("hearability.cli", "pl_with_reuse", "reuse.pl_with_reuse", None),
    ("hearability.cli", "collect_margins", "simulate.collect_margins", _realizations),
    ("hearability.cli", "reuse_success_curve", "simulate.band_cummins", _realizations),
    ("hearability.cli", "hearability_curve", "simulate.upsilon", _realizations),
    ("hearability.cli", "fcc_compliance", "e911.fcc_compliance", None),
    ("hearability.reuse", "evaluate", "analytic.evaluate", _method_detail),
    ("hearability.analytic", "integrate_adaptive", "numerics.integrate_adaptive", None),
    ("hearability.analytic", "bisect_monotone_array", "numerics.bisect", None),
    ("hearability.analytic", "erlang_quantile", "numerics.erlang_quantile", None),
    ("hearability.analytic", "find_root_monotone", "numerics.root", None),
    ("hearability.numerics", "find_root_monotone", "numerics.root", None),
    ("hearability.simulate", "stream", "simulate.stream", None),
    ("hearability.simulate", "sample_ppp", "simulate.sample_ppp", None),
    ("hearability.simulate", "sample_hex", "simulate.sample_hex", None),
    ("hearability.simulate", "participation_metric", "simulate.participation_metric", None),
    ("hearability.e911", "run_trial", "e911.run_trial", _trial_outcome),
    ("hearability.e911", "sample_ppp", "simulate.sample_ppp", None),
    ("hearability.e911", "stream", "simulate.stream", None),
    ("hearability.e911", "detected_count", "e911.detect", None),
    ("hearability.e911", "synthesize_observations", "e911.synthesize", None),
    ("hearability.e911", "solve_tdoa", "e911.solve_tdoa", None),
)


def install(recorder: Recorder) -> list[str]:
    """Wrap every boundary; returns the ``module.attribute`` names not found.

    A boundary that a later version of the program no longer has is
    skipped and reported rather than failing the run; its metrics then
    read 0.
    """
    missing = []
    for module_name, attr, span, on_result in BOUNDARIES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        if span == "numerics.integrate_adaptive":
            fn = _counting_integrate(recorder, fn)
        setattr(module, attr, recorder.wrap(span, fn, on_result))
    return missing


# --- span arithmetic ----------------------------------------------------------


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append(span)
    out = []
    for index, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = union_length(
            (max(lo, c[START]), min(hi, c[END]))
            for c in children.get(index, ())
            if c[END] > lo and c[START] < hi
        )
        out.append(max(0.0, (hi - lo) - covered))
    return out


def layer_coverage(spans: list) -> float:
    """Seconds covered by layer spans, i.e. spans below the ``cli.main`` roots."""
    return union_length(
        (s[START], s[END])
        for s in spans
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == ROOT_SPAN
    )


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# --- per-layer metrics --------------------------------------------------------

ANALYTIC_METHODS = ("DoubleIntegral", "SingleIntegralGeneral", "SingleIntegralAlpha4")

# name -> unit, in the order they are reported.
PER_LAYER = {
    "numerics.integrate_calls": "count",
    "numerics.integrand_evals": "count",
    "numerics.nodes": "count",
    "numerics.integrate_self_s": "s",
    "numerics.bisect_calls": "count",
    "numerics.bisect_s": "s",
    "numerics.erlang_quantile_calls": "count",
    "numerics.erlang_quantile_s": "s",
    "numerics.root_calls": "count",
    "numerics.root_s": "s",
    "analytic.points": "count",
    "analytic.nonconvergence": "count",
    **{
        f"analytic.{m}.point_ms_{p}": "ms"
        for m in ANALYTIC_METHODS for p in ("p50", "p99")
    },
    "reuse.calls": "count",
    "reuse.base_evals": "count",
    "reuse.self_s": "s",
    "simulate.realizations": "count",
    "simulate.stream_calls": "count",
    "simulate.stream_s": "s",
    "simulate.sample_ppp_calls": "count",
    "simulate.sample_ppp_self_s": "s",
    "simulate.sample_ppp_us_p50": "us",
    "simulate.sample_hex_calls": "count",
    "simulate.sample_hex_self_s": "s",
    "simulate.participation_metric_s": "s",
    "simulate.participation_metric_us_p50": "us",
    "simulate.collect_margins_self_s": "s",
    "simulate.band_cummins_self_s": "s",
    "simulate.upsilon_self_s": "s",
    "e911.trials": "count",
    "e911.solve_calls": "count",
    "e911.solve_tdoa_s": "s",
    "e911.solve_tdoa_us_p50": "us",
    "e911.solve_tdoa_us_p99": "us",
    "e911.synthesize_s": "s",
    "e911.detect_s": "s",
    "e911.fix_ratio": "ratio",
    "e911.path.chan": "count",
    "e911.path.gauss_newton": "count",
    "e911.path.none": "count",
    "e911.pool_speedup": "ratio",
    "cli.write_csv_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.rows": "count",
    "cli.csv_identical": "ratio",
    "cli.csv_compared": "count",
    "trace.overhead_s": "s",
    "trace.uncovered_share": "ratio",
}


def span_metrics(spans: list, counts: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition from its spans and counts.

    Covers every ``PER_LAYER`` name except those that need more than the
    traced repetition (``e911.pool_speedup``, ``cli.*`` file facts,
    ``trace.overhead_s``), which the caller adds.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span[NAME]].append(index)

    def calls(name):
        return float(len(by_name[name]))

    def total(name):
        return sum(spans[i][END] - spans[i][START] for i in by_name[name])

    def self_total(name):
        return sum(selfs[i] for i in by_name[name])

    def durations(name, scale, detail=None):
        return [
            (spans[i][END] - spans[i][START]) * scale
            for i in by_name[name]
            if detail is None or spans[i][DETAIL] == detail
        ]

    reuse_spans = set(by_name["reuse.pl_with_reuse"])
    trials = calls("e911.run_trial")
    out = {
        "numerics.integrate_calls": calls("numerics.integrate_adaptive"),
        "numerics.integrand_evals": float(counts.get("numerics.integrand_evals", 0)),
        "numerics.nodes": float(counts.get("numerics.nodes", 0)),
        "numerics.integrate_self_s": self_total("numerics.integrate_adaptive"),
        "numerics.bisect_calls": calls("numerics.bisect"),
        "numerics.bisect_s": total("numerics.bisect"),
        "numerics.erlang_quantile_calls": calls("numerics.erlang_quantile"),
        "numerics.erlang_quantile_s": total("numerics.erlang_quantile"),
        "numerics.root_calls": calls("numerics.root"),
        "numerics.root_s": total("numerics.root"),
        "analytic.points": calls("analytic.evaluate") + calls("analytic.min_processing_gain"),
        "analytic.nonconvergence": float(
            counts.get("analytic.evaluate.error.NonConvergenceError", 0)
        ),
        "reuse.calls": calls("reuse.pl_with_reuse"),
        "reuse.base_evals": float(
            sum(1 for i in by_name["analytic.evaluate"] if spans[i][PARENT] in reuse_spans)
        ),
        "reuse.self_s": self_total("reuse.pl_with_reuse"),
        "simulate.realizations": float(counts.get("simulate.realizations", 0)),
        "simulate.stream_calls": calls("simulate.stream"),
        "simulate.stream_s": total("simulate.stream"),
        "simulate.sample_ppp_calls": calls("simulate.sample_ppp"),
        "simulate.sample_ppp_self_s": self_total("simulate.sample_ppp"),
        "simulate.sample_ppp_us_p50": percentile(durations("simulate.sample_ppp", 1e6), 50),
        "simulate.sample_hex_calls": calls("simulate.sample_hex"),
        "simulate.sample_hex_self_s": self_total("simulate.sample_hex"),
        "simulate.participation_metric_s": total("simulate.participation_metric"),
        "simulate.participation_metric_us_p50": percentile(
            durations("simulate.participation_metric", 1e6), 50
        ),
        "simulate.collect_margins_self_s": self_total("simulate.collect_margins"),
        "simulate.band_cummins_self_s": self_total("simulate.band_cummins"),
        "simulate.upsilon_self_s": self_total("simulate.upsilon"),
        "e911.trials": trials,
        "e911.solve_calls": calls("e911.solve_tdoa"),
        "e911.solve_tdoa_s": total("e911.solve_tdoa"),
        "e911.solve_tdoa_us_p50": percentile(durations("e911.solve_tdoa", 1e6), 50),
        "e911.solve_tdoa_us_p99": percentile(durations("e911.solve_tdoa", 1e6), 99),
        "e911.synthesize_s": total("e911.synthesize"),
        "e911.detect_s": total("e911.detect"),
        "e911.fix_ratio": counts.get("e911.fixes", 0) / trials if trials else 0.0,
        "e911.path.chan": float(counts.get("e911.path.chan", 0)),
        "e911.path.gauss_newton": float(counts.get("e911.path.gauss-newton", 0)),
        "e911.path.none": float(counts.get("e911.path.none", 0)),
        "cli.write_csv_s": total("cli.write_csv"),
        "trace.uncovered_share": (
            max(0.0, 1.0 - layer_coverage(spans) / wall_s) if wall_s > 0 else 0.0
        ),
    }
    for method in ANALYTIC_METHODS:
        ms = durations("analytic.evaluate", 1e3, method)
        out[f"analytic.{method}.point_ms_p50"] = percentile(ms, 50)
        out[f"analytic.{method}.point_ms_p99"] = percentile(ms, 99)
    return out
