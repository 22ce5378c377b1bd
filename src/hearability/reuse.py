"""P_L under frequency reuse across K bands.

With reuse factor ``K`` each BS occupies one of ``K`` bands uniformly at
random, so the device faces ``K`` independent thinned networks of
density ``lam / K`` and can accumulate detections across bands: it wins
when the per-band detectable counts sum to at least ``L``.  Writing
``e(n)`` for the probability that exactly ``n`` BSs are detectable in
one band (a telescoping difference of single-band ``P_n`` values), the
failure probability is the sum over all ways to split fewer than ``L``
detections among the bands, i.e. the low-order coefficients of the
K-fold convolution of ``e``.

The construction requires a single per-band detectability ordering,
which holds when muting and load coincide (``p = q``).  No evaluator
reads the density, so the per-band ``P_n`` depend on the beta/gamma
level only: :func:`pl_with_reuse_grid` evaluates one table over a grid
of levels, one grid call per ``n``, for every ``K`` of a family of
scenarios.  One scenario is a family of one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .analytic import Method, evaluate_grid
from .model import Scenario
from .numerics import NonConvergenceError
from .simulate import check_matched_marks

__all__ = ["pl_with_reuse_grid"]


def _count_pmfs(scenario: Scenario, levels: list, base_method: Method) -> list:
    """Per level, P(exactly n BSs detectable in one band) for n = 0 .. L-1.

    ``e(n) = P_n - P_{n+1}`` with ``P_0 = 1`` and ``P_n`` the single-band
    value, one grid call per n over every level; counts of ``L`` or more
    never contribute to failure, so the vector stops at ``L - 1``.
    Negative differences beyond rounding noise indicate a broken base
    evaluator and raise; rounding-level negatives are clamped to 0.  A
    level whose ``P_n`` does not converge gets the
    :class:`NonConvergenceError` of its first such n instead.
    """
    L = scenario.L
    table = [
        evaluate_grid(base_method, scenario.replace(L=n, K=1), levels)
        for n in range(1, L + 1)
    ]
    return [_pmf(column, L) for column in zip(*table)]


def _pmf(p_n: tuple, L: int):
    """``e(0 .. L-1)`` from ``P_1 .. P_L``, or the first ``P_n`` that failed."""
    failed = [v for v in p_n if isinstance(v, NonConvergenceError)]
    if failed:
        return failed[0]
    e = np.diff(-np.asarray([1.0, *p_n]))  # P_0 = 1; e[n] = P_n - P_{n+1}
    if np.any(e < -1e-9):
        n_bad = int(np.argmin(e))
        raise ValueError(
            f"base evaluator is not monotone in L: e({n_bad}) = {e[n_bad]:.3e} < 0"
        )
    return np.maximum(e[:L], 0.0)


def _failure_by_convolution(e: np.ndarray, K: int, L: int) -> float:
    """Sum of coefficients 0..L-1 of the K-fold convolution of e."""
    coeffs = np.zeros(L)
    coeffs[0] = 1.0
    for _ in range(K):
        coeffs = np.convolve(coeffs, e)[:L]
    return float(np.sum(coeffs))


def pl_with_reuse_grid(
    scenarios: Sequence[Scenario],
    levels: Sequence[float],
    base_method: Method = Method.SINGLE_INTEGRAL_ALPHA4,
) -> list[list[float | NonConvergenceError]]:
    """P(at least L BSs detectable across all K bands) for a family, at every level.

    ``levels`` are linear beta/gamma thresholds.  ``scenario.K`` is the
    reuse factor; ``p == q`` is required.  The scenarios share ``L``,
    ``alpha``, ``p`` and ``q``; they may differ in ``K`` and ``lam``.
    ``base_method`` is the analytic evaluator of the per-band ``P_n``.
    That table depends on the level only, so it is evaluated once for
    the whole family, with one :func:`~hearability.analytic.evaluate_grid`
    call per n, and every scenario gets the bits it gets in a family of
    its own.  Each value is the convolution form, which
    ``tests/test_reuse.py`` checks against a brute-force sum over
    per-band count tuples.  At ``K = 1`` the telescoping collapses to
    the single-band value (up to summation rounding).

    Returns:
        Per scenario, per level, P_L across all K bands, or the
        :class:`NonConvergenceError` of the level's first per-band
        ``P_n`` that did not converge.  That error carries one band's
        ``P_n``, not the reuse P_L.
    """
    scenarios = list(scenarios)
    for s in scenarios:
        # Accumulating counts across bands needs one detectability
        # ordering per band.
        check_matched_marks("the reuse recursion", s)
    if not scenarios:
        return []
    if len({(s.L, s.alpha, s.p) for s in scenarios}) > 1:  # q = p in every scenario
        raise ValueError("reuse scenarios must share L, alpha, p and q")
    pmfs = _count_pmfs(scenarios[0], list(levels), base_method)
    return [
        [
            e if isinstance(e, NonConvergenceError)
            else min(1.0, max(0.0, 1.0 - _failure_by_convolution(e, s.K, s.L)))
            for e in pmfs
        ]
        for s in scenarios
    ]
