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
reads the density, so the per-band ``P_n`` depend on ``beta`` and
``gamma`` only: :func:`pl_with_reuse_grid` evaluates each
distinct point of a family of scenarios once per level ``n``, for every
``K``.  One scenario is a family of one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .analytic import Method, evaluate_grid
from .model import Scenario
from .numerics import NonConvergenceError
from .simulate import check_matched_marks

__all__ = ["pl_with_reuse_grid"]


def _count_pmfs(scenarios: list[Scenario], base_method: Method) -> list:
    """Per scenario, P(exactly n BSs detectable in one band) for n = 0 .. L-1.

    ``e(n) = P_n - P_{n+1}`` with ``P_0 = 1`` and ``P_n`` the single-band
    value at the thinned density ``lam / K``; counts of ``L`` or more
    never contribute to failure, so the vector stops at ``L - 1``.
    Negative differences beyond rounding noise indicate a broken base
    evaluator and raise; rounding-level negatives are clamped to 0.

    One grid call per level n evaluates each distinct ``(beta, gamma)``
    once for all the scenarios, whatever their ``K`` and ``lam``.  A point
    whose level ``P_n`` does not converge gets that level's
    :class:`NonConvergenceError` instead, and leaves the later levels.
    """
    L = scenarios[0].L
    if len({(s.L, s.alpha, s.p) for s in scenarios}) > 1:  # q = p in every scenario
        raise ValueError("reuse scenarios must share L, alpha, p and q")
    points = {(s.beta, s.gamma): s for s in scenarios}
    levels: dict = {pt: [1.0] for pt in points}  # P_0 = 1
    for n in range(1, L + 1):
        live = [pt for pt, lv in levels.items() if isinstance(lv, list)]
        # The band of one scenario at each point: density lam / K, one band.
        bands = [s.replace(L=n, K=1, lam=s.lam / s.K) for s in map(points.get, live)]
        for pt, value in zip(live, evaluate_grid(base_method, bands)):
            if isinstance(value, NonConvergenceError):
                levels[pt] = value
            else:
                levels[pt].append(value)
    for pt, lv in levels.items():
        levels[pt] = lv if isinstance(lv, NonConvergenceError) else _pmf(lv, L)
    return [levels[s.beta, s.gamma] for s in scenarios]


def _pmf(levels: list[float], L: int) -> np.ndarray:
    e = np.diff(-np.asarray(levels))  # e[n] = levels[n] - levels[n+1]
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
    base_method: Method = Method.SINGLE_INTEGRAL_ALPHA4,
) -> list[float | NonConvergenceError]:
    """P(at least L BSs detectable across all K bands) at every scenario of a family.

    ``scenario.K`` is the reuse factor; ``p == q`` is required.  The
    scenarios share ``L``, ``alpha``, ``p`` and ``q``; they differ in
    ``beta`` and may differ in ``gamma``, ``K`` and ``lam``.
    ``base_method`` is the analytic evaluator of the per-band ``P_n`` at
    density ``lam / K``.  That table depends on beta and gamma only, so
    each distinct point is evaluated once for the whole family, with one
    :func:`~hearability.analytic.evaluate_grid` call per level n, and
    every scenario gets the bits it gets in a family of its own.  Each
    value is the convolution form, which ``tests/test_reuse.py`` checks
    against a brute-force sum over per-band count tuples.  At ``K = 1``
    the telescoping collapses to the single-band value (up to summation
    rounding).

    Returns:
        Per scenario, P_L across all K bands, or the
        :class:`NonConvergenceError` of the point's first per-band level
        that did not converge.  That error carries one band's ``P_n``,
        not the reuse P_L.
    """
    scenarios = list(scenarios)
    for s in scenarios:
        # Accumulating counts across bands needs one detectability
        # ordering per band.
        check_matched_marks("the reuse recursion", s)
    if not scenarios:
        return []
    out: list = []
    for s, e in zip(scenarios, _count_pmfs(scenarios, base_method)):
        if isinstance(e, NonConvergenceError):
            out.append(e)
            continue
        failure = _failure_by_convolution(e, s.K, s.L)
        out.append(min(1.0, max(0.0, 1.0 - failure)))
    return out
