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
which holds when muting and load coincide (``p = q``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analytic import Method, evaluate
from .model import Scenario
from .numerics import QuadratureSpec

__all__ = ["ReuseQuery", "pl_with_reuse", "exact_count_pmf"]


@dataclass(frozen=True)
class ReuseQuery:
    """A reuse evaluation request.

    Attributes:
        scenario: network parameters; ``scenario.K`` is the reuse
            factor and ``p == q`` is required.
        base_method: analytic evaluator used for the per-band ``P_n``
            values at density ``lam / K``.
        quad: quadrature control for integral-backed base methods.
    """

    scenario: Scenario
    base_method: Method = Method.SINGLE_INTEGRAL_ALPHA4
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self) -> None:
        if self.scenario.p != self.scenario.q:
            raise ValueError(
                "reuse accumulation needs one detectability ordering per band, "
                f"which requires p = q; got p={self.scenario.p}, q={self.scenario.q}"
            )
        if self.base_method == Method.PROC_GAIN_BOUND:
            raise ValueError("base_method must evaluate a probability")


def _band_pl(query: ReuseQuery, n: int) -> float:
    """Single-band P_n at the thinned density lam / K."""
    if n == 0:
        return 1.0
    scen = query.scenario.replace(
        L=n, K=1, lam=query.scenario.lam / query.scenario.K
    )
    return evaluate(query.base_method, scen, query.quad)


def exact_count_pmf(query: ReuseQuery) -> np.ndarray:
    """P(exactly n BSs detectable in one band) for n = 0 .. L-1.

    ``e(n) = P_n - P_{n+1}`` with ``P_0 = 1``; counts of ``L`` or more
    never contribute to failure, so the vector stops at ``L - 1``.
    Negative differences beyond rounding noise indicate a broken base
    evaluator and raise; rounding-level negatives are clamped to 0.
    """
    L = query.scenario.L
    levels = [_band_pl(query, n) for n in range(L + 1)]
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


def pl_with_reuse(query: ReuseQuery) -> float:
    """P(at least L BSs detectable across all K bands).

    Uses the convolution form; ``tests/test_reuse.py`` checks it against
    a brute-force sum over per-band count tuples.
    At ``K = 1`` the telescoping collapses and the single-band value is
    returned (up to summation rounding).
    """
    scen = query.scenario
    K, L = scen.K, scen.L
    e = exact_count_pmf(query)
    failure = _failure_by_convolution(e, K, L)
    return min(1.0, max(0.0, 1.0 - failure))
