"""Deterministic numeric kernels: quadrature, root finding, Poisson tails.

Every analytic evaluator in this package reduces to one-dimensional
integrals of smooth integrands, monotone scalar root finds, and
Poisson/Erlang tail evaluations.  The kernels here are deterministic:
identical inputs produce bit-identical floats, which is what makes
re-run reproducibility of the higher layers possible.

Integrands are evaluated in batches: the callable passed to
:func:`integrate_adaptive` receives a 1-D ``numpy`` array of abscissae
and must return the corresponding array of values.  Wrap a scalar-only
function with ``numpy.vectorize`` if needed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureSpec",
    "NonConvergenceError",
    "integrate_adaptive",
    "find_root_monotone",
    "poisson_cdf",
    "erlang_quantile",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits shared by all quadrature-backed evaluators.

    Attributes:
        rel_tol: relative error target for the whole integral.
        abs_tol: absolute error floor; the effective target is
            ``max(abs_tol, rel_tol * |estimate|)``.
        max_depth: maximum number of times any one subinterval may be
            halved before the integration is declared non-convergent.
        tail_quantile: quantile used by callers to truncate integrals
            over unbounded distance distributions.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_depth: int = 40
    tail_quantile: float = 1.0 - 1e-9

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if not (0.5 < self.tail_quantile < 1.0):
            raise ValueError(
                f"tail_quantile must lie in (0.5, 1), got {self.tail_quantile}"
            )


DEFAULT_QUADRATURE = QuadratureSpec()


class NonConvergenceError(RuntimeError):
    """Raised when adaptive quadrature exhausts its subdivision budget.

    Carries the best available estimate so callers can flag the value
    rather than lose it.
    """

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


# Gauss-Legendre node/weight pairs for the embedded 7/15 error estimate.
# leggauss returns machine-precision values, so no tabulated constants.
_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X15, _W15 = np.polynomial.legendre.leggauss(15)
_INITIAL_PANELS = 4


def _panel_estimate(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float
) -> tuple[float, float]:
    """Integral estimate and error estimate for f over [a, b].

    Uses a 15-point Gauss-Legendre rule with the 7-point rule as the
    embedded check; both rules are open, so endpoints are never queried.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = np.concatenate((mid + half * _X15, mid + half * _X7))
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(
            f"integrand returned shape {ys.shape} for input shape {xs.shape}"
        )
    bad = ~np.isfinite(ys)
    if np.any(bad):
        raise ValueError(
            f"integrand returned a non-finite value at x={xs[bad][0]!r}"
        )
    i15 = half * float(np.dot(ys[:15], _W15))
    i7 = half * float(np.dot(ys[15:], _W7))
    return i15, abs(i15 - i7)


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Integrate ``f`` over ``[a, b]`` to the tolerances in ``spec``.

    The interval is split into a few starting panels; the panel with the
    largest error estimate is repeatedly halved until the summed error
    estimate meets ``max(abs_tol, rel_tol * |integral|)``.  Exhausting
    ``max_depth`` on the worst panel raises :class:`NonConvergenceError`
    carrying the best estimate.

    Args:
        f: vectorized integrand; receives an array of abscissae strictly
            inside (a, b) and returns an array of finite values.
        a: lower bound, finite.
        b: upper bound, finite, with ``b >= a``.
        spec: tolerances and subdivision limits.

    Returns:
        The integral estimate (0.0 when ``a == b``).
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"bounds must be finite, got [{a}, {b}]")
    if b < a:
        raise ValueError(f"upper bound {b} is below lower bound {a}")
    if b == a:
        return 0.0

    edges = np.linspace(a, b, _INITIAL_PANELS + 1)
    heap: list[tuple[float, int, float, float, float, float, int]] = []
    serial = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        est, err = _panel_estimate(f, float(lo), float(hi))
        heapq.heappush(heap, (-err, serial, float(lo), float(hi), est, err, 0))
        serial += 1

    while True:
        total = math.fsum(item[4] for item in heap)
        total_err = math.fsum(item[5] for item in heap)
        target = max(spec.abs_tol, spec.rel_tol * abs(total))
        if total_err <= target:
            return total
        neg_err, _, lo, hi, est, err, depth = heapq.heappop(heap)
        if depth >= spec.max_depth:
            raise NonConvergenceError(
                f"quadrature did not converge on [{a}, {b}]: "
                f"error estimate {total_err:.3e} exceeds target {target:.3e} "
                f"after depth {depth}",
                best_estimate=total + 0.0,
                error_estimate=total_err,
            )
        mid = 0.5 * (lo + hi)
        for sub_lo, sub_hi in ((lo, mid), (mid, hi)):
            est_s, err_s = _panel_estimate(f, sub_lo, sub_hi)
            heapq.heappush(
                heap, (-err_s, serial, sub_lo, sub_hi, est_s, err_s, depth + 1)
            )
            serial += 1


def find_root_monotone(
    g: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    """Locate the root of a monotone scalar function by bisection.

    Args:
        g: scalar function, monotone on [lo, hi], with a sign change
            (or an exact zero) across the bracket.
        lo: lower bracket endpoint, finite.
        hi: upper bracket endpoint, finite, ``hi > lo``.
        tol: final bracket width, positive.

    Returns:
        The bracket midpoint once the bracket is narrower than ``tol``.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    g_lo = g(lo)
    g_hi = g(hi)
    if not (math.isfinite(g_lo) and math.isfinite(g_hi)):
        raise ValueError(
            f"function not finite at bracket endpoints: g({lo})={g_lo}, g({hi})={g_hi}"
        )
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0.0) == (g_hi > 0.0):
        raise ValueError(
            f"bracket [{lo}, {hi}] does not straddle a root: "
            f"g(lo)={g_lo:.6g}, g(hi)={g_hi:.6g}"
        )
    # Bisection halves the bracket each step, so the iteration count is
    # bounded by the bits between the bracket width and tol.
    max_iter = max(1, math.ceil(math.log2((hi - lo) / tol))) + 4
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if not math.isfinite(g_mid):
            raise ValueError(f"function not finite at x={mid}")
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == (g_hi > 0.0):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def poisson_cdf(k: int, mu: float) -> float:
    """P(N <= k) for N Poisson-distributed with mean ``mu``.

    Accumulates the pmf through a log-space recurrence, so neither
    factorials nor ``exp(-mu)`` can overflow or underflow prematurely
    for k well beyond 10**3.

    Args:
        k: nonnegative integer.
        mu: nonnegative mean.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    if not (mu >= 0.0 and math.isfinite(mu)):
        raise ValueError(f"mu must be nonnegative and finite, got {mu}")
    if mu == 0.0:
        return 1.0
    log_mu = math.log(mu)
    log_term = -mu  # log pmf(0)
    log_sum = log_term
    for level in range(1, int(k) + 1):
        log_term += log_mu - math.log(level)
        log_sum = np.logaddexp(log_sum, log_term)
    return float(min(1.0, math.exp(log_sum)))


@lru_cache(maxsize=256)
def erlang_quantile(shape: int, rate: float, prob: float) -> float:
    """Quantile of the Erlang distribution with integer shape.

    The Erlang CDF is evaluated through its Poisson-tail form
    ``1 - poisson_cdf(shape - 1, rate * x)`` and inverted with
    :func:`find_root_monotone`.  The upper bracket starts at the mean
    and doubles until it covers the requested probability.  Results are
    cached: callers ask for the same few tail quantiles at every point.

    Args:
        shape: integer shape parameter, >= 1.
        rate: rate parameter, > 0.
        prob: probability in (0, 1).
    """
    if not isinstance(shape, (int, np.integer)) or shape < 1:
        raise ValueError(f"shape must be a positive integer, got {shape!r}")
    if not (rate > 0.0 and math.isfinite(rate)):
        raise ValueError(f"rate must be positive and finite, got {rate}")
    if not (0.0 < prob < 1.0):
        raise ValueError(f"prob must lie in (0, 1), got {prob}")

    def cdf(x: float) -> float:
        return 1.0 - poisson_cdf(shape - 1, rate * x)

    hi = shape / rate
    for _ in range(200):
        if cdf(hi) >= prob:
            break
        hi *= 2.0
    else:  # pragma: no cover - would need prob within 2**-200 of 1
        raise ValueError(f"could not bracket quantile for prob={prob}")
    return find_root_monotone(lambda x: cdf(x) - prob, 0.0, hi, tol=1e-13 * hi)
