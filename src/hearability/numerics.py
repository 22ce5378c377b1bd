"""Deterministic numeric kernels: quadrature, root finding, Poisson tails.

Every analytic evaluator in this package reduces to one-dimensional
integrals of smooth integrands, monotone scalar root finds, and
Poisson/Erlang tail evaluations.  The kernels here are deterministic:
identical inputs produce bit-identical floats, which is what makes
re-run reproducibility of the higher layers possible.

Integrands are evaluated in row batches: the callable receives an
``(M, 22)`` ``numpy`` array of abscissae, one quadrature panel per row
(the 15 Gauss-Legendre nodes, then the 7 embedded ones), and must return
the array of values of the same shape.  :func:`integrate_lockstep` runs
many integrals of one integrand family in lockstep and also passes the
integral each row belongs to.  One stacked product per rule reduces a
round's panels with ``np.dot``'s kernel per row, so a grid of integrals
returns the same bits as the integrals one at a time.

Scalar roots come from :func:`find_root_monotone`, Brent's bracketing
method: interpolation steps with a bisection fallback, so a simple crossing
costs a quarter to a third of bisection's evaluations at the same tolerance.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureSpec",
    "Estimate",
    "NonConvergenceError",
    "integrate_lockstep",
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
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_depth: int = 40

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class Estimate:
    """A printed value, its stderr and sample size n if stated, and a flag comment."""

    value: float
    stderr: float | None = None
    n: int | None = None
    comment: str | None = None


class NonConvergenceError(RuntimeError):
    """An integral's failure to converge within its subdivision budget.

    :func:`integrate_lockstep` and the grid evaluators above it return
    it in place of the value, so a failure flags its own entry, and it
    carries the best available estimate so callers can flag the value
    rather than lose it.
    """

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


# Gauss-Legendre node/weight pairs for the embedded 7/15 error estimate:
# the float64 values of ``np.polynomial.legendre.leggauss(7)`` and ``(15)``,
# written out so that no process loads ``numpy.polynomial`` for them (a test
# pins them to leggauss bit for bit).
_X7 = np.array([
    -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427586
])
_W7 = np.array([
    0.12948496616886973, 0.27970539148927687, 0.3818300505051187,
    0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
    0.12948496616886973
])
_X15 = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451, 0.3941513470775634,
    0.5709721726085388, 0.7244177313601701, 0.8482065834104272,
    0.9372733924007058, 0.9879925180204854
])
_W15 = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203
])
_X22 = np.concatenate((_X15, _X7))  # one panel's abscissae on [-1, 1]
_INITIAL_PANELS = 4
_EPS = 2.0 ** -52  # float64 machine epsilon


def _panel_estimates(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    panels: list[tuple[int, float, float, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Integral and error estimates of each ``(integral, lo, hi, depth)`` panel.

    Uses a 15-point Gauss-Legendre rule with the 7-point rule as the
    embedded check; both rules are open, so endpoints are never queried.
    All panels go to ``f`` in one ``(M, 22)`` call, one panel per row, and one
    stacked ``(M, 1, n) @ (n, 1)`` product per rule reduces them; numpy runs
    each row through ``np.dot``'s kernel, so a panel's bits ignore its batch.
    """
    rows, lo, hi, _ = zip(*panels)
    lo, hi = np.array(lo), np.array(hi)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    xs = mid[:, None] + half[:, None] * _X22
    ys = np.asarray(f(xs, np.array(rows)), dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(
            f"integrand returned shape {ys.shape} for input shape {xs.shape}"
        )
    if not np.isfinite(ys).all():
        bad = xs[~np.isfinite(ys)][0]
        raise ValueError(f"integrand returned a non-finite value at x={bad!r}")
    i15 = half * np.matmul(ys[:, None, :15], _W15[:, None])[:, 0, 0]
    i7 = half * np.matmul(ys[:, None, 15:], _W7[:, None])[:, 0, 0]
    return i15, np.abs(i15 - i7)


def integrate_lockstep(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: Sequence[float],
    b: Sequence[float],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[float | NonConvergenceError]:
    """Integrate one integrand family over ``[a[i], b[i]]`` for every i.

    Each integral keeps its own heap of panels: it starts from a few
    equal panels and halves the panel with the largest error estimate
    until its summed error estimate meets
    ``max(abs_tol, rel_tol * |integral|)`` or that panel has been halved
    ``max_depth`` times.  The integrals advance in lockstep: each round,
    every unconverged integral splits its own worst panel, and all new
    panels are evaluated in one call ``f(xs, rows)``.  ``xs`` holds one
    panel's 22 abscissae per row and ``rows[k]`` names the integral that
    row ``k`` belongs to, so ``f`` can look up per-integral parameters.
    Each panel keeps the bits of its own ``np.dot``, so every integral
    returns the bits it would return alone.  Bounds must be finite with
    ``b[i] >= a[i]``; an empty interval integrates to 0.0.

    Returns:
        Per integral, its value, or the :class:`NonConvergenceError`
        carrying its best estimate when it exhausted ``max_depth``.
    """
    if len(b) != len(a):
        raise ValueError(f"got {len(a)} lower and {len(b)} upper bounds")
    results: list = [0.0] * len(a)
    for lo, hi in zip(a, b):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"bounds must be finite, got [{lo}, {hi}]")
        if hi < lo:
            raise ValueError(f"upper bound {hi} is below lower bound {lo}")
    live = [i for i, (lo, hi) in enumerate(zip(a, b)) if hi > lo]
    # Each row of one linspace over arrays has a scalar call's bits.
    edges = np.linspace([a[i] for i in live], [b[i] for i in live],
                        _INITIAL_PANELS + 1, axis=1)
    # Panels are (integral, lo, hi, depth).  Per integral: a heap of (-err,
    # serial, lo, hi, depth), and dicts of estimates and errors by serial.
    pending = [(i, lo, hi, 0) for i, row in zip(live, edges.tolist())
               for lo, hi in zip(row, row[1:])]
    heaps, ests, errs = [[] for _ in a], [{} for _ in a], [{} for _ in a]
    serial = 0
    while pending:
        est, err = _panel_estimates(f, pending)
        for (i, lo, hi, depth), e, r in zip(pending, est.tolist(), err.tolist()):
            heapq.heappush(heaps[i], (-r, serial, lo, hi, depth))
            ests[i][serial], errs[i][serial] = e, r
            serial += 1
        active = dict.fromkeys([panel[0] for panel in pending])
        pending = []
        for i in active:
            total = math.fsum(ests[i].values())  # correctly rounded: order-free
            total_err = math.fsum(errs[i].values())
            target = max(spec.abs_tol, spec.rel_tol * abs(total))
            if total_err <= target:
                results[i] = total
                continue
            _, key, lo, hi, depth = heapq.heappop(heaps[i])
            if depth >= spec.max_depth:
                results[i] = NonConvergenceError(
                    f"quadrature did not converge on [{a[i]}, {b[i]}]: "
                    f"error estimate {total_err:.3e} exceeds target {target:.3e} "
                    f"after depth {depth}",
                    best_estimate=total + 0.0,
                    error_estimate=total_err,
                )
                continue
            del ests[i][key], errs[i][key]
            mid = 0.5 * (lo + hi)
            pending += [(i, lo, mid, depth + 1), (i, mid, hi, depth + 1)]
    return results


def find_root_monotone(
    g: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    """Locate the root of a monotone scalar function by Brent's method.

    Brent's zeroin (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4): each step keeps a bracket ``[b, c]``
    across which ``g`` changes sign, with ``b`` the end of smaller
    ``|g|``, and steps from ``b`` by inverse quadratic interpolation
    through the last three points, or by the secant when only two are
    distinct.  It bisects instead when the interpolated point would not
    fall inside the three quarters of the bracket next to ``b``, or the step
    would not be under half the step before last, so the bracket always
    keeps shrinking, and superlinearly near a simple root.  No step is
    shorter than ``tol1 = tol / 2 + 2 eps |b|`` (``eps = 2**-52``), so the
    bracket collapses once the root is that close.

    Args:
        g: scalar function, monotone on [lo, hi], with a sign change
            (or an exact zero) across the bracket.
        lo: lower bracket endpoint, finite.
        hi: upper bracket endpoint, finite, ``hi > lo``.
        tol: accuracy target, positive.

    Returns:
        A point ``x`` of the bracket that is an exact zero of ``g``, or
        has a sign change of ``g`` within ``tol + 4 eps |x|`` of it.
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
    # a is the previous b, the third interpolation point; d is the last
    # step and e the one before it.
    a, fa, b, fb = lo, g_lo, hi, g_hi
    c, fc = a, fa
    d = e = b - a
    # Brent bounds the evaluations by about k**2 for the k bisections that
    # reach tol, so a bracketed root never meets this cap.
    bisections = max(1, math.ceil(math.log2((hi - lo) / tol)))
    for _ in range((bisections + 2) ** 2):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant through a and b
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b and c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < 3.0 * m * q - abs(tol1 * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = g(b)
        if not math.isfinite(fb):
            raise ValueError(f"function not finite at x={b}")
        if fb == 0.0:
            return b
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    raise RuntimeError(  # pragma: no cover - Brent's bound rules it out
        f"root find on [{lo}, {hi}] did not converge to tol={tol}"
    )


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
