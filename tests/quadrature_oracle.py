"""Scalar reference implementations of the quadrature kernels.

These are the one-integral adaptive quadrature loop, the one-panel
boundary solve and the two quadrature-backed P_L evaluators as they
stood before the lockstep engine, kept verbatim apart from their names,
the beta/gamma level, which is now an argument beside the scenario,
the tail cut of the R_L law, which is now the analytic constant
``_TAIL_QUANTILE`` and not a quadrature field, and the runtime
monotonicity probe, whose property is now proved in
``hearability.analytic._boundary_t`` and checked in ``test_analytic.py``.
The tests assert that the lockstep engine and the grid evaluators
reproduce them bit for bit.
"""

import heapq
import math
from typing import Callable

import numpy as np

from one_point import pl

from hearability.analytic import (
    _TAIL_QUANTILE,
    Method,
    _clamp01,
    _floor_with_tol,
)
from hearability.model import Scenario, pmf_omega
from hearability.numerics import (
    DEFAULT_QUADRATURE,
    NonConvergenceError,
    QuadratureSpec,
    erlang_quantile,
)

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


def oracle_integrate_adaptive(
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


# Bracket of s = ln(t/r) for the boundary solve, as in hearability.analytic.  The lower end
# truncates a region of conditional mass below 1e-17, far under
# quadrature tolerance.  The upper end is the largest s < 0, where
# t = r to double precision and the ratio expm1(b s)/expm1(2 s) is
# still defined.
_S_LO = math.log(1e-9)
_S_HI = -np.finfo(float).tiny
_NEWTON_TOL = 1e-14
_NEWTON_MAX_ITER = 64


def oracle_boundary_t(r: np.ndarray, omega: int, alpha: float, q: float, gb: float):
    """Dominant-interferer distance at which the SIR crosses ``beta/gamma``.

    With ``u = t/r`` the crossing solves ``H(u) = c(r)``, where
    ``H(u) = u**-alpha + A (u**b - 1)/(u**2 - 1)``, ``b = 2 - alpha``,
    ``A = 2 (omega-1)/b`` and ``c(r) = gamma/beta - 2 q r**2/(alpha-2)``;
    ``gb`` is ``gamma/beta``.  H falls from infinity to ``H(1) = omega``,
    so the root is unique.
    ``omega = 1`` has the closed form ``u = c**(-1/alpha)``.  Otherwise
    Newton runs in ``s = ln u``, where the middle ratio is
    ``expm1(b s)/expm1(2 s)`` and stays accurate as ``u -> 1``.  It
    starts from ``u0 = (c - omega + 1)**(-1/alpha)``, a lower bound
    because the middle term is at least ``omega - 1``, and keeps a
    bracket per element: a step that leaves it becomes a bisection step.
    Elements with ``c <= omega`` (at or beyond the support limit)
    return ``t = r``.
    """
    c = gb - (2.0 * q / (alpha - 2.0)) * (r * r)
    s = np.clip(-np.log(np.maximum(c - (omega - 1), 1.0)) / alpha, _S_LO, _S_HI)
    if omega == 1:
        return r * np.exp(s)
    b = 2.0 - alpha
    coef = 2.0 * (omega - 1) / b
    lo = np.full_like(s, _S_LO)
    hi = np.full_like(s, _S_HI)
    for _ in range(_NEWTON_MAX_ITER):
        far = np.exp(-alpha * s)
        em_2 = np.expm1(2.0 * s)
        ratio = np.expm1(b * s) / em_2
        g = far + coef * ratio - c
        # d(ratio)/ds = u**2 (b u**-alpha - 2 ratio) / expm1(2 s).
        slope = -alpha * far + coef * (em_2 + 1.0) * (b * far - 2.0 * ratio) / em_2
        # g falls with s: positive left of the root, negative right of it.
        lo = np.where(g > 0.0, s, lo)
        hi = np.where(g < 0.0, s, hi)
        s_new = s - g / slope
        inside = (s_new >= lo) & (s_new <= hi)
        s_new = np.where(inside, s_new, 0.5 * (lo + hi))
        converged = np.abs(s_new - s) <= _NEWTON_TOL
        s = s_new
        if converged.all():
            return r * np.exp(s)
    raise RuntimeError(
        f"boundary solve did not converge in {_NEWTON_MAX_ITER} iterations for "
        f"alpha={alpha}, omega={omega}, q={q}, gamma/beta={gb}"
    )


def oracle_pl_double_integral(
    scenario: Scenario, level: float, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Dominant-interferer approximation of P_L at ``level``, general path loss.

    For each count ``omega >= 1`` of active near interferers, the
    detection event is inverted into a threshold on the nearest active
    interferer distance; its conditional tail has a closed form, leaving
    one smooth outer integral over the L-th BS distance.  The
    ``omega = 0`` term is the perfect-coordination value.  The nominal
    inner/outer double integral therefore costs a single quadrature per
    ``omega``.
    """
    L, alpha, p, q = scenario.L, scenario.alpha, scenario.p, scenario.q
    gb = 1.0 / level
    total = pmf_omega(0, L, p) * pl(Method.PERFECT_COORD, scenario, level)
    if L < 2:
        return _clamp01(total)
    # Normalized coordinates (lam * pi = 1): an exact change of variables,
    # so the result is independent of the density.
    r_tail = math.sqrt(erlang_quantile(L, 1.0, _TAIL_QUANTILE))
    log_norm = math.log(2.0) - math.lgamma(L)
    for omega in range(1, L):
        weight = pmf_omega(omega, L, p)
        if weight == 0.0 or gb <= omega:
            continue
        if q > 0.0:
            # Beyond this radius even a vanishing dominant term cannot
            # lift the SIR over the threshold.
            r_star = math.sqrt((alpha - 2.0) * (gb - omega) / (2.0 * q))
        else:
            r_star = math.inf
        upper = min(r_star * (1.0 - 1e-12), r_tail)
        if upper <= 0.0:
            continue

        def integrand(r_arr: np.ndarray, _omega: int = omega) -> np.ndarray:
            t = oracle_boundary_t(r_arr, _omega, alpha, q, gb)
            mass = np.maximum(0.0, (r_arr * r_arr - t * t) / (r_arr * r_arr)) ** _omega
            s = r_arr * r_arr
            log_pdf = -s + L * np.log(s) + log_norm - np.log(r_arr)
            return mass * np.exp(log_pdf)

        total += weight * oracle_integrate_adaptive(integrand, 0.0, upper, quad)
    return _clamp01(total)


def oracle_pl_alpha4(
    scenario: Scenario, level: float, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Single-integral dominant-interferer approximation at ``level``, exact at alpha = 4.

    At ``alpha = 4`` the inner threshold inversion of
    ``DoubleIntegral`` is a quadratic in ``(R_L/R1_hat)**2``, so
    the double integral collapses algebraically (no extra approximation)
    to one integral against the Erlang law of ``pi * lam * R_L**2``.
    """
    if scenario.alpha != 4.0:
        raise ValueError(
            f"this evaluator requires alpha = 4 exactly, got {scenario.alpha}"
        )
    L, p, q = scenario.L, scenario.p, scenario.q
    gb = 1.0 / level
    total = pmf_omega(0, L, p) * pl(Method.PERFECT_COORD, scenario, level)
    if L < 2:
        return _clamp01(total)
    s_tail = erlang_quantile(L, 1.0, _TAIL_QUANTILE)
    log_norm = -math.lgamma(L)
    chi = min(L - 1, _floor_with_tol(gb))
    for omega in range(1, chi + 1):
        weight = pmf_omega(omega, L, p)
        if weight == 0.0:
            continue
        s_up = (gb - omega) / q if q > 0.0 else math.inf
        upper = min(s_up, s_tail)
        if upper <= 0.0:
            continue

        def integrand(s: np.ndarray, _omega: int = omega) -> np.ndarray:
            # y_star >= 1 on the domain; the sqrt argument is the
            # quadratic discriminant of the threshold inversion.
            y_star = np.sqrt(gb - q * s + (_omega - 1) ** 2 / 4.0) - (_omega - 1) / 2.0
            base = np.maximum(0.0, 1.0 - 1.0 / y_star)
            log_pdf = -s + (L - 1) * np.log(s) + log_norm
            return base**_omega * np.exp(log_pdf)

        total += weight * oracle_integrate_adaptive(integrand, 0.0, upper, quad)
    return _clamp01(total)
