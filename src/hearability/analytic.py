"""Closed-form bounds and integral approximations of P_L.

``P_L`` is the probability that a device detects all of its ``L``
nearest BSs, the quantity that governs whether network-based
positioning has enough anchors.  This module provides, in increasing
order of fidelity and cost:

* an upper bound from dropping all interference beyond the L-th BS
  (:func:`pl_upper_bound`) and its inversion into the minimum
  processing gain that guarantees a target ``P_L``
  (:func:`min_processing_gain`);
* a closed form for perfectly coordinated participants, ``p = 0``
  (:func:`pl_perfect_coord`);
* a dominant-interferer approximation that keeps the nearest active
  interferer exact and replaces the remaining interference with its
  conditional mean (:func:`pl_double_integral`, with the reduced
  single-integral forms :func:`pl_single_integral_general`,
  :func:`pl_alpha4`, and the near-field closed form
  :func:`pl_nearfield_alpha4`).

Detection of the bottleneck BS succeeds when its SIR, after the
processing gain, clears the demodulation threshold:
``SIR >= beta / gamma``.

Every evaluator is invariant to the BS density: the integral forms are
computed in coordinates normalized so ``lam * pi = 1``, which an exact
change of variables permits, so identical inputs at different densities
return bit-identical values.

A P_L curve over a beta/gamma grid comes from the grid evaluator
:func:`evaluate_grid`.  It integrates all grid points of the
quadrature-backed forms in lockstep, one pass per interferer count, and
returns each point's value or its own nonconvergence.  A grid evaluation
is bit-identical to one-point calls; :func:`evaluate` and the ``pl_*``
functions are such calls.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .model import Scenario, pmf_omega
from .numerics import (
    DEFAULT_QUADRATURE,
    NonConvergenceError,
    QuadratureSpec,
    erlang_quantile,
    find_root_monotone,
    integrate_lockstep,
    poisson_cdf,
    value_or_raise,
)

__all__ = [
    "Method",
    "mean_i1",
    "mean_i2",
    "pl_upper_bound",
    "min_processing_gain",
    "pl_perfect_coord",
    "pl_double_integral",
    "pl_single_integral_general",
    "pl_alpha4",
    "pl_nearfield_alpha4",
    "evaluate",
    "evaluate_grid",
]


class Method(str, enum.Enum):
    """Tags for the analytic evaluators, also used as CSV labels."""

    UPPER_BOUND = "UpperBound"
    PROC_GAIN_BOUND = "ProcGainBound"
    PERFECT_COORD = "PerfectCoord"
    DOUBLE_INTEGRAL = "DoubleIntegral"
    SINGLE_INTEGRAL_GENERAL = "SingleIntegralGeneral"
    SINGLE_INTEGRAL_ALPHA4 = "SingleIntegralAlpha4"
    NEAR_FIELD_ALPHA4 = "NearFieldAlpha4"


def _clamp01(value: float) -> float:
    """Clamp to [0, 1], absorbing quadrature rounding at the 1e-12 level."""
    return min(1.0, max(0.0, value))


def _floor_with_tol(x: float) -> int:
    """Floor that forgives representation error just below an integer."""
    nearest = round(x)
    if abs(x - nearest) <= 1e-12 * max(1.0, abs(x)):
        return int(nearest)
    return int(math.floor(x))


def mean_i1(r1_hat: float, rl: float, omega: int, scenario: Scenario) -> float:
    """Mean interference from active participants beyond the nearest one.

    Conditioned on the L-th BS distance ``rl``, the nearest active
    participant distance ``r1_hat`` and ``omega`` active participants,
    the remaining ``omega - 1`` actives are uniform on the annulus
    between the two radii; averaging the power law over that annulus
    gives the closed form.  Returns 0 for ``omega <= 1``.
    """
    if not isinstance(omega, (int, np.integer)) or omega < 0:
        raise ValueError(f"omega must be a nonnegative integer, got {omega!r}")
    if not (rl > 0.0 and math.isfinite(rl)):
        raise ValueError(f"rl must be positive and finite, got {rl}")
    if not (0.0 < r1_hat <= rl):
        raise ValueError(f"r1_hat must lie in (0, rl], got {r1_hat} with rl={rl}")
    if omega <= 1:
        return 0.0
    alpha = scenario.alpha
    power = scenario.tx_power
    if rl - r1_hat <= 1e-9 * rl:
        # Removable singularity: the annulus degenerates to the circle.
        return power * (omega - 1) * rl**-alpha
    num = rl ** (2.0 - alpha) - r1_hat ** (2.0 - alpha)
    den = rl * rl - r1_hat * r1_hat
    return 2.0 * power * (omega - 1) / (2.0 - alpha) * num / den


def mean_i2(rl: float, scenario: Scenario) -> float:
    """Mean interference from load-q BSs beyond the L-th, given R_L = rl.

    Campbell's theorem over the thinned PPP outside radius ``rl``.
    """
    if not (rl > 0.0 and math.isfinite(rl)):
        raise ValueError(f"rl must be positive and finite, got {rl}")
    alpha = scenario.alpha
    return (
        2.0
        * scenario.tx_power
        * math.pi
        * scenario.q
        * scenario.lam
        / (alpha - 2.0)
        * rl ** (2.0 - alpha)
    )


def pl_upper_bound(scenario: Scenario) -> float:
    """Closed-form upper bound on P_L from near-field interference only.

    Ignoring all interference beyond the L-th BS and lower-bounding each
    active participant's distance by the bottleneck distance yields, for
    ``omega`` active interferers, the detection probability
    ``(1 - (gamma/beta - (omega-1))**(-2/alpha))**omega``; averaging
    over the binomial law of ``omega`` up to
    ``chi = min(L-1, floor(gamma/beta))`` gives the bound.
    """
    gb = scenario.gamma / scenario.beta
    L, alpha, p = scenario.L, scenario.alpha, scenario.p
    chi = min(L - 1, _floor_with_tol(gb))
    total = 0.0
    for omega in range(0, chi + 1):
        weight = pmf_omega(omega, L, p)
        if weight == 0.0:
            continue
        if omega == 0:
            total += weight
            continue
        margin = gb - (omega - 1)
        base = 1.0 - margin ** (-2.0 / alpha)
        total += weight * max(0.0, base) ** omega
    return _clamp01(total)


def min_processing_gain(target_pl: float, L: int, alpha: float, beta: float) -> float:
    """Smallest processing gain for which the upper bound reaches target_pl.

    Inverts the uncoordinated (``p = 1``) near-field bound, so the
    result is necessary: below this gain not even the optimistic bound
    attains the target.  Returned on linear scale.
    """
    if not (0.0 < target_pl < 1.0):
        raise ValueError(f"target_pl must lie in (0, 1), got {target_pl}")
    if not isinstance(L, (int, np.integer)) or L < 2:
        raise ValueError(f"L must be an integer >= 2, got {L!r}")
    if not (alpha > 2.0):
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta}")
    return beta * (
        (1.0 - target_pl ** (1.0 / (L - 1))) ** (-alpha / 2.0) + L - 2.0
    )


def pl_perfect_coord(scenario: Scenario) -> float:
    """P_L when participants are perfectly muted (p = 0).

    Only the load-q far field interferes; replacing that interference by
    its conditional mean turns the detection event into a Poisson tail:
    ``1 - poisson_cdf(L - 1, (alpha-2) * gamma / (2 q beta))``.
    Returns 1 for ``q = 0`` (no interference at all).
    """
    if scenario.q == 0.0:
        return 1.0
    mu = (scenario.alpha - 2.0) * scenario.gamma / (2.0 * scenario.q * scenario.beta)
    return _clamp01(1.0 - poisson_cdf(scenario.L - 1, mu))


# --- dominant-interferer machinery (normalized coordinates, lam*pi = 1) ---


def _sir_normalized(t, r, omega: int, alpha: float, q: float):
    """Approximate SIR of the L-th BS in normalized coordinates.

    ``t`` is the nearest-active-interferer distance, ``r`` the L-th BS
    distance, both scaled so that ``lam * pi = 1``.  The nearest active
    interferer is kept exact; the other ``omega - 1`` actives and the
    load-q far field enter through their conditional means.
    Elementwise over arrays; monotone increasing in ``t``.
    """
    num = r**-alpha
    t_term = t**-alpha
    if omega >= 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            diff2 = r * r - t * t
            j1_raw = (
                (2.0 * (omega - 1) / (2.0 - alpha))
                * (r ** (2.0 - alpha) - t ** (2.0 - alpha))
                / diff2
            )
        j1 = np.where(diff2 <= 1e-12 * r * r, (omega - 1) * num, j1_raw)
    else:
        j1 = 0.0
    j2 = (2.0 * q / (alpha - 2.0)) * r ** (2.0 - alpha)
    return num / (t_term + j1 + j2)


@lru_cache(maxsize=256)
def _verify_sir_monotone(alpha: float, omega: int, q: float) -> None:
    """Assert the normalized SIR grows with the dominant distance.

    The indicator inversion inside :func:`pl_double_integral` relies on
    this direction; it is checked numerically on a coarse grid the first
    time each parameter combination is used, and a violation aborts with
    a diagnostic rather than silently mis-integrating.
    """
    for r in (0.03, 0.3, 1.0, 3.0, 10.0):
        t = np.linspace(1e-6 * r, r * (1.0 - 1e-9), 257)
        sir = _sir_normalized(t, r, omega, alpha, q)
        drops = np.diff(sir) < -1e-12 * np.abs(sir[:-1])
        if np.any(drops):
            i = int(np.argmax(drops))
            raise RuntimeError(
                "SIR is not monotone in the dominant-interferer distance for "
                f"alpha={alpha}, omega={omega}, q={q}: decrease near t={t[i]:.6g} "
                f"of r={r}; the indicator inversion is invalid here"
            )


# Bracket of s = ln(t/r) for the boundary solve.  The lower end
# truncates a region of conditional mass below 1e-17, far under
# quadrature tolerance.  The upper end is the largest s < 0, where
# t = r to double precision and the ratio expm1(b s)/expm1(2 s) is
# still defined.
_S_LO = math.log(1e-9)
_S_HI = -np.finfo(float).tiny
_NEWTON_TOL = 1e-14
_NEWTON_MAX_ITER = 64


def _boundary_t(r: np.ndarray, omega: int, alpha: float, q: float, gb: float):
    """Dominant-interferer distance at which the SIR crosses ``beta/gamma``.

    With ``u = t/r`` the crossing solves ``H(u) = c(r)``, where
    ``H(u) = u**-alpha + A (u**b - 1)/(u**2 - 1)``, ``b = 2 - alpha``,
    ``A = 2 (omega-1)/b`` and ``c(r) = gamma/beta - 2 q r**2/(alpha-2)``;
    ``gb`` is ``gamma/beta``.  H falls from infinity to ``H(1) = omega``,
    so the root is unique (:func:`_verify_sir_monotone` guards that).
    ``omega = 1`` has the closed form ``u = c**(-1/alpha)``.  Otherwise
    Newton runs in ``s = ln u``, where the middle ratio is
    ``expm1(b s)/expm1(2 s)`` and stays accurate as ``u -> 1``.  It
    starts from ``u0 = (c - omega + 1)**(-1/alpha)``, a lower bound
    because the middle term is at least ``omega - 1``, and keeps a
    bracket per element: a step that leaves it becomes a bisection step.
    Elements with ``c <= omega`` (at or beyond the support limit)
    return ``t = r``.

    The last axis holds one quadrature panel (a 1-D array is one panel).
    A panel stops updating once all of its elements have converged, so
    each panel takes the iterates it would take alone.
    """
    c = gb - (2.0 * q / (alpha - 2.0)) * (r * r)
    s = np.clip(-np.log(np.maximum(c - (omega - 1), 1.0)) / alpha, _S_LO, _S_HI)
    if omega == 1:
        return r * np.exp(s)
    b = 2.0 - alpha
    coef = 2.0 * (omega - 1) / b
    shape = s.shape
    out = s.reshape(-1, shape[-1])
    panels = np.arange(len(out))  # panels still iterating
    s, c = out, c.reshape(out.shape)
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
        converged = (np.abs(s_new - s) <= _NEWTON_TOL).all(axis=1)
        s = s_new
        if converged.any():
            out[panels[converged]] = s[converged]
            going = ~converged
            panels, s, c = panels[going], s[going], c[going]
            lo, hi = lo[going], hi[going]
            if not panels.size:
                return r * np.exp(out.reshape(shape))
    raise RuntimeError(
        f"boundary solve did not converge in {_NEWTON_MAX_ITER} iterations for "
        f"alpha={alpha}, omega={omega}, q={q}, gamma/beta={gb}"
    )


def _add_terms(totals: list, rows: list[int], weight: float, values: list) -> None:
    """Add ``weight`` times each row's integral; a failure replaces the total."""
    for k, value in zip(rows, values):
        failed = isinstance(value, NonConvergenceError)
        totals[k] = value if failed else totals[k] + weight * value


def _finish(totals: list) -> list:
    return [
        t if isinstance(t, NonConvergenceError) else _clamp01(t) for t in totals
    ]


def _double_integral_grid(points: list[Scenario], quad: QuadratureSpec) -> list:
    """:func:`pl_double_integral` at every grid point, one lockstep pass per omega."""
    first = points[0]
    L, alpha, p, q = first.L, first.alpha, first.p, first.q
    gbs = [1.0 / (s.beta / s.gamma) for s in points]
    totals: list = [pmf_omega(0, L, p) * pl_perfect_coord(s) for s in points]
    if L < 2:
        return _finish(totals)
    # Normalized coordinates (lam * pi = 1): an exact change of variables,
    # so the result is independent of the density.
    r_tail = math.sqrt(erlang_quantile(L, 1.0, quad.tail_quantile))
    log_norm = math.log(2.0) - math.lgamma(L)
    for omega in range(1, L):
        weight = pmf_omega(omega, L, p)
        rows = [
            k for k, gb in enumerate(gbs)
            if gb > omega and not isinstance(totals[k], NonConvergenceError)
        ]
        if weight == 0.0 or not rows:
            continue
        _verify_sir_monotone(alpha, omega, q)
        # Beyond r_star even a vanishing dominant term cannot lift the SIR
        # over the threshold.
        r_stars = [
            math.sqrt((alpha - 2.0) * (gbs[k] - omega) / (2.0 * q))
            if q > 0.0 else math.inf
            for k in rows
        ]
        uppers = [min(r_star * (1.0 - 1e-12), r_tail) for r_star in r_stars]
        gb_rows = np.array([gbs[k] for k in rows])[:, None]

        def integrand(r_arr: np.ndarray, at: np.ndarray, _omega: int = omega):
            t = _boundary_t(r_arr, _omega, alpha, q, gb_rows[at])
            mass = np.maximum(0.0, (r_arr * r_arr - t * t) / (r_arr * r_arr)) ** _omega
            s = r_arr * r_arr
            log_pdf = -s + L * np.log(s) + log_norm - np.log(r_arr)
            return mass * np.exp(log_pdf)

        values = integrate_lockstep(integrand, [0.0] * len(rows), uppers, quad)
        _add_terms(totals, rows, weight, values)
    return _finish(totals)


def pl_double_integral(
    scenario: Scenario, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Dominant-interferer approximation of P_L, general path loss.

    For each count ``omega >= 1`` of active near interferers, the
    detection event is inverted into a threshold on the nearest active
    interferer distance; its conditional tail has a closed form, leaving
    one smooth outer integral over the L-th BS distance.  The
    ``omega = 0`` term is the perfect-coordination value.  The nominal
    inner/outer double integral therefore costs a single quadrature per
    ``omega``.  This is a one-point :func:`evaluate_grid` call.
    """
    return value_or_raise(_double_integral_grid([scenario], quad)[0])


def _h_ratio(x: float, omega: int, alpha: float, q: float) -> float:
    """Inverse normalized SIR as a function of the ratio x = R_L / R1_hat.

    ``h(1) = omega + 2q/(alpha-2)`` and h grows like ``x**alpha``;
    detection of the bottleneck BS corresponds to ``h(x) <= gamma/beta``.
    """
    x2 = x * x
    if abs(x2 - 1.0) <= 1e-12:
        middle = float(omega - 1)
    else:
        middle = (2.0 * (omega - 1) / (2.0 - alpha)) * (x2 - x**alpha) / (x2 - 1.0)
    return x**alpha + middle + 2.0 * q * x2 / (alpha - 2.0)


@lru_cache(maxsize=256)
def _verify_h_monotone(alpha: float, omega: int, q: float) -> None:
    """Assert h is increasing in x so its threshold crossing is unique."""
    xs = np.geomspace(1.0 + 1e-9, 1e4, 513)
    hs = np.array([_h_ratio(float(x), omega, alpha, q) for x in xs])
    drops = np.diff(hs) < -1e-10 * np.abs(hs[:-1])
    if np.any(drops):
        i = int(np.argmax(drops))
        raise RuntimeError(
            f"h(x) is not monotone for alpha={alpha}, omega={omega}, q={q}: "
            f"decrease near x={xs[i]:.6g}; the threshold inversion is invalid"
        )


def pl_single_integral_general(
    scenario: Scenario, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Ratio-form approximation of P_L for general path loss exponents.

    Scaling the far-field mean by the mean squared nearest-interferer
    distance leaves the SIR a function of the single ratio
    ``X = R_L / R1_hat`` alone.  The resulting x-integral of the ratio
    density against the detection indicator telescopes into the closed
    form ``(1 - x***-2)**omega`` at the crossing point ``x*``, so no
    quadrature is needed, only a root find per omega.  Least reliable of
    the integral forms, but the cheapest.
    """
    L, alpha, p, q = scenario.L, scenario.alpha, scenario.p, scenario.q
    gb = scenario.gamma / scenario.beta
    total = pmf_omega(0, L, p) * pl_perfect_coord(scenario)
    root_tol = min(1e-12, quad.rel_tol)
    for omega in range(1, L):
        weight = pmf_omega(omega, L, p)
        if weight == 0.0:
            continue
        _verify_h_monotone(alpha, omega, q)
        if _h_ratio(1.0, omega, alpha, q) >= gb:
            continue
        hi = 2.0
        for _ in range(200):
            if _h_ratio(hi, omega, alpha, q) > gb:
                break
            hi *= 2.0
        x_star = find_root_monotone(
            lambda x: _h_ratio(x, omega, alpha, q) - gb, 1.0, hi, tol=root_tol * hi
        )
        total += weight * (1.0 - x_star**-2.0) ** omega
    return _clamp01(total)


def _alpha4_grid(points: list[Scenario], quad: QuadratureSpec) -> list:
    """:func:`pl_alpha4` at every grid point, one lockstep pass per omega."""
    first = points[0]
    if first.alpha != 4.0:
        raise ValueError(
            f"this evaluator requires alpha = 4 exactly, got {first.alpha}"
        )
    L, p, q = first.L, first.p, first.q
    gbs = [s.gamma / s.beta for s in points]
    totals: list = [pmf_omega(0, L, p) * pl_perfect_coord(s) for s in points]
    if L < 2:
        return _finish(totals)
    s_tail = erlang_quantile(L, 1.0, quad.tail_quantile)
    log_norm = -math.lgamma(L)
    chis = [min(L - 1, _floor_with_tol(gb)) for gb in gbs]
    for omega in range(1, max(chis) + 1):
        weight = pmf_omega(omega, L, p)
        if weight == 0.0:
            continue
        rows, uppers = [], []
        for k, gb in enumerate(gbs):
            upper = min((gb - omega) / q if q > 0.0 else math.inf, s_tail)
            if chis[k] >= omega and upper > 0.0 and not isinstance(
                totals[k], NonConvergenceError
            ):
                rows.append(k)
                uppers.append(upper)
        if not rows:
            continue
        gb_rows = np.array([gbs[k] for k in rows])[:, None]

        def integrand(s: np.ndarray, at: np.ndarray, _omega: int = omega):
            # y_star >= 1 on the domain; the sqrt argument is the
            # quadratic discriminant of the threshold inversion.
            y_star = (
                np.sqrt(gb_rows[at] - q * s + (_omega - 1) ** 2 / 4.0)
                - (_omega - 1) / 2.0
            )
            base = np.maximum(0.0, 1.0 - 1.0 / y_star)
            log_pdf = -s + (L - 1) * np.log(s) + log_norm
            return base**_omega * np.exp(log_pdf)

        values = integrate_lockstep(integrand, [0.0] * len(rows), uppers, quad)
        _add_terms(totals, rows, weight, values)
    return _finish(totals)


def pl_alpha4(scenario: Scenario, quad: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Single-integral dominant-interferer approximation, exact at alpha = 4.

    At ``alpha = 4`` the inner threshold inversion of
    :func:`pl_double_integral` is a quadratic in ``(R_L/R1_hat)**2``, so
    the double integral collapses algebraically (no extra approximation)
    to one integral against the Erlang law of ``pi * lam * R_L**2``.
    This is a one-point :func:`evaluate_grid` call.
    """
    return value_or_raise(_alpha4_grid([scenario], quad)[0])


def pl_nearfield_alpha4(scenario: Scenario) -> float:
    """Closed-form near-field approximation of P_L at alpha = 4.

    Drops the far field entirely (valid when the near field dominates,
    i.e. small gamma/beta); the remaining Erlang integral is exact and
    closed form.  At ``p = 1`` this returns 0 once
    ``beta >= gamma / (L - 1)``.
    """
    if scenario.alpha != 4.0:
        raise ValueError(
            f"this evaluator requires alpha = 4 exactly, got {scenario.alpha}"
        )
    L, p = scenario.L, scenario.p
    gb = scenario.gamma / scenario.beta
    chi = min(L - 1, _floor_with_tol(gb))
    total = 0.0
    for omega in range(0, chi + 1):
        weight = pmf_omega(omega, L, p)
        if weight == 0.0:
            continue
        if omega == 0:
            total += weight
            continue
        y_star = math.sqrt(gb + (omega - 1) ** 2 / 4.0) - (omega - 1) / 2.0
        base = max(0.0, 1.0 - 1.0 / y_star)
        total += weight * base**omega
    return _clamp01(total)


_POINTWISE = {
    Method.UPPER_BOUND: lambda scen, quad: pl_upper_bound(scen),
    Method.PERFECT_COORD: lambda scen, quad: pl_perfect_coord(scen),
    Method.SINGLE_INTEGRAL_GENERAL: pl_single_integral_general,
    Method.NEAR_FIELD_ALPHA4: lambda scen, quad: pl_nearfield_alpha4(scen),
}
_LOCKSTEP = {
    Method.DOUBLE_INTEGRAL: _double_integral_grid,
    Method.SINGLE_INTEGRAL_ALPHA4: _alpha4_grid,
}


def evaluate_grid(
    method: Method,
    points: Sequence[Scenario],
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[float | NonConvergenceError]:
    """P_L by the evaluator tagged ``method`` at every point of a grid.

    ``points`` are scenarios that share ``L``, ``alpha``, ``p`` and
    ``q``; they differ in ``beta`` (a beta/gamma grid), and may differ in
    ``gamma``, ``lam`` and ``K``.  ``DoubleIntegral`` and
    ``SingleIntegralAlpha4`` integrate all points in lockstep, one
    :func:`~hearability.numerics.integrate_lockstep` pass per omega; the
    other methods evaluate point by point.  Every point gets the bits a
    one-point call gives it.

    Returns:
        Per point, P_L in [0, 1], or the :class:`NonConvergenceError` of
        the point's first quadrature that did not converge, carrying
        that integral's best estimate and error estimate.  A failure
        flags its own point only.

    ``Method.PROC_GAIN_BOUND`` maps a target probability to a gain, not
    a scenario to a probability, so it is rejected here; call
    :func:`min_processing_gain` directly.
    """
    if method == Method.PROC_GAIN_BOUND:
        raise ValueError(
            "ProcGainBound computes a minimum processing gain, not a "
            "probability; use min_processing_gain(target_pl, L, alpha, beta)"
        )
    try:
        method = Method(method)
    except ValueError:
        raise ValueError(f"unknown method {method!r}") from None
    points = list(points)
    if len({(s.L, s.alpha, s.p, s.q) for s in points}) > 1:
        raise ValueError("grid points must share L, alpha, p and q")
    if not points:
        return []
    if method in _LOCKSTEP:
        return _LOCKSTEP[method](points, quad)
    evaluator = _POINTWISE[method]
    return [evaluator(scen, quad) for scen in points]


def evaluate(
    method: Method, scenario: Scenario, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Dispatch to the evaluator tagged by ``method``; result in [0, 1].

    The one-point call of :func:`evaluate_grid`; a point whose quadrature
    does not converge raises its :class:`NonConvergenceError`.
    """
    return value_or_raise(evaluate_grid(method, [scenario], quad)[0])
