"""Closed-form bounds and integral approximations of P_L.

``P_L`` is the probability that a device detects all of its ``L``
nearest BSs, the quantity that governs whether network-based
positioning has enough anchors.  This module provides six evaluators,
tagged by :class:`Method`, in increasing order of fidelity and cost:

* ``UpperBound``, an upper bound from dropping all interference beyond
  the L-th BS, and its inversion into the minimum processing gain that
  guarantees a target ``P_L`` (:func:`min_processing_gain`);
* ``PerfectCoord``, a closed form for perfectly coordinated
  participants, ``p = 0``;
* a dominant-interferer approximation that keeps the nearest active
  interferer exact and replaces the remaining interference with its
  conditional mean (``DoubleIntegral``, with the reduced
  single-integral forms ``SingleIntegralGeneral`` and
  ``SingleIntegralAlpha4``, and the near-field closed form
  ``NearFieldAlpha4``).

Detection of the bottleneck BS succeeds when its SIR, after the
processing gain, clears the demodulation threshold:
``SIR >= beta / gamma``.

Every evaluator conditions on ``Omega``, the number of active
participants among the ``L - 1`` nearer BSs, and averages its
conditional P_L over Omega's binomial law
(:func:`~hearability.model.pmf_omega`).  :func:`_omega_average` owns
that average; each evaluator states only its term for one ``omega``.
PerfectCoord is the same average with every participant muted.

Every evaluator models the zero-noise network, so it is invariant to
the BS density: the integral forms are computed in coordinates
normalized so ``lam * pi = 1``, which an exact change of variables at
zero noise permits, so identical inputs at different densities return
bit-identical values.

Every P_L comes from the grid evaluator :func:`evaluate_grid`, one call
per scenario and grid of linear beta/gamma levels, each read as
``gb = 1.0 / level``.  The quadrature-backed terms integrate all levels
of one ``omega`` in lockstep, and each level keeps its value or its own
nonconvergence, with the bits it gets on a grid of its own.
"""

from __future__ import annotations

import enum
import math
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
)

__all__ = [
    "Method",
    "min_processing_gain",
    "evaluate_grid",
]


class Method(str, enum.Enum):
    """Tags for the analytic P_L evaluators, also used as CSV labels."""

    UPPER_BOUND = "UpperBound"
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


# Quantile of the R_L law at which the integral forms cut their outer integral.
_TAIL_QUANTILE = 1.0 - 1e-9


def _omega_average(scenario: Scenario, levels: list, p: float, term, quad) -> list:
    """Average ``term`` over the binomial law of Omega at every level.

    ``term(omega, scenario, live, quad)`` is an evaluator's P_L given
    ``omega`` active participants at each beta/gamma level of ``live``.
    ``p`` is the activity that weights the terms, and terms of zero
    weight are skipped.  A level whose term is a
    :class:`NonConvergenceError` keeps that error and takes no further
    terms; every other level's sum is clamped to [0, 1].
    """
    L = scenario.L
    totals: list = [0.0] * len(levels)  # a float until the level fails
    for omega in range(L):
        weight = pmf_omega(omega, L, p)
        live = [k for k, total in enumerate(totals) if isinstance(total, float)]
        if weight == 0.0 or not live:
            continue
        for k, value in zip(live, term(omega, scenario, [levels[k] for k in live], quad)):
            failed = isinstance(value, NonConvergenceError)
            totals[k] = value if failed else totals[k] + weight * value
    return [_clamp01(t) if isinstance(t, float) else t for t in totals]


def _require_alpha4(scenario: Scenario) -> None:
    if scenario.alpha != 4.0:
        raise ValueError(
            f"this evaluator requires alpha = 4 exactly, got {scenario.alpha}"
        )


def _integrate_points(integrand, gbs: list[float], uppers: list, quad) -> list:
    """Per point, the integral of ``integrand(x, gb)`` over ``[0, upper]``.

    A point whose upper limit is None has an empty support and gets 0.
    The others integrate in lockstep, one quadrature each, and
    ``integrand`` receives their ``gamma/beta`` as a column.
    """
    rows = [k for k, upper in enumerate(uppers) if upper is not None]
    gb_rows = np.array([gbs[k] for k in rows])[:, None]
    values = integrate_lockstep(
        lambda x, at: integrand(x, gb_rows[at]), [0.0] * len(rows),
        [uppers[k] for k in rows], quad,
    )
    out: list = [0.0] * len(gbs)
    for k, value in zip(rows, values):
        out[k] = value
    return out


def _upper_bound_term(omega: int, scenario: Scenario, levels: list, quad) -> list:
    """``UpperBound``: closed-form upper bound on P_L from the near field only.

    Ignoring all interference beyond the L-th BS and lower-bounding each
    active participant's distance by the bottleneck distance yields, for
    ``omega`` active interferers, the detection probability
    ``(1 - (gamma/beta - (omega-1))**(-2/alpha))**omega``; averaging
    over the binomial law of ``omega`` up to
    ``chi = min(L-1, floor(gamma/beta))`` gives the bound.
    """
    alpha = scenario.alpha
    return [
        max(0.0, 1.0 - (gb - (omega - 1)) ** (-2.0 / alpha)) ** omega
        if omega <= _floor_with_tol(gb) else 0.0
        for gb in (1.0 / level for level in levels)
    ]


def _perfect_coord_term(omega: int, scenario: Scenario, levels: list, quad) -> list:
    """``PerfectCoord``: P_L when participants are perfectly muted (p = 0).

    Only the load-q far field interferes; replacing that interference by
    its conditional mean turns the detection event into a Poisson tail:
    ``1 - poisson_cdf(L - 1, (alpha-2) * gamma / (2 q beta))``, and 1 for
    ``q = 0`` (no interference at all).  It is also the omega = 0 term of
    every integral form.
    """
    L, alpha, q = scenario.L, scenario.alpha, scenario.q
    return [
        1.0 if q == 0.0 else 1.0 - poisson_cdf(L - 1, (alpha - 2.0) / (2.0 * q * level))
        for level in levels
    ]


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


# --- dominant-interferer machinery (normalized coordinates, lam*pi = 1) ---


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
    ``gb`` is ``gamma/beta``.

    H falls strictly from infinity to ``H(1) = omega``, so the root is
    unique.  Its middle term is ``omega - 1`` times
    ``M(u) = (2/b) (u**b - 1)/(u**2 - 1)``, the mean of ``rho**-alpha``
    over the annulus ``u < rho < 1`` under the area measure.  That mean
    falls as the inner radius grows:
    ``M'(u) = 2 u (M(u) - u**-alpha) / (1 - u**2)``, and ``M(u)`` lies
    below ``u**-alpha`` because ``rho**-alpha`` does on the whole
    annulus.  The first term ``u**-alpha`` falls too.

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


def _double_integral_term(omega: int, scenario: Scenario, levels: list, quad) -> list:
    """``DoubleIntegral``: dominant-interferer approximation, general path loss.

    For each count ``omega >= 1`` of active near interferers, the
    detection event is inverted into a threshold on the nearest active
    interferer distance; its conditional tail has a closed form, leaving
    one smooth outer integral over the L-th BS distance.  The
    ``omega = 0`` term is the perfect-coordination value.  The nominal
    inner/outer double integral therefore costs a single quadrature per
    ``omega``.
    """
    if omega == 0:
        return _perfect_coord_term(omega, scenario, levels, quad)
    L, alpha, q = scenario.L, scenario.alpha, scenario.q
    gbs = [1.0 / level for level in levels]
    # Normalized coordinates (lam * pi = 1): an exact change of variables,
    # so the result is independent of the density.
    r_tail = math.sqrt(erlang_quantile(L, 1.0, _TAIL_QUANTILE))
    log_norm = math.log(2.0) - math.lgamma(L)
    uppers: list = [None] * len(gbs)
    for k, gb in enumerate(gbs):
        if gb > omega:
            # Beyond r_star even a vanishing dominant term cannot lift the
            # SIR over the threshold.
            r_star = math.sqrt((alpha - 2.0) * (gb - omega) / (2.0 * q)) if q else math.inf
            uppers[k] = min(r_star * (1.0 - 1e-12), r_tail)

    def integrand(r: np.ndarray, gb: np.ndarray) -> np.ndarray:
        t = _boundary_t(r, omega, alpha, q, gb)
        mass = np.maximum(0.0, (r * r - t * t) / (r * r)) ** omega
        s = r * r
        log_pdf = -s + L * np.log(s) + log_norm - np.log(r)
        return mass * np.exp(log_pdf)

    return _integrate_points(integrand, gbs, uppers, quad)


def _h_ratio(x: float, omega: int, alpha: float, q: float) -> float:
    """Inverse normalized SIR as a function of the ratio x = R_L / R1_hat.

    ``h(1) = omega + 2q/(alpha-2)`` and h grows like ``x**alpha``;
    detection of the bottleneck BS corresponds to ``h(x) <= gamma/beta``.

    h rises strictly on ``x >= 1``, so that crossing is unique.  The
    middle term ``A (x**2 - x**alpha)/(x**2 - 1)``, with
    ``A = 2 (omega-1)/(2-alpha)``, is ``omega - 1`` times ``M(1/x)``,
    the mean of ``rho**-alpha`` over the annulus ``1/x < rho < 1``
    (see :func:`_boundary_t`).  That mean falls as the inner radius
    grows, so it rises with x, and so do ``x**alpha`` and the far-field
    term ``2 q x**2/(alpha-2)``.
    """
    x2 = x * x
    if abs(x2 - 1.0) <= 1e-12:
        middle = float(omega - 1)
    else:
        middle = (2.0 * (omega - 1) / (2.0 - alpha)) * (x2 - x**alpha) / (x2 - 1.0)
    return x**alpha + middle + 2.0 * q * x2 / (alpha - 2.0)


def _single_integral_general_term(
    omega: int, scenario: Scenario, levels: list, quad
) -> list:
    """``SingleIntegralGeneral``: the ratio form of P_L for general path loss.

    Scaling the far-field mean by the mean squared nearest-interferer
    distance leaves the SIR a function of the single ratio
    ``X = R_L / R1_hat`` alone.  The resulting x-integral of the ratio
    density against the detection indicator telescopes into the closed
    form ``(1 - x_star**-2)**omega`` at the crossing point ``x_star``, so no
    quadrature is needed, only a root find per omega.  Least reliable of
    the integral forms, but the cheapest.

    The root is bracketed by ``[1, gb**(1/alpha) (1 + 1e-9)]`` with no
    search: ``h(1) < gb`` at every point that has a crossing, and
    ``h(x) >= x**alpha`` (the middle and far-field terms are
    nonnegative), so ``h`` reaches ``gb`` by ``x = gb**(1/alpha)``.  At
    ``omega = 1, q = 0``, where ``h(x) = x**alpha`` exactly, the factor
    keeps the upper end strictly past the crossing despite rounding.
    """
    if omega == 0:
        return _perfect_coord_term(omega, scenario, levels, quad)
    alpha, q = scenario.alpha, scenario.q
    h_one = _h_ratio(1.0, omega, alpha, q)
    out = []
    for gb in (1.0 / level for level in levels):
        if h_one >= gb:
            out.append(0.0)
            continue
        hi = gb ** (1.0 / alpha) * (1.0 + 1e-9)
        x_star = find_root_monotone(
            lambda x: _h_ratio(x, omega, alpha, q) - gb, 1.0, hi, tol=1e-12 * hi
        )
        out.append((1.0 - x_star**-2.0) ** omega)
    return out


def _alpha4_term(omega: int, scenario: Scenario, levels: list, quad) -> list:
    """``SingleIntegralAlpha4``: the dominant-interferer form, exact at alpha = 4.

    At ``alpha = 4`` the inner threshold inversion of ``DoubleIntegral``
    is a quadratic in ``(R_L/R1_hat)**2``, so the double integral
    collapses algebraically (no extra approximation) to one integral
    against the Erlang law of ``pi * lam * R_L**2``.
    """
    _require_alpha4(scenario)
    if omega == 0:
        return _perfect_coord_term(omega, scenario, levels, quad)
    L, q = scenario.L, scenario.q
    gbs = [1.0 / level for level in levels]
    s_tail = erlang_quantile(L, 1.0, _TAIL_QUANTILE)
    log_norm = -math.lgamma(L)
    uppers = []
    for gb in gbs:
        upper = min((gb - omega) / q if q > 0.0 else math.inf, s_tail)
        uppers.append(upper if _floor_with_tol(gb) >= omega and upper > 0.0 else None)

    def integrand(s: np.ndarray, gb: np.ndarray) -> np.ndarray:
        # y_star >= 1 on the domain; the sqrt argument is the
        # quadratic discriminant of the threshold inversion.
        y_star = np.sqrt(gb - q * s + (omega - 1) ** 2 / 4.0) - (omega - 1) / 2.0
        base = np.maximum(0.0, 1.0 - 1.0 / y_star)
        log_pdf = -s + (L - 1) * np.log(s) + log_norm
        return base**omega * np.exp(log_pdf)

    return _integrate_points(integrand, gbs, uppers, quad)


def _nearfield_alpha4_term(omega: int, scenario: Scenario, levels: list, quad) -> list:
    """``NearFieldAlpha4``: the closed-form near-field approximation at alpha = 4.

    Drops the far field entirely (valid when the near field dominates,
    i.e. small gamma/beta); the remaining Erlang integral is exact and
    closed form.  At ``p = 1`` this gives 0 once
    ``beta >= gamma / (L - 1)``.
    """
    _require_alpha4(scenario)
    half = (omega - 1) / 2.0
    return [
        max(0.0, 1.0 - 1.0 / (math.sqrt(gb + half * half) - half)) ** omega
        if omega <= _floor_with_tol(gb) else 0.0
        for gb in (1.0 / level for level in levels)
    ]


_TERMS = {
    Method.UPPER_BOUND: _upper_bound_term,
    Method.PERFECT_COORD: _perfect_coord_term,
    Method.DOUBLE_INTEGRAL: _double_integral_term,
    Method.SINGLE_INTEGRAL_GENERAL: _single_integral_general_term,
    Method.SINGLE_INTEGRAL_ALPHA4: _alpha4_term,
    Method.NEAR_FIELD_ALPHA4: _nearfield_alpha4_term,
}


def evaluate_grid(
    method: Method,
    scenario: Scenario,
    levels: Sequence[float],
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[float | NonConvergenceError]:
    """P_L of one band of ``scenario`` by the evaluator ``method`` at every level.

    ``levels`` are linear beta/gamma thresholds; the scenario's ``beta``,
    ``gamma`` and ``lam`` are not read, and ``K != 1`` is rejected (see
    :func:`~hearability.reuse.pl_with_reuse_grid`).  Each omega term of
    ``DoubleIntegral`` and ``SingleIntegralAlpha4`` integrates all levels
    in lockstep, one :func:`~hearability.numerics.integrate_lockstep`
    pass; the other terms are closed forms or root finds per level.
    Every level gets the bits it gets on a grid of its own.

    Returns:
        Per level, P_L in [0, 1], or the :class:`NonConvergenceError` of
        the level's first quadrature that did not converge, carrying
        that integral's best estimate and error estimate.  A failure
        flags its own level only.
    """
    try:
        method = Method(method)
    except ValueError:
        raise ValueError(f"unknown method {method!r}") from None
    if scenario.K != 1:
        raise ValueError(
            f"{method.value} models one band and would ignore K={scenario.K}; "
            "use pl_with_reuse_grid"
        )
    levels = [float(level) for level in levels]
    for level in levels:
        if not (level > 0.0 and math.isfinite(level)):
            raise ValueError(f"levels must be positive and finite, got {level}")
    # PerfectCoord mutes every participant: only its omega = 0 term weighs.
    p = 0.0 if method == Method.PERFECT_COORD else scenario.p
    return _omega_average(scenario, levels, p, _TERMS[method], quad)
