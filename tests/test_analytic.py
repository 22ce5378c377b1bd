"""Unit tests for the closed-form bounds and integral approximations.

Expected values tagged as frozen were recomputed at 30-digit precision
from the defining formulas with an independent arbitrary-precision
implementation, then recorded here as literals.  The scipy-based oracles
re-derive the integral evaluators from scratch inside the tests.
"""

import math
import re

import numpy as np
import pytest
from one_point import pl
from quadrature_oracle import (
    oracle_boundary_t,
    oracle_pl_alpha4,
    oracle_pl_double_integral,
)
from sampling_oracle import mean_i1, mean_i2
from scipy import integrate, stats

from hearability import analytic
from hearability.analytic import (
    Method,
    _boundary_t,
    _h_ratio,
    evaluate_grid,
    min_processing_gain,
)
from hearability.cli import _grid
from hearability.model import Scenario, hex_grid_density
from hearability.numerics import NonConvergenceError, QuadratureSpec

# Canonical uncoordinated scenario: L=4 nearest BSs, alpha=4, full
# activity, processing-gain-to-threshold ratio gamma/beta = 100.
CANON = Scenario(lam=1.0, alpha=4.0, p=1.0, q=1.0, beta=0.01, gamma=1.0, L=4)

UPPER_BOUND_CANON = 0.726535713629692  # frozen, see module docstring
NEARFIELD_CANON = 0.703784469674449  # frozen
PERFECT_COORD_AT_10 = 0.989663949324074  # frozen, gamma/beta = 10
MIN_GAIN_08_L4_A4 = 196.615284371535  # frozen, target 0.8
MIN_GAIN_08_L4_A3 = 54.1053969600835  # frozen


def at_ratio(gb: float, **overrides) -> Scenario:
    """Canonical scenario with gamma/beta set to ``gb``."""
    return CANON.replace(beta=1.0 / gb, gamma=1.0, **overrides)


def levels_of(grid_db) -> list[float]:
    """Linear beta/gamma levels of a grid in dB, as a sweep forms them."""
    return [10.0 ** (g / 10.0) for g in grid_db]


class TestMeanNearInterference:
    def test_zero_below_two_actives(self):
        assert mean_i1(0.5, 1.0, 0, CANON) == 0.0
        assert mean_i1(0.5, 1.0, 1, CANON) == 0.0

    def test_hand_computed_annulus_mean(self):
        # alpha=4, one remaining active uniform between radii 1 and 2:
        # 2 * 1 / (2-4) * (2^-2 - 1) / (4 - 1) = 0.25.
        np.testing.assert_allclose(mean_i1(1.0, 2.0, 2, CANON), 0.25, rtol=1e-14)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 5.5])
    @pytest.mark.parametrize("omega", [2, 3, 7])
    def test_matches_quadrature_over_annulus(self, alpha, omega):
        scen = CANON.replace(alpha=alpha)
        r1, rl = 0.7, 2.3
        density = lambda t: 2.0 * t / (rl * rl - r1 * r1)
        per_bs, _ = integrate.quad(lambda t: t**-alpha * density(t), r1, rl)
        np.testing.assert_allclose(
            mean_i1(r1, rl, omega, scen), (omega - 1) * per_bs, rtol=1e-10
        )

    def test_degenerate_annulus_limit(self):
        # As r1_hat -> rl the actives collapse onto the circle of radius rl.
        scen = CANON.replace(alpha=3.3)
        limit = mean_i1(2.0 * (1.0 - 1e-13), 2.0, 5, scen)
        np.testing.assert_allclose(limit, 4.0 * 2.0**-3.3, rtol=1e-12)
        near = mean_i1(2.0 * (1.0 - 1e-7), 2.0, 5, scen)
        np.testing.assert_allclose(near, limit, rtol=1e-6)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            mean_i1(3.0, 2.0, 2, CANON)
        with pytest.raises(ValueError):
            mean_i1(0.0, 2.0, 2, CANON)
        with pytest.raises(ValueError):
            mean_i1(1.0, 2.0, -1, CANON)


class TestMeanFarInterference:
    def test_normalized_value(self):
        scen = CANON.replace(lam=1.0 / math.pi)
        np.testing.assert_allclose(mean_i2(1.0, scen), 1.0, rtol=1e-14)

    @pytest.mark.parametrize("alpha", [2.5, 3.76, 4.0])
    def test_matches_campbell_integral(self, alpha):
        scen = CANON.replace(alpha=alpha, q=0.6, lam=2.0)
        rl = 1.3
        # Mean of sum of t^-alpha over a thinned PPP outside radius rl.
        expected, _ = integrate.quad(
            lambda t: t**-alpha * scen.q * scen.lam * 2.0 * math.pi * t, rl, np.inf
        )
        np.testing.assert_allclose(mean_i2(rl, scen), expected, rtol=1e-6)

    def test_linear_in_q_and_lam(self):
        base = mean_i2(1.0, CANON)
        np.testing.assert_allclose(mean_i2(1.0, CANON.replace(q=0.5)), base / 2.0)
        np.testing.assert_allclose(mean_i2(1.0, CANON.replace(lam=3.0)), 3.0 * base)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            mean_i2(0.0, CANON)


class TestUpperBound:
    def test_frozen_canonical_value(self):
        np.testing.assert_allclose(
            pl(Method.UPPER_BOUND, CANON), UPPER_BOUND_CANON, rtol=1e-12
        )

    def test_full_activity_reduces_to_single_term(self):
        # At p=1 the binomial concentrates on omega = L-1.
        for gb, L in ((100.0, 4), (37.0, 6), (8.0, 2)):
            scen = at_ratio(gb).replace(L=L)
            expected = (1.0 - (gb - (L - 2)) ** -0.5) ** (L - 1)
            np.testing.assert_allclose(
                pl(Method.UPPER_BOUND, scen), expected, rtol=1e-13
            )

    def test_silent_participants_give_certainty(self):
        assert pl(Method.UPPER_BOUND, at_ratio(5.0, p=0.0)) == 1.0

    def test_zero_below_unit_ratio_at_full_activity(self):
        assert pl(Method.UPPER_BOUND, at_ratio(0.9)) == 0.0

    def test_nondecreasing_in_gain(self):
        values = [
            pl(Method.UPPER_BOUND, at_ratio(gb)) for gb in (2.0, 5.0, 20.0, 100.0, 1e4)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert 0.0 <= values[0] and values[-1] <= 1.0

    @pytest.mark.parametrize("gb", [4.0, 10.0, 40.0, 200.0])
    def test_dominates_integral_approximations(self, gb):
        scen = at_ratio(gb)
        bound = pl(Method.UPPER_BOUND, scen)
        assert bound >= pl(Method.SINGLE_INTEGRAL_ALPHA4, scen) - 1e-12
        assert bound >= pl(Method.DOUBLE_INTEGRAL, scen) - 1e-12


class TestMinProcessingGain:
    def test_frozen_values(self):
        np.testing.assert_allclose(
            min_processing_gain(0.8, 4, 4.0, 1.0), MIN_GAIN_08_L4_A4, rtol=1e-12
        )
        np.testing.assert_allclose(
            min_processing_gain(0.8, 4, 3.0, 1.0), MIN_GAIN_08_L4_A3, rtol=1e-12
        )
        np.testing.assert_allclose(
            10.0 * math.log10(MIN_GAIN_08_L4_A4), 22.9361727575554, rtol=1e-12
        )

    @pytest.mark.parametrize("target", [0.5, 0.8, 0.95])
    @pytest.mark.parametrize("L", [2, 4, 6])
    def test_round_trip_through_bound(self, target, L):
        gain = min_processing_gain(target, L, 4.0, 1.0)
        scen = Scenario(lam=1.0, alpha=4.0, p=1.0, q=1.0, beta=1.0, gamma=gain, L=L)
        np.testing.assert_allclose(pl(Method.UPPER_BOUND, scen), target, rtol=1e-10)

    def test_scales_linearly_with_beta(self):
        one = min_processing_gain(0.8, 4, 4.0, 1.0)
        np.testing.assert_allclose(
            min_processing_gain(0.8, 4, 4.0, 2.5), 2.5 * one, rtol=1e-14
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            min_processing_gain(1.0, 4, 4.0, 1.0)
        with pytest.raises(ValueError):
            min_processing_gain(0.8, 1, 4.0, 1.0)
        with pytest.raises(ValueError):
            min_processing_gain(0.8, 4, 2.0, 1.0)
        with pytest.raises(ValueError):
            min_processing_gain(0.8, 4, 4.0, 0.0)


class TestPerfectCoord:
    def test_frozen_value_at_ratio_ten(self):
        np.testing.assert_allclose(
            pl(Method.PERFECT_COORD, at_ratio(10.0)), PERFECT_COORD_AT_10, rtol=1e-12
        )

    @pytest.mark.parametrize("alpha,q,gb,L", [(4.0, 1.0, 10.0, 4), (3.0, 0.5, 25.0, 6)])
    def test_matches_poisson_survival(self, alpha, q, gb, L):
        scen = at_ratio(gb).replace(alpha=alpha, q=q, L=L)
        mu = (alpha - 2.0) * gb / (2.0 * q)
        np.testing.assert_allclose(
            pl(Method.PERFECT_COORD, scen), stats.poisson.sf(L - 1, mu), rtol=1e-10
        )

    def test_no_load_means_certain_detection(self):
        assert pl(Method.PERFECT_COORD, at_ratio(10.0, q=0.0)) == 1.0

    def test_independent_of_p_and_density(self):
        base = pl(Method.PERFECT_COORD, at_ratio(10.0))
        assert pl(Method.PERFECT_COORD, at_ratio(10.0, p=0.3)) == base
        assert pl(Method.PERFECT_COORD, at_ratio(10.0, lam=17.0)) == base

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_equals_double_integral_when_muted(self, alpha):
        scen = at_ratio(12.0, p=0.0).replace(alpha=alpha)
        np.testing.assert_allclose(
            pl(Method.DOUBLE_INTEGRAL, scen), pl(Method.PERFECT_COORD, scen), rtol=1e-9
        )


def oracle_alpha4(L: int, p: float, q: float, gb: float) -> float:
    """Independent scipy recomputation of the alpha=4 single integral.

    Uses the Erlang law of pi*lam*R_L^2 and the exact quadratic
    threshold inversion; the omega=0 channel is the far-field Poisson
    survival probability.
    """
    if q > 0.0:
        term0 = stats.poisson.sf(L - 1, gb / q)
    else:
        term0 = 1.0
    total = stats.binom.pmf(0, L - 1, p) * term0
    for omega in range(1, L):
        weight = stats.binom.pmf(omega, L - 1, p)
        if weight == 0.0 or gb <= omega:
            continue
        upper = (gb - omega) / q if q > 0.0 else np.inf

        def f(s, w=omega):
            y = math.sqrt(gb - q * s + (w - 1) ** 2 / 4.0) - (w - 1) / 2.0
            return max(0.0, 1.0 - 1.0 / y) ** w * stats.gamma.pdf(s, L)

        value, _ = integrate.quad(f, 0.0, min(upper, 60.0), limit=200)
        total += weight * value
    return total


class TestAlpha4:
    @pytest.mark.parametrize(
        "p,q,gb",
        [
            (1.0, 1.0, 100.0),
            (1.0, 1.0, 39.8),
            (2.0 / 3.0, 1.0, 25.0),
            (0.5, 0.75, 60.0),
            (1.0, 0.2, 10.0),
        ],
    )
    def test_matches_scipy_oracle(self, p, q, gb):
        scen = at_ratio(gb, p=p, q=q)
        np.testing.assert_allclose(
            pl(Method.SINGLE_INTEGRAL_ALPHA4, scen), oracle_alpha4(4, p, q, gb),
            rtol=1e-7,
        )

    def test_rejects_other_exponents(self):
        with pytest.raises(ValueError, match="alpha = 4"):
            pl(Method.SINGLE_INTEGRAL_ALPHA4, CANON.replace(alpha=3.9))

    def test_no_load_reduces_to_nearfield(self):
        scen = at_ratio(50.0, q=0.0)
        np.testing.assert_allclose(
            pl(Method.SINGLE_INTEGRAL_ALPHA4, scen), pl(Method.NEAR_FIELD_ALPHA4, scen),
            rtol=1e-8,
        )

    def test_monotone_in_gain(self):
        values = [
            pl(Method.SINGLE_INTEGRAL_ALPHA4, at_ratio(gb))
            for gb in (5.0, 10.0, 40.0, 160.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestDoubleIntegral:
    @pytest.mark.parametrize("gb", [4.0, 10.0, 39.8, 100.0, 400.0])
    def test_collapses_to_alpha4_form(self, gb):
        scen = at_ratio(gb)
        np.testing.assert_allclose(
            pl(Method.DOUBLE_INTEGRAL, scen), pl(Method.SINGLE_INTEGRAL_ALPHA4, scen),
            atol=1e-6, rtol=0,
        )

    def test_partial_activity_also_collapses(self):
        scen = at_ratio(30.0, p=0.5, q=0.75)
        np.testing.assert_allclose(
            pl(Method.DOUBLE_INTEGRAL, scen), pl(Method.SINGLE_INTEGRAL_ALPHA4, scen),
            atol=1e-6, rtol=0,
        )

    def test_nearfield_limit_at_vanishing_load(self):
        scen = at_ratio(100.0, q=1e-9)
        np.testing.assert_allclose(
            pl(Method.DOUBLE_INTEGRAL, scen),
            pl(Method.NEAR_FIELD_ALPHA4, at_ratio(100.0, q=0.0)),
            atol=1e-4,
        )

    @pytest.mark.parametrize("alpha", [3.0, 3.5, 4.5])
    def test_monotone_in_gain_for_general_alpha(self, alpha):
        values = [
            pl(Method.DOUBLE_INTEGRAL, at_ratio(gb).replace(alpha=alpha))
            for gb in (5.0, 15.0, 60.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert 0.0 < values[0] and values[-1] < 1.0


def sir_reference(t, r, omega, alpha, q):
    """The normalized SIR of the L-th BS in a cancellation-free form.

    ``t`` is the nearest-active-interferer distance and ``r`` the L-th
    BS distance, both scaled so that ``lam * pi = 1``.  The nearest
    active interferer is kept exact; the other ``omega - 1`` actives and
    the load-q far field enter through their conditional means.
    With ``s = ln(t/r)`` and ``b = 2 - alpha`` the annulus quotient
    ``(r**b - t**b) / (r**2 - t**2)`` equals
    ``r**-alpha * expm1(b s) / expm1(2 s)``, which keeps full precision
    as ``t -> r``; the direct quotient loses about ``eps / (1 - t/r)``.
    """
    s = np.log(t / r)
    b = 2.0 - alpha
    with np.errstate(invalid="ignore"):
        ratio = np.where(s != 0.0, np.expm1(b * s) / np.expm1(2.0 * s), 0.5 * b)
    near = r**-alpha
    j1 = (2.0 * (omega - 1) / b) * near * ratio
    j2 = (2.0 * q / (alpha - 2.0)) * r**b
    return near / (t**-alpha + j1 + j2)


def bisect_boundary(r, omega, alpha, q, thr):
    """Oracle: 64 halvings of [1e-9 r, r] on the predicate SIR >= thr."""
    lo, hi = r * 1e-9, r.copy()
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = sir_reference(mid, r, omega, alpha, q) >= thr
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def boundary_grid(alpha, omega):
    """Flat (r, q, thr) over q, beta/gamma from -20 to 0 dB, and r.

    r runs from 1e-6 to the support limit r_star * (1 - 1e-12), with a
    geometric approach to r_star that puts the crossing at t -> r.
    """
    rs, qs, thrs = [], [], []
    for q in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0):
        for db in range(-20, 1):
            thr = 10.0 ** (db / 10.0)
            gb = 1.0 / thr
            if gb <= omega:
                continue
            if q > 0.0:
                r_star = math.sqrt((alpha - 2.0) * (gb - omega) / (2.0 * q))
            else:
                r_star = 10.0
            r = np.concatenate(
                (
                    np.geomspace(1e-6, r_star, 40)[:-1],
                    r_star * (1.0 - np.logspace(-1.0, -12.0, 12)),
                )
            )
            rs.append(r)
            qs.append(np.full(r.size, q))
            thrs.append(np.full(r.size, thr))
    return np.concatenate(rs), np.concatenate(qs), np.concatenate(thrs)


class TestBoundarySolve:
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 3.5, 4.0, 4.5, 6.0])
    def test_matches_bisection_oracle(self, alpha):
        for omega in range(1, 9):
            r, q, thr = boundary_grid(alpha, omega)
            t = _boundary_t(r, omega, alpha, q, 1.0 / thr)
            oracle = bisect_boundary(r, omega, alpha, q, thr)
            np.testing.assert_array_less(np.abs(t - oracle), 1e-12 * r)
            # The SIR straddles the threshold within 1e-9 relative of t.
            below = sir_reference(t * (1.0 - 1e-9), r, omega, alpha, q)
            above = sir_reference(t * (1.0 + 1e-9), r, omega, alpha, q)
            assert np.all(below < thr) and np.all(above >= thr)

    @pytest.mark.parametrize("omega", [1, 3])
    def test_support_limit_and_lower_bracket(self, omega):
        r = np.array([0.5, 1.0, 2.0])
        # gamma/beta <= omega + 2 q r**2 / (alpha-2): no crossing below t = r.
        np.testing.assert_array_equal(_boundary_t(r, omega, 4.0, 1.0, omega), r)
        # A crossing below the bracket returns its lower end, 1e-9 r.
        np.testing.assert_allclose(
            _boundary_t(r, omega, 4.0, 0.0, 1e40), 1e-9 * r, rtol=1e-12
        )

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(analytic, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            _boundary_t(np.array([0.1, 0.5]), 3, 3.5, 1.0, 20.0)


class TestMonotonicity:
    """The inversions rely on two monotone laws, proved in the docstrings
    of ``_boundary_t`` and ``_h_ratio``; these are their numerical checks
    on coarse grids."""

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0, 4.0, 6.0, 8.0])
    def test_sir_rises_with_the_dominant_distance(self, alpha, q):
        for omega in (1, 2, 3, 8, 32):
            for r in (0.03, 0.3, 1.0, 3.0, 10.0):
                t = np.linspace(1e-6 * r, r * (1.0 - 1e-9), 257)
                sir = sir_reference(t, r, omega, alpha, q)
                drops = np.diff(sir) < -1e-12 * np.abs(sir[:-1])
                assert not drops.any(), (omega, r, t[np.argmax(drops)])

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0, 4.0, 6.0, 8.0])
    def test_h_rises_with_the_ratio(self, alpha, q):
        xs = np.geomspace(1.0 + 1e-9, 1e4, 513)
        for omega in (1, 2, 3, 8, 32):
            hs = np.array([_h_ratio(float(x), omega, alpha, q) for x in xs])
            drops = np.diff(hs) < -1e-10 * np.abs(hs[:-1])
            assert not drops.any(), (omega, xs[np.argmax(drops)])


class TestSingleIntegralGeneral:
    def test_alpha4_closed_form_rederivation(self):
        # At alpha=4 the ratio condition is the quadratic
        # x^4 + (omega-1+q)x^2 <= gamma/beta, solvable by hand.  With
        # p=q=1, L=4, gamma/beta=10: x*^2 = 2, so P_L = (1/2)^3.
        np.testing.assert_allclose(
            pl(Method.SINGLE_INTEGRAL_GENERAL, at_ratio(10.0)), 0.125, rtol=1e-10
        )

    @pytest.mark.parametrize("alpha", [3.0, 3.5, 4.0])
    def test_tracks_double_integral(self, alpha):
        # The ratio form is the roughest approximation.  Its measured
        # vertical error peaks around 0.16 in the steep region and
        # shrinks to under 0.02 in the high-reliability regime.
        for gb in (10.0, 40.0, 150.0):
            scen = at_ratio(gb).replace(alpha=alpha)
            gap = (pl(Method.SINGLE_INTEGRAL_GENERAL, scen)
                   - pl(Method.DOUBLE_INTEGRAL, scen))
            assert abs(gap) <= 0.2
        tight = at_ratio(300.0).replace(alpha=alpha)
        assert abs(
            pl(Method.SINGLE_INTEGRAL_GENERAL, tight) - pl(Method.DOUBLE_INTEGRAL, tight)
        ) <= 0.02

    def test_monotone_in_gain(self):
        values = [
            pl(Method.SINGLE_INTEGRAL_GENERAL, at_ratio(gb).replace(alpha=3.0))
            for gb in (4.0, 12.0, 50.0, 300.0)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.9

    def test_muted_case_matches_perfect_coordination(self):
        scen = at_ratio(12.0, p=0.0).replace(alpha=3.3)
        np.testing.assert_allclose(
            pl(Method.SINGLE_INTEGRAL_GENERAL, scen), pl(Method.PERFECT_COORD, scen),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 4.5, 6.0])
    @pytest.mark.parametrize("gb", [1.0 + 1e-12, 1.5, 10.0, 1e3, 1e8])
    def test_single_participant_without_far_field(self, alpha, gb):
        # omega = 1 and q = 0 leave h(x) = x**alpha, whose crossing
        # gb**(1/alpha) sits at the bracket's own upper end before its
        # 1e-9 margin: P_L = 1 - gb**(-2/alpha).  The root lies within
        # about 1e-12 x of the crossing, and 1 - x**-2 moves by at most
        # 2 x**-3 per unit of x.
        scen = at_ratio(gb, L=2, p=1.0, q=0.0, alpha=alpha)
        np.testing.assert_allclose(
            pl(Method.SINGLE_INTEGRAL_GENERAL, scen), 1.0 - gb ** (-2.0 / alpha),
            rtol=0.0, atol=3e-12,
        )

    def test_fig4_grids_evaluation_budget(self, monkeypatch):
        # The four fig4 grids (alpha 3 to 4.5, p = 2/3, -20..0 dB) made
        # 7 991 h evaluations under bisection with a doubling bracket
        # search, and 1 614 under Brent's method from the x**alpha bound.
        calls = []
        h = analytic._h_ratio
        monkeypatch.setattr(analytic, "_h_ratio", lambda *a: calls.append(a) or h(*a))
        for alpha in (3.0, 3.5, 4.0, 4.5):
            base = CANON.replace(alpha=alpha, p=2.0 / 3.0)
            evaluate_grid(Method.SINGLE_INTEGRAL_GENERAL, base, levels_of(STEP_1DB))
        assert len(calls) <= 1700


class TestNearfield:
    def test_frozen_canonical_value(self):
        np.testing.assert_allclose(
            pl(Method.NEAR_FIELD_ALPHA4, CANON), NEARFIELD_CANON, rtol=1e-12
        )

    def test_inline_arithmetic_rederivation(self):
        # p=1 leaves only omega = 3: y* = sqrt(100 + 1) - 1.
        y_star = math.sqrt(101.0) - 1.0
        np.testing.assert_allclose(
            pl(Method.NEAR_FIELD_ALPHA4, CANON), (1.0 - 1.0 / y_star) ** 3, rtol=1e-14
        )

    def test_cutoff_at_full_activity(self):
        # With p=1 and gamma/beta <= L-1 detection is impossible.
        assert pl(Method.NEAR_FIELD_ALPHA4, at_ratio(3.0)) == 0.0
        assert pl(Method.NEAR_FIELD_ALPHA4, at_ratio(2.5)) == 0.0
        assert pl(Method.NEAR_FIELD_ALPHA4, at_ratio(3.2)) > 0.0

    @pytest.mark.parametrize("gb", [5.0, 20.0, 100.0])
    def test_dominates_full_model(self, gb):
        # Dropping far-field interference can only raise P_L.
        scen = at_ratio(gb)
        nearfield = pl(Method.NEAR_FIELD_ALPHA4, scen)
        assert nearfield >= pl(Method.SINGLE_INTEGRAL_ALPHA4, scen) - 1e-12

    def test_rejects_other_exponents(self):
        with pytest.raises(ValueError, match="alpha = 4"):
            pl(Method.NEAR_FIELD_ALPHA4, CANON.replace(alpha=3.0))


# Edge cases of the Omega average, recorded before it was shared by every
# evaluator: L = 1 and p = 0 keep only the omega = 0 term, p = 1 only the
# omega = L - 1 term, and q = 0 drops the far field.  The inner point
# weighs every term.  The SingleIntegralGeneral values at p1, q0 and
# inner lie within 1e-15 of a 40-digit evaluation of their crossings.
EDGE = at_ratio(20.0, p=0.3)
EDGE_POINTS = {
    "L1": EDGE.replace(L=1),
    "p0": EDGE.replace(p=0.0),
    "p1": EDGE.replace(p=1.0),
    "q0": EDGE.replace(q=0.0),
    "inner": EDGE,
}
EDGE_VALUES = {
    Method.UPPER_BOUND: {
        "L1": 1.0, "p0": 1.0, "p1": 0.44646531545814594,
        "q0": 0.8096721867276092, "inner": 0.8096721867276092,
    },
    Method.PERFECT_COORD: {
        "L1": 0.9999999979388464, "p0": 0.9999967962802195,
        "p1": 0.9999967962802195, "q0": 1.0, "inner": 0.9999967962802195,
    },
    Method.DOUBLE_INTEGRAL: {
        "L1": 0.9999999979388464, "p0": 0.9999967962802195,
        "p1": 0.31154015220478126, "q0": 0.8018162246940373,
        "inner": 0.7779560849489775,
    },
    Method.SINGLE_INTEGRAL_GENERAL: {
        "L1": 0.9999999979388464, "p0": 0.9999967962802195,
        "p1": 0.32729711202953937, "q0": 0.8018162251528537,
        "inner": 0.7808007765459806,
    },
    Method.SINGLE_INTEGRAL_ALPHA4: {
        "L1": 0.9999999979388464, "p0": 0.9999967962802195,
        "p1": 0.31154015220478104, "q0": 0.8018162246940371,
        "inner": 0.7779560849489734,
    },
    Method.NEAR_FIELD_ALPHA4: {
        "L1": 1.0, "p0": 1.0, "p1": 0.37460455409609406,
        "q0": 0.8018162251528537, "inner": 0.8018162251528537,
    },
}


class TestEdgeAnchors:
    @pytest.mark.parametrize("method", list(Method))
    def test_recorded_values(self, method):
        for name, point in EDGE_POINTS.items():
            assert pl(method, point) == EDGE_VALUES[method][name], name

    def test_recorded_nonconvergence(self):
        # One halving per panel leaves this DoubleIntegral point short of
        # its tolerance; its best and error estimates are recorded.
        point = Scenario(
            lam=1.0, alpha=3.5, p=2.0 / 3.0, q=1.0, beta=10.0 ** -1.2, gamma=1.0, L=6
        )
        with pytest.raises(NonConvergenceError) as excinfo:
            pl(Method.DOUBLE_INTEGRAL, point, QuadratureSpec(max_depth=1))
        assert excinfo.value.best_estimate == 0.6494429209290253
        assert excinfo.value.error_estimate == 6.289478234066965e-09


class TestScaleInvariance:
    """Interference-limited outputs cannot depend on the BS density."""

    @pytest.mark.parametrize(
        "method",
        [Method.UPPER_BOUND, Method.PERFECT_COORD, Method.NEAR_FIELD_ALPHA4],
    )
    def test_closed_forms_bit_identical(self, method):
        scen = at_ratio(40.0)
        assert pl(method, scen) == pl(method, scen.replace(lam=10.0 * scen.lam))

    @pytest.mark.parametrize(
        "method",
        [Method.SINGLE_INTEGRAL_ALPHA4, Method.DOUBLE_INTEGRAL,
         Method.SINGLE_INTEGRAL_GENERAL],
    )
    def test_integral_forms_bit_identical(self, method):
        # The integral evaluators work in normalized coordinates, an
        # exact change of variables, so even they are bit-identical.
        scen = at_ratio(40.0, p=0.5, q=0.75)
        assert pl(method, scen) == pl(method, scen.replace(lam=10.0 * scen.lam))


# --- grid evaluation against the scalar oracles ---------------------------

ORACLES = {
    Method.DOUBLE_INTEGRAL: oracle_pl_double_integral,
    Method.SINGLE_INTEGRAL_ALPHA4: oracle_pl_alpha4,
}
DENSITY = hex_grid_density(500.0)
STEP_1DB = _grid(-20.0, 0.0, 1.0)
STEP_HALF_DB = _grid(-20.0, 0.0, 0.5)
TWO_THIRDS = 2.0 / 3.0


def scenario(alpha=4.0, p=1.0, q=1.0, L=4, lam=DENSITY):
    return Scenario(lam=lam, alpha=alpha, p=p, q=q, beta=1.0, gamma=1.0, L=L)


# (id, method, base scenario, grid in dB, quadrature)
GRIDS = [
    # The analytic workload and fig4: DoubleIntegral across alpha.
    *[
        (f"double-a{a}", Method.DOUBLE_INTEGRAL, scenario(a, TWO_THIRDS), STEP_1DB, None)
        for a in (3.0, 3.5, 4.0, 4.5)
    ],
    # The analytic workload: SingleIntegralAlpha4 across p.
    *[
        (f"alpha4-p{k}", Method.SINGLE_INTEGRAL_ALPHA4, scenario(p=p), STEP_1DB, None)
        for k, p in enumerate((0.0, 1.0 / 3.0, TWO_THIRDS, 1.0))
    ],
    # fig3 and fig8.
    ("fig3", Method.SINGLE_INTEGRAL_ALPHA4, scenario(), STEP_HALF_DB, None),
    ("fig8-L6", Method.SINGLE_INTEGRAL_ALPHA4, scenario(p=0.5, q=0.75, L=6),
     STEP_HALF_DB, None),
    # The reuse levels: single-band P_n at lam / K for n = 1..9, plus q = 0.
    *[
        (f"{m.name}-L{L}-q{q}", m, scenario(q=q, L=L, lam=DENSITY / 3), STEP_1DB, None)
        for m in ORACLES
        for L in range(1, 10)
        for q in (1.0, 0.0)
    ],
    # One halving per panel: failing and converging points share a grid.
    ("double-depth1", Method.DOUBLE_INTEGRAL, scenario(3.5, TWO_THIRDS, L=6),
     STEP_1DB, QuadratureSpec(max_depth=1)),
    ("alpha4-depth1", Method.SINGLE_INTEGRAL_ALPHA4, scenario(p=TWO_THIRDS, L=6),
     STEP_1DB, QuadratureSpec(max_depth=1)),
]


def outcome(value):
    """Bits of a value, or of a failure's estimates and message."""
    if isinstance(value, NonConvergenceError):
        return (value.best_estimate.hex(), value.error_estimate.hex(), str(value))
    return value.hex()


def oracle_outcomes(method, base, levels, quad):
    out = []
    for level in levels:
        try:
            out.append(outcome(ORACLES[method](base.replace(beta=level), quad)))
        except NonConvergenceError as err:
            out.append(outcome(err))
    return out


def grid_outcomes(method, base, levels, quad):
    return [outcome(v) for v in evaluate_grid(method, base, levels, quad)]


class TestEvaluateGrid:
    @pytest.mark.parametrize(
        "method,base,grid_db,quad", [g[1:] for g in GRIDS], ids=[g[0] for g in GRIDS]
    )
    def test_grid_matches_scalar_oracle_bit_for_bit(self, method, base, grid_db, quad):
        quad = quad or QuadratureSpec()
        levels = levels_of(grid_db)
        whole = grid_outcomes(method, base, levels, quad)
        assert whole == oracle_outcomes(method, base, levels, quad)
        assert grid_outcomes(method, base, levels[::-1], quad)[::-1] == whole
        cuts = [0, 1, 4, 5, 13, len(levels)]
        sliced = [
            v
            for lo, hi in zip(cuts[:-1], cuts[1:])
            for v in grid_outcomes(method, base, levels[lo:hi], quad)
        ]
        assert sliced == whole

    def test_refinement_sequence_is_pinned(self, monkeypatch):
        # Panels per integrand call on the fig4 alpha = 3 DoubleIntegral
        # grid: one call per lockstep round of each omega term.  A kernel
        # edit that changes how many panels an integral takes, or in which
        # round it converges, changes this; one that splits other panels
        # for the same counts moves bits the oracle tests above pin.
        panels = []
        lockstep = analytic.integrate_lockstep

        def counting(f, a, b, spec):
            def counted(xs, rows):
                panels.append(len(xs))
                return f(xs, rows)

            return lockstep(counted, a, b, spec)

        monkeypatch.setattr(analytic, "integrate_lockstep", counting)
        _, method, base, grid_db, _ = GRIDS[0]
        evaluate_grid(method, base, levels_of(grid_db))
        assert panels == [80, 30, 20, 68, 28, 14, 64, 26, 10]
        assert (len(panels), sum(panels)) == (9, 340)

    @pytest.mark.parametrize("name", ["double-depth1", "alpha4-depth1"])
    def test_failures_flag_their_own_points(self, name):
        _, method, base, grid_db, quad = next(g for g in GRIDS if g[0] == name)
        values = evaluate_grid(method, base, levels_of(grid_db), quad)
        failed = [isinstance(v, NonConvergenceError) for v in values]
        assert any(failed) and not all(failed)

    @pytest.mark.parametrize("method", list(Method))
    def test_every_method_equals_its_one_point_calls(self, method):
        levels, quad = levels_of(STEP_1DB), QuadratureSpec()
        expected = [
            v for level in levels for v in grid_outcomes(method, CANON, [level], quad)
        ]
        assert grid_outcomes(method, CANON, levels, quad) == expected

    def test_points_must_share_the_scenario(self):
        # One scenario per call: the signature leaves nothing to share.
        assert evaluate_grid(Method.DOUBLE_INTEGRAL, CANON, []) == []

    @pytest.mark.parametrize("level", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("method", list(Method))
    def test_levels_that_are_not_positive_and_finite_are_rejected(self, method, level):
        with pytest.raises(ValueError, match="levels must be positive and finite"):
            evaluate_grid(method, CANON, [0.1, level])

    @pytest.mark.parametrize("method", list(Method))
    def test_reuse_factor_is_rejected(self, method):
        # P_L across K bands is the reuse recursion's, not one band's value.
        with pytest.raises(ValueError, match="K=6; use pl_with_reuse_grid$"):
            evaluate_grid(method, CANON.replace(K=6), [0.01])

    def test_one_point_calls_raise_the_grid_failure(self):
        _, method, base, grid_db, quad = GRIDS[-1]
        levels = levels_of(grid_db)
        for level, value in zip(levels, evaluate_grid(method, base, levels, quad)):
            point = base.replace(beta=level)
            if isinstance(value, NonConvergenceError):
                with pytest.raises(NonConvergenceError) as excinfo:
                    pl(method, point, quad)
                assert outcome(excinfo.value) == outcome(value)
            else:
                assert pl(method, point, quad) == value


class TestEvaluate:
    def test_accepts_string_value(self):
        assert evaluate_grid("UpperBound", CANON, [0.01]) == evaluate_grid(
            Method.UPPER_BOUND, CANON, [0.01]
        )

    def test_gain_bound_is_rejected(self):
        # min_processing_gain maps a target P_L to a gain; it has no tag.
        with pytest.raises(ValueError, match="unknown method 'ProcGainBound'"):
            evaluate_grid("ProcGainBound", CANON, [0.01])

    def test_unknown_method_is_rejected(self):
        with pytest.raises(ValueError, match="unknown method 'Bogus'"):
            evaluate_grid("Bogus", CANON, [0.01])

    def test_module_docstring_lists_every_tag(self):
        tags = set(re.findall(r"``(\w+)``", analytic.__doc__))
        assert {m.value for m in Method} <= tags


class TestBoundarySolveBatch:
    @pytest.mark.parametrize(
        "alpha,omega,q", [(3.0, 2, 1.0), (3.5, 3, 1.0), (4.5, 5, 0.5), (4.0, 7, 0.0)]
    )
    def test_each_panel_takes_its_scalar_iterates(self, alpha, omega, q):
        # Panels at very different r and gamma/beta converge after
        # different numbers of Newton steps.
        leggauss = np.polynomial.legendre.leggauss
        x22 = np.concatenate((leggauss(15)[0], leggauss(7)[0]))
        gbs = omega + np.geomspace(1e-3, 1e3, 12)
        rows, gb_rows = [], []
        for gb in gbs:
            r_star = math.sqrt((alpha - 2.0) * (gb - omega) / (2.0 * q)) if q else 10.0
            spans = ((1e-4, 1e-3), (0.1 * r_star, 0.6 * r_star), (0.6 * r_star, r_star))
            for lo, hi in spans:
                rows.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * x22)
                gb_rows.append(gb)
        r = np.array(rows)
        got = _boundary_t(r, omega, alpha, q, np.array(gb_rows)[:, None])
        for k, gb in enumerate(gb_rows):
            expected = oracle_boundary_t(r[k], omega, alpha, q, gb)
            assert got[k].tobytes() == expected.tobytes()
