"""Unit tests for scenario containers, densities and the law of Omega."""

import math

import numpy as np
import pytest
from scipy import stats

from hearability.model import (
    Scenario,
    effective_density,
    hex_grid_density,
    pmf_omega,
)
from hearability.simulate import _margins, _powers
from sampling_oracle import Realization


def make_scenario(**overrides):
    base = dict(lam=1.0, alpha=4.0, p=1.0, q=1.0, L=4)
    base.update(overrides)
    return Scenario(**base)


class TestScenario:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("lam", 0.0),
            ("lam", -1.0),
            ("alpha", 2.0),
            ("alpha", 1.5),
            ("p", -0.1),
            ("p", 1.1),
            ("q", 2.0),
            ("L", 0),
            ("L", 2.5),
            ("K", 0),
        ],
    )
    def test_rejects_invalid_field(self, field, value):
        with pytest.raises(ValueError):
            make_scenario(**{field: value})

    @pytest.mark.parametrize("field", ["beta", "gamma"])
    def test_threshold_is_not_a_field(self, field):
        # beta/gamma is a level each layer takes beside the scenario.
        with pytest.raises(TypeError, match=field):
            make_scenario(**{field: 1.0})

    def test_replace_returns_new_validated_scenario(self):
        scen = make_scenario()
        other = scen.replace(L=7, K=3)
        assert other.L == 7 and other.K == 3
        assert scen.L == 4
        with pytest.raises(ValueError):
            scen.replace(alpha=1.0)


class TestShadowing:
    def test_disabled_shadowing_keeps_density(self):
        assert effective_density(3.0, 4.0, 0.0) == 3.0

    def test_known_inflation_factor(self):
        # exp(((2/4) * 8 ln10 / 10)^2 / 2) for 8 dB shadowing at alpha 4.
        factor = effective_density(1.0, 4.0, 8.0)
        sigma_n = 8.0 * math.log(10.0) / 10.0
        np.testing.assert_allclose(factor, math.exp((0.5 * sigma_n) ** 2 / 2.0))
        np.testing.assert_allclose(factor, 1.52829364577985, rtol=1e-12)

    def test_rejects_a_density_beyond_a_float(self):
        with pytest.raises(ValueError, match="sigma_db=5000.0 overflows"):
            effective_density(1.0, 4.0, 5000.0)
        with pytest.raises(ValueError, match="sigma_db=100.0 overflows"):
            effective_density(1e300, 4.0, 100.0)

    def test_monotone_in_sigma(self):
        values = [
            effective_density(1.0, 3.76, s)
            for s in (0.0, 4.0, 8.0, 12.0)
        ]
        assert values == sorted(values)
        assert values[0] == 1.0

    def test_negative_sigma_rejected(self):
        for sigma_db in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="sigma_db must be nonnegative"):
                effective_density(1.0, 4.0, sigma_db)
            with pytest.raises(ValueError, match="sigma_db must be nonnegative"):
                make_scenario(sigma_db=sigma_db)


class TestHexGridDensity:
    def test_density_times_cell_area_is_one(self):
        isd = 500.0
        cell_area = math.sqrt(3.0) / 2.0 * isd * isd
        np.testing.assert_allclose(hex_grid_density(isd) * cell_area, 1.0, rtol=1e-14)

    def test_known_value(self):
        np.testing.assert_allclose(hex_grid_density(500.0), 4.6188021535e-06, rtol=1e-9)

    def test_rejects_bad_isd(self):
        with pytest.raises(ValueError):
            hex_grid_density(0.0)

    @pytest.mark.parametrize("isd", [1e-200, 1e200, -1.0, math.inf, math.nan])
    def test_rejects_an_isd_without_a_positive_finite_density(self, isd):
        # 1e-200 squared underflows to 0 and 1e200 squared overflows.
        with pytest.raises(ValueError, match="^isd must be positive with a finite site"):
            hex_grid_density(isd)


class TestPmfOmega:
    @pytest.mark.parametrize("L", [1, 2, 5, 9])
    @pytest.mark.parametrize("p", [0.0, 0.25, 2.0 / 3.0, 1.0])
    def test_matches_binomial(self, L, p):
        for omega in range(L):
            np.testing.assert_allclose(
                pmf_omega(omega, L, p),
                stats.binom.pmf(omega, L - 1, p),
                rtol=1e-12,
                atol=1e-300,
            )

    def test_sums_to_one(self):
        total = sum(pmf_omega(w, 6, 0.37) for w in range(6))
        np.testing.assert_allclose(total, 1.0, rtol=1e-12)

    def test_outside_support_is_zero(self):
        assert pmf_omega(-1, 4, 0.5) == 0.0
        assert pmf_omega(4, 4, 0.5) == 0.0

    def test_degenerate_activity(self):
        assert pmf_omega(0, 5, 0.0) == 1.0
        assert pmf_omega(4, 5, 1.0) == 1.0


# The SINR recipe for one realization, written per BS; the block
# kernels of ``hearability.simulate`` apply it to whole arrays.
def sinr_of(realization: Realization, k: int, L: int, scenario: Scenario) -> float:
    """SINR of the k-th nearest BS while the device detects the nearest L.

    The numerator is BS k's received power.  The denominator sums the
    received powers of the *active* other participants (indices <= L,
    excluding k itself; BS k's own activity mark never enters its own
    SINR) plus the active BSs beyond the L-th, plus noise.  A zero
    denominator yields ``math.inf``.

    Args:
        k: 1-based BS index with ``1 <= k <= L``.
        L: number of participants, ``L <= len(realization.distances)``.
    """
    n = len(realization.distances)
    if not isinstance(L, (int, np.integer)) or not (1 <= L <= n):
        raise ValueError(f"L must lie in [1, {n}], got {L!r}")
    if not isinstance(k, (int, np.integer)) or not (1 <= k <= L):
        raise ValueError(f"k must lie in [1, {L}], got {k!r}")
    power = realization.distances ** (-scenario.alpha)
    active = np.asarray(realization.activity, dtype=bool)
    mask = active.copy()
    mask[k - 1] = False
    interference = float(np.sum(power[:L][mask[:L]])) + float(
        np.sum(power[L:][mask[L:]])
    )
    if interference == 0.0:
        return math.inf
    return float(power[k - 1]) / interference


class TestSinrOf:
    def two_bs_realization(self):
        return Realization(
            distances=np.array([1.0, 2.0]),
            activity=np.array([True, True]),
            bands=np.ones(2, dtype=np.int64),
        )

    def test_hand_computed_values(self):
        real = self.two_bs_realization()
        scen = make_scenario(L=2)
        # alpha=4: powers are 1 and 1/16.
        np.testing.assert_allclose(sinr_of(real, 1, 2, scen), 16.0)
        np.testing.assert_allclose(sinr_of(real, 2, 2, scen), 0.0625)

    def test_own_activity_mark_never_interferes(self):
        real = Realization(
            distances=np.array([1.0, 2.0]),
            activity=np.array([False, True]),
            bands=np.ones(2, dtype=np.int64),
        )
        scen = make_scenario(L=2)
        # BS 1 is silent, so detecting BS 2 sees no interference at all.
        assert sinr_of(real, 2, 2, scen) == math.inf
        # Detecting BS 1 still works: its own mark is excluded.
        np.testing.assert_allclose(sinr_of(real, 1, 2, scen), 16.0)

    def test_far_field_bss_interfere(self):
        real = Realization(
            distances=np.array([1.0, 2.0, 2.0]),
            activity=np.array([True, True, True]),
            bands=np.ones(3, dtype=np.int64),
        )
        scen = make_scenario(L=2)
        np.testing.assert_allclose(sinr_of(real, 1, 2, scen), 1.0 / (2.0 / 16.0))

    def test_rejects_out_of_range_indices(self):
        real = self.two_bs_realization()
        scen = make_scenario(L=2)
        with pytest.raises(ValueError):
            sinr_of(real, 0, 2, scen)
        with pytest.raises(ValueError):
            sinr_of(real, 3, 2, scen)
        with pytest.raises(ValueError):
            sinr_of(real, 1, 3, scen)

    def test_block_margins_apply_the_same_recipe(self):
        rng = np.random.default_rng(5)
        scen = make_scenario(L=3, p=0.6, q=0.8)
        for _ in range(20):
            d = np.sort(rng.uniform(0.5, 4.0, size=8))
            u = rng.random(8)
            real = Realization(d, u < np.where(np.arange(8) < 3, 0.6, 0.8),
                               np.ones(8, dtype=np.int64), u)
            sinrs = [sinr_of(real, k, 3, scen) for k in (1, 2, 3)]
            pw = _powers(d[None], scen)
            # A finite deployment has no interference beyond its BSs.
            margins = _margins(pw, u[None] < scen.p, u[None] < scen.q, np.zeros((1, 1)),
                               scen)[0]
            np.testing.assert_allclose(margins, [min(sinrs), sinrs[2]], rtol=1e-12)
