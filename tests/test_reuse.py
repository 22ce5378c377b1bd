"""Unit tests for detection accumulation across reuse bands."""

import functools
import math
from itertools import product

import numpy as np
import pytest
from one_point import pl, pl_reuse, value_or_raise
from scipy import stats

from hearability import reuse
from hearability.analytic import Method, evaluate_grid
from hearability.model import Scenario
from hearability.numerics import NonConvergenceError, QuadratureSpec
from hearability.reuse import pl_with_reuse_grid


def scen(gb: float, K: int = 3, L: int = 4, p: float = 1.0) -> Scenario:
    return Scenario(
        lam=1.0, alpha=4.0, p=p, q=p, beta=1.0 / gb, gamma=1.0, L=L, K=K
    )


def exact_count_pmf(
    scenario: Scenario, base_method: Method = Method.SINGLE_INTEGRAL_ALPHA4
) -> np.ndarray:
    """One scenario's per-band detection-count pmf at its own beta/gamma."""
    level = scenario.beta / scenario.gamma
    return value_or_raise(reuse._count_pmfs(scenario, [level], base_method)[0])


def depth_one(monkeypatch) -> None:
    """Run the per-band levels at one halving per panel."""
    monkeypatch.setattr(
        reuse, "evaluate_grid",
        functools.partial(evaluate_grid, quad=QuadratureSpec(max_depth=1)),
    )


def oracle_failure(e: np.ndarray, K: int, L: int) -> float:
    """Brute-force sum over all per-band count tuples below L total."""
    total = 0.0
    for counts in product(range(L), repeat=K):
        if sum(counts) < L:
            term = 1.0
            for n in counts:
                term *= e[n]
            total += term
    return total


class TestReuseInputs:
    def test_rejects_mismatched_muting_and_load(self):
        bad = Scenario(
            lam=1.0, alpha=4.0, p=0.5, q=0.75, beta=0.1, gamma=1.0, L=4, K=3
        )
        with pytest.raises(ValueError, match="p = q"):
            pl_with_reuse_grid([bad], [0.1])
        # A mismatch anywhere in the family is named, whatever its place.
        with pytest.raises(ValueError, match="requires p = q; got p=0.5, q=0.75"):
            pl_with_reuse_grid([scen(20.0), bad], [0.1])

    def test_rejects_non_probability_base(self):
        # min_processing_gain maps a target P_L to a gain; it has no tag.
        with pytest.raises(ValueError, match="^unknown method 'ProcGainBound'$"):
            pl_with_reuse_grid([scen(20.0)], [0.05], base_method="ProcGainBound")


class TestExactCountPmf:
    def test_telescopes_to_single_band_failure(self):
        e = exact_count_pmf(scen(20.0, K=3))
        assert e.shape == (4,)
        assert np.all(e >= 0.0)
        # Sum over n < L is 1 - P_L of one thinned band.
        band = scen(20.0, K=3).replace(K=1, lam=1.0 / 3.0)
        np.testing.assert_allclose(
            e.sum(), 1.0 - pl(Method.SINGLE_INTEGRAL_ALPHA4, band), atol=1e-12
        )

    def test_unit_gain_leaves_only_singleton_channel(self):
        # At gamma/beta=1 any second near BS kills detection, but a lone
        # nearest BS still beats the far-field mean with probability
        # 1 - exp(-mu), mu = (alpha-2)/(2q) = 1.
        e = exact_count_pmf(scen(1.0, K=3))
        np.testing.assert_allclose(e[0], math.exp(-1.0), rtol=1e-12)
        np.testing.assert_allclose(e[1], 1.0 - math.exp(-1.0), rtol=1e-12)
        np.testing.assert_allclose(e[2:], 0.0, atol=1e-15)

    def test_supports_closed_form_base(self):
        e = exact_count_pmf(scen(25.0, K=2), Method.UPPER_BOUND)
        assert np.all(e >= 0.0) and e.sum() <= 1.0 + 1e-12


class TestPlWithReuse:
    def test_single_band_collapses_to_base(self):
        # K=1 must reproduce the plain evaluator exactly; the
        # telescoping sum cancels term by term.
        for gb in (5.0, 20.0, 100.0):
            base = pl(Method.SINGLE_INTEGRAL_ALPHA4, scen(gb, K=1))
            np.testing.assert_allclose(pl_reuse(scen(gb, K=1)), base, atol=1e-12)

    @pytest.mark.parametrize("K", [2, 3, 6])
    @pytest.mark.parametrize("L", [2, 4, 8])
    def test_matches_bruteforce_tuple_sum(self, K, L):
        point = scen(12.0, K=K, L=L)
        expected = 1.0 - oracle_failure(exact_count_pmf(point), K, L)
        np.testing.assert_allclose(pl_reuse(point), expected, rtol=1e-12)

    def test_more_bands_help(self):
        values = [pl_reuse(scen(6.0, K=K)) for K in (1, 3, 6)]
        assert values[0] < values[1] < values[2]
        assert 0.0 < values[0] and values[2] < 1.0

    def test_partial_activity(self):
        point = scen(30.0, K=3, p=0.5)
        value = pl_reuse(point)
        assert 0.0 < value < 1.0
        e = exact_count_pmf(point)
        np.testing.assert_allclose(value, 1.0 - oracle_failure(e, 3, 4), rtol=1e-12)

    def test_double_integral_base(self):
        point = scen(20.0, K=3)
        np.testing.assert_allclose(
            pl_reuse(point, Method.DOUBLE_INTEGRAL), pl_reuse(point), atol=2e-6
        )

    def test_unit_gain_reduces_to_binomial(self):
        # Per band the detectable count is Bernoulli(1 - exp(-1)), so
        # six bands give a plain binomial tail.
        value = pl_reuse(scen(1.0, K=6))
        expected = stats.binom.sf(3, 6, 1.0 - math.exp(-1.0))
        np.testing.assert_allclose(value, expected, rtol=1e-12)

    def test_density_invariance(self):
        point = scen(20.0, K=3)
        assert pl_reuse(point) == pl_reuse(point.replace(lam=10.0))


# beta/gamma from 0 to 20 dB below 1.
LEVELS = [10.0 ** (-db / 10.0) for db in range(21)]


class TestReuseGrid:
    @pytest.mark.parametrize("K,L", [(1, 4), (3, 6), (6, 9)])
    def test_grid_equals_one_point_calls(self, K, L):
        family = scen(1.0, K=K, L=L)
        [values] = pl_with_reuse_grid([family], LEVELS)
        expected = [pl_reuse(family.replace(beta=level)).hex() for level in LEVELS]
        assert [v.hex() for v in values] == expected
        assert pl_with_reuse_grid([family], LEVELS[::-1])[0][::-1] == values

    def test_failure_flags_its_own_point(self, monkeypatch):
        # One halving per panel fails the L = 6 levels at large gamma/beta.
        depth_one(monkeypatch)
        family = scen(1.0, L=6)
        [values] = pl_with_reuse_grid([family], LEVELS)
        failed = [isinstance(v, NonConvergenceError) for v in values]
        assert any(failed) and not all(failed)
        for level, value in zip(LEVELS, values):
            [[alone]] = pl_with_reuse_grid([family], [level])
            if isinstance(value, NonConvergenceError):
                assert alone.best_estimate == value.best_estimate
                assert alone.error_estimate == value.error_estimate
            else:
                assert alone == value

    def test_scenarios_must_share_the_level(self):
        with pytest.raises(ValueError, match="share"):
            pl_with_reuse_grid([scen(5.0), scen(5.0, L=5)], [0.2])
        for change in ({"alpha": 3.0}, {"p": 0.5, "q": 0.5}):
            with pytest.raises(ValueError, match="share"):
                pl_with_reuse_grid(
                    [scen(5.0), scen(5.0).replace(**change)], [0.2],
                    Method.DOUBLE_INTEGRAL,
                )
        assert pl_with_reuse_grid([], [0.2]) == []
        assert pl_with_reuse_grid([scen(5.0), scen(5.0, K=6)], []) == [[], []]


# Every base method, at each (alpha, p = q) it is defined at.
_BAND_CASES = [
    (method, alpha, p)
    for method in Method
    for alpha in (
        (4.0,) if method in (Method.SINGLE_INTEGRAL_ALPHA4, Method.NEAR_FIELD_ALPHA4)
        else (3.0, 4.0)
    )
    for p in (1.0, 0.5)
]


def _family(Ks=(1,), L: int = 4, alpha: float = 4.0, p: float = 1.0):
    """One scenario per reuse factor in ``Ks``."""
    return [
        Scenario(lam=2.0, alpha=alpha, p=p, q=p, beta=1.0, gamma=1.0, L=L, K=K)
        for K in Ks
    ]


class TestFamilyTable:
    """One per-band table serves every K: the band P_n ignores lam."""

    @pytest.mark.parametrize(
        "method,alpha,p", _BAND_CASES, ids=lambda v: getattr(v, "value", v)
    )
    def test_band_values_ignore_the_density(self, method, alpha, p):
        [base] = _family(alpha=alpha, p=p)
        expected = [v.hex() for v in evaluate_grid(method, base, LEVELS)]
        for scale in (3.0, 6.0):
            band = base.replace(lam=base.lam / scale)
            assert [v.hex() for v in evaluate_grid(method, band, LEVELS)] == expected

    @pytest.mark.parametrize(
        "method,alpha,p",
        [
            (Method.SINGLE_INTEGRAL_ALPHA4, 4.0, 1.0),
            (Method.DOUBLE_INTEGRAL, 3.0, 1.0),
            (Method.SINGLE_INTEGRAL_GENERAL, 3.0, 0.5),
            (Method.UPPER_BOUND, 4.0, 0.5),
        ],
    )
    def test_mixed_k_call_equals_the_per_k_calls(self, method, alpha, p):
        # K = 3 also appears at another density, which no level reads.
        family = _family((6, 1, 3), L=6, alpha=alpha, p=p)
        family.append(family[-1].replace(lam=0.5))
        mixed = pl_with_reuse_grid(family, LEVELS, method)
        alone = [pl_with_reuse_grid([s], LEVELS, method)[0] for s in family]
        assert [[v.hex() for v in row] for row in mixed] == [
            [v.hex() for v in row] for row in alone
        ]

    def test_one_grid_call_per_n_serves_every_k(self, monkeypatch):
        calls = []

        def counting(method, scenario, levels):
            calls.append((scenario.L, scenario.K, list(levels)))
            return evaluate_grid(method, scenario, levels)

        monkeypatch.setattr(reuse, "evaluate_grid", counting)
        pl_with_reuse_grid(_family((1, 3, 6)), LEVELS)
        assert calls == [(n, 1, LEVELS) for n in range(1, 5)]

    def test_nonconvergence_flags_the_same_rows_for_every_k(self, monkeypatch):
        # One halving per panel fails the L = 6 levels at large gamma/beta.
        depth_one(monkeypatch)
        family = _family((1, 3, 6), L=6)
        mixed = pl_with_reuse_grid(family, LEVELS)
        flags = [[isinstance(v, NonConvergenceError) for v in row] for row in mixed]
        assert any(flags[0]) and not all(flags[0])
        assert flags[0] == flags[1] == flags[2]
        for got_row, s in zip(mixed, family):
            [alone] = pl_with_reuse_grid([s], LEVELS)
            for got, want in zip(got_row, alone):
                if isinstance(want, NonConvergenceError):
                    assert got.best_estimate == want.best_estimate
                    assert got.error_estimate == want.error_estimate
                else:
                    assert got == want
