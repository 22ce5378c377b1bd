"""Unit tests for detection accumulation across reuse bands."""

import math
from itertools import product

import numpy as np
import pytest
from scipy import stats

from hearability.analytic import Method, evaluate
from hearability.model import Scenario
from hearability.numerics import NonConvergenceError, QuadratureSpec
from hearability.reuse import (
    ReuseQuery,
    exact_count_pmf,
    pl_with_reuse,
    pl_with_reuse_grid,
)


def scen(gb: float, K: int = 3, L: int = 4, p: float = 1.0) -> Scenario:
    return Scenario(
        lam=1.0, alpha=4.0, p=p, q=p, beta=1.0 / gb, gamma=1.0, L=L, K=K
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


class TestReuseQuery:
    def test_rejects_mismatched_muting_and_load(self):
        bad = Scenario(
            lam=1.0, alpha=4.0, p=0.5, q=0.75, beta=0.1, gamma=1.0, L=4, K=3
        )
        with pytest.raises(ValueError, match="p = q"):
            ReuseQuery(bad)

    def test_rejects_non_probability_base(self):
        with pytest.raises(ValueError, match="probability"):
            ReuseQuery(scen(20.0), base_method=Method.PROC_GAIN_BOUND)


class TestExactCountPmf:
    def test_telescopes_to_single_band_failure(self):
        query = ReuseQuery(scen(20.0, K=3))
        e = exact_count_pmf(query)
        assert e.shape == (4,)
        assert np.all(e >= 0.0)
        # Sum over n < L is 1 - P_L of one thinned band.
        band = scen(20.0, K=3).replace(K=1, lam=1.0 / 3.0)
        np.testing.assert_allclose(
            e.sum(), 1.0 - evaluate(Method.SINGLE_INTEGRAL_ALPHA4, band), atol=1e-12
        )

    def test_unit_gain_leaves_only_singleton_channel(self):
        # At gamma/beta=1 any second near BS kills detection, but a lone
        # nearest BS still beats the far-field mean with probability
        # 1 - exp(-mu), mu = (alpha-2)/(2q) = 1.
        e = exact_count_pmf(ReuseQuery(scen(1.0, K=3)))
        np.testing.assert_allclose(e[0], math.exp(-1.0), rtol=1e-12)
        np.testing.assert_allclose(e[1], 1.0 - math.exp(-1.0), rtol=1e-12)
        np.testing.assert_allclose(e[2:], 0.0, atol=1e-15)

    def test_supports_closed_form_base(self):
        e = exact_count_pmf(ReuseQuery(scen(25.0, K=2), base_method=Method.UPPER_BOUND))
        assert np.all(e >= 0.0) and e.sum() <= 1.0 + 1e-12


class TestPlWithReuse:
    def test_single_band_collapses_to_base(self):
        # K=1 must reproduce the plain evaluator exactly; the
        # telescoping sum cancels term by term.
        for gb in (5.0, 20.0, 100.0):
            query = ReuseQuery(scen(gb, K=1))
            base = evaluate(Method.SINGLE_INTEGRAL_ALPHA4, scen(gb, K=1))
            np.testing.assert_allclose(pl_with_reuse(query), base, atol=1e-12)

    @pytest.mark.parametrize("K", [2, 3, 6])
    @pytest.mark.parametrize("L", [2, 4, 8])
    def test_matches_bruteforce_tuple_sum(self, K, L):
        query = ReuseQuery(scen(12.0, K=K, L=L))
        e = exact_count_pmf(query)
        expected = 1.0 - oracle_failure(e, K, L)
        np.testing.assert_allclose(pl_with_reuse(query), expected, rtol=1e-12)

    def test_more_bands_help(self):
        values = [pl_with_reuse(ReuseQuery(scen(6.0, K=K))) for K in (1, 3, 6)]
        assert values[0] < values[1] < values[2]
        assert 0.0 < values[0] and values[2] < 1.0

    def test_partial_activity(self):
        query = ReuseQuery(scen(30.0, K=3, p=0.5))
        value = pl_with_reuse(query)
        assert 0.0 < value < 1.0
        e = exact_count_pmf(query)
        np.testing.assert_allclose(value, 1.0 - oracle_failure(e, 3, 4), rtol=1e-12)

    def test_double_integral_base(self):
        base = ReuseQuery(scen(20.0, K=3), base_method=Method.DOUBLE_INTEGRAL)
        fast = ReuseQuery(scen(20.0, K=3))
        np.testing.assert_allclose(
            pl_with_reuse(base), pl_with_reuse(fast), atol=2e-6
        )

    def test_unit_gain_reduces_to_binomial(self):
        # Per band the detectable count is Bernoulli(1 - exp(-1)), so
        # six bands give a plain binomial tail.
        value = pl_with_reuse(ReuseQuery(scen(1.0, K=6)))
        expected = stats.binom.sf(3, 6, 1.0 - math.exp(-1.0))
        np.testing.assert_allclose(value, expected, rtol=1e-12)

    def test_density_invariance(self):
        query = ReuseQuery(scen(20.0, K=3))
        scaled = ReuseQuery(scen(20.0, K=3).replace(lam=10.0))
        assert pl_with_reuse(query) == pl_with_reuse(scaled)


class TestReuseGrid:
    @pytest.mark.parametrize("K,L", [(1, 4), (3, 6), (6, 9)])
    def test_grid_equals_one_point_calls(self, K, L):
        queries = [ReuseQuery(scen(10.0 ** (db / 10.0), K=K, L=L)) for db in range(21)]
        values = pl_with_reuse_grid(queries)
        assert [v.hex() for v in values] == [pl_with_reuse(q).hex() for q in queries]
        assert pl_with_reuse_grid(queries[::-1])[::-1] == values

    def test_failure_flags_its_own_point(self):
        # One halving per panel fails the L = 6 levels at large gamma/beta.
        quad = QuadratureSpec(max_depth=1)
        queries = [
            ReuseQuery(scen(10.0 ** (db / 10.0), L=6), quad=quad) for db in range(21)
        ]
        values = pl_with_reuse_grid(queries)
        failed = [isinstance(v, NonConvergenceError) for v in values]
        assert any(failed) and not all(failed)
        for query, value in zip(queries, values):
            if isinstance(value, NonConvergenceError):
                with pytest.raises(NonConvergenceError) as excinfo:
                    pl_with_reuse(query)
                assert excinfo.value.best_estimate == value.best_estimate
                assert excinfo.value.error_estimate == value.error_estimate
            else:
                assert pl_with_reuse(query) == value

    def test_queries_must_share_the_level_and_quadrature(self):
        with pytest.raises(ValueError, match="share"):
            pl_with_reuse_grid([ReuseQuery(scen(5.0)), ReuseQuery(scen(5.0, L=5))])
        assert pl_with_reuse_grid([]) == []
