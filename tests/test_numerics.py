"""Unit tests for the deterministic numeric kernels."""

import math

import numpy as np
import pytest
from one_point import value_or_raise
from quadrature_oracle import _panel_estimate, oracle_integrate_adaptive
from scipy import integrate, stats

from hearability import numerics
from hearability.numerics import (
    NonConvergenceError,
    QuadratureSpec,
    erlang_quantile,
    find_root_monotone,
    integrate_lockstep,
    poisson_cdf,
)


def integrate_adaptive(f, a, b, spec=QuadratureSpec()):
    """``f`` over ``[a, b]`` as a one-integral lockstep call; failure raises."""
    return value_or_raise(integrate_lockstep(lambda xs, rows: f(xs), [a], [b], spec)[0])


class TestQuadratureSpec:
    def test_defaults_validate(self):
        spec = QuadratureSpec()
        assert spec.rel_tol == 1e-9
        assert spec.max_depth == 40

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"rel_tol": -1e-9},
            {"abs_tol": 0.0},
            {"max_depth": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


@pytest.mark.parametrize("n", [7, 15])
def test_quadrature_constants_are_leggauss_bit_for_bit(n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    assert getattr(numerics, f"_X{n}").tobytes() == nodes.tobytes()
    assert getattr(numerics, f"_W{n}").tobytes() == weights.tobytes()


class TestIntegrateAdaptive:
    def test_polynomial_is_machine_exact(self):
        # A 15-point Gauss rule integrates cubics without truncation error.
        value = integrate_adaptive(lambda x: x**3, 0.0, 1.0)
        np.testing.assert_allclose(value, 0.25, rtol=1e-14)

    def test_sine_over_half_period(self):
        value = integrate_adaptive(np.sin, 0.0, math.pi)
        np.testing.assert_allclose(value, 2.0, rtol=1e-12)

    def test_gaussian_mass(self):
        value = integrate_adaptive(lambda x: np.exp(-0.5 * x * x), -8.0, 8.0)
        np.testing.assert_allclose(value, math.sqrt(2.0 * math.pi), rtol=1e-9)

    def test_oscillatory_integrand(self):
        value = integrate_adaptive(lambda x: np.cos(7.0 * x), 0.0, 10.0)
        np.testing.assert_allclose(value, math.sin(70.0) / 7.0, rtol=1e-9, atol=1e-12)

    def test_matches_scipy_quad_on_lumpy_integrand(self):
        f = lambda x: np.exp(-x) * np.log1p(x * x)
        expected, _ = integrate.quad(lambda x: math.exp(-x) * math.log1p(x * x), 0, 5)
        np.testing.assert_allclose(integrate_adaptive(f, 0.0, 5.0), expected, rtol=1e-9)

    def test_empty_interval_is_zero(self):
        assert integrate_adaptive(np.sin, 1.3, 1.3) == 0.0

    def test_reversed_interval_raises(self):
        with pytest.raises(ValueError):
            integrate_adaptive(np.sin, 1.0, 0.0)

    def test_nonfinite_bounds_raise(self):
        with pytest.raises(ValueError):
            integrate_adaptive(np.sin, 0.0, math.inf)

    def test_nonfinite_integrand_raises(self):
        f = lambda x: np.where(x > 0.5, np.nan, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            integrate_adaptive(f, 0.0, 1.0)

    def test_integrable_pole_exhausts_budget(self):
        # Gauss nodes never hit the pole exactly, so the failure mode is
        # a divergent error estimate rather than a non-finite value.
        with pytest.raises(NonConvergenceError):
            integrate_adaptive(lambda x: 1.0 / (x - 0.5), 0.0, 1.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            integrate_adaptive(lambda x: np.float64(1.0), 0.0, 1.0)

    def test_step_discontinuity_exhausts_budget(self):
        # The estimator cannot converge across a jump; the error carries
        # the best estimate, which is still close to the true area.
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, max_depth=12)
        f = lambda x: (x < 0.61234).astype(float)
        with pytest.raises(NonConvergenceError) as excinfo:
            integrate_adaptive(f, 0.0, 1.0, spec)
        assert abs(excinfo.value.best_estimate - 0.61234) < 1e-3
        assert excinfo.value.error_estimate > 0.0

    def test_deterministic_across_calls(self):
        f = lambda x: np.exp(-x) * np.sin(3.0 * x)
        assert integrate_adaptive(f, 0.0, 4.0) == integrate_adaptive(f, 0.0, 4.0)


def outcome(value):
    """Bits of a value, or of a failure's estimates and message."""
    if isinstance(value, NonConvergenceError):
        return (value.best_estimate.hex(), value.error_estimate.hex(), str(value))
    return value.hex()


def oracle_outcome(f, a, b, spec):
    try:
        return outcome(oracle_integrate_adaptive(f, a, b, spec))
    except NonConvergenceError as err:
        return outcome(err)


# A family of integrands, one (decay, frequency, upper bound) per
# integral: smooth, oscillatory, a kink and an empty interval, so the
# integrals converge after very different numbers of rounds.
FAMILY = [
    (0.3, 1.0, 2.0),
    (1.0, 7.0, 10.0),
    (2.5, 0.5, 5.0),
    (0.0, 25.0, 3.0),
    (0.7, 3.0, 0.0),
    (4.0, 13.0, 8.0),
    (0.1, 0.1, 1e-3),
    (1.5, 40.0, 6.0),
    (0.0, 0.0, 7.0),
    (0.9, 2.0, 4.0),
    (3.0, 11.0, 2.5),
]


def family_integrand(params):
    decay = np.array([c for c, _, _ in params])[:, None]
    freq = np.array([w for _, w, _ in params])[:, None]

    def f(xs, rows):
        return np.exp(-decay[rows] * xs) * np.cos(freq[rows] * xs) + np.abs(xs - 0.4)

    return f


def one_member(c, w):
    return lambda x: np.exp(-c * x) * np.cos(w * x) + np.abs(x - 0.4)


def lockstep(params, spec):
    f = family_integrand(params)
    uppers = [b for _, _, b in params]
    return [outcome(v) for v in integrate_lockstep(f, [0.0] * len(params), uppers, spec)]


SPECS = [
    QuadratureSpec(),
    QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15, max_depth=6),
]


def test_panel_estimates_do_not_depend_on_their_batch():
    # 300 panels of mixed width, magnitude and sign, with sign changes
    # inside each panel.  Every panel's estimate and error must have the
    # same bits batched, alone and by the scalar oracle's ``np.dot``; a
    # stacked product that numpy ran as one matrix-vector product would
    # reduce in another order and fail here.
    rng = np.random.default_rng(26)
    n = 300
    lo = rng.uniform(-50.0, 50.0, n)
    hi = lo + 10.0 ** rng.uniform(-6.0, 3.0, n)
    scale = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-30.0, 30.0, n)
    freq = rng.uniform(0.1, 20.0, n)

    def f(xs, rows):
        return scale[rows, None] * (np.cos(freq[rows, None] * xs) + 0.1 * xs)

    panels = [(k, a, b, 0) for k, (a, b) in enumerate(zip(lo.tolist(), hi.tolist()))]
    batched = zip(*numerics._panel_estimates(f, panels))
    for (k, a, b, _), (est, err) in zip(panels, batched):
        alone = [float(v[0]).hex() for v in numerics._panel_estimates(f, [panels[k]])]
        scalar = _panel_estimate(lambda x: f(x[None, :], np.array([k]))[0], a, b)
        assert [float(est).hex(), float(err).hex()] == alone, k
        assert [v.hex() for v in scalar] == alone, k


class TestIntegrateLockstep:
    @pytest.mark.parametrize("spec", SPECS)
    def test_every_integral_matches_the_scalar_oracle_bit_for_bit(self, spec):
        expected = [oracle_outcome(one_member(c, w), 0.0, b, spec) for c, w, b in FAMILY]
        assert lockstep(FAMILY, spec) == expected

    def test_tight_spec_mixes_converged_and_failed_integrals(self):
        kinds = {isinstance(v, str) for v in lockstep(FAMILY, SPECS[1])}
        assert kinds == {True, False}

    @pytest.mark.parametrize("spec", SPECS)
    def test_whole_reversed_and_sliced_grids_agree(self, spec):
        whole = lockstep(FAMILY, spec)
        assert lockstep(FAMILY[::-1], spec)[::-1] == whole
        cuts = [0, 1, 4, 5, 9, len(FAMILY)]
        sliced = [
            v
            for lo, hi in zip(cuts[:-1], cuts[1:])
            for v in lockstep(FAMILY[lo:hi], spec)
        ]
        assert sliced == whole

    def test_integrand_sees_one_panel_per_row(self):
        shapes = []

        def f(xs, rows):
            shapes.append((xs.shape, rows.shape))
            return np.ones_like(xs)

        assert integrate_lockstep(f, [0.0, 1.0], [1.0, 3.0]) == [1.0, 2.0]
        assert shapes == [((8, 22), (8,))]

    def test_nonfinite_value_names_its_abscissa(self):
        def f(xs, rows):
            return np.where((rows[:, None] == 1) & (xs > 2.5), np.nan, 1.0)

        with pytest.raises(ValueError, match="non-finite") as excinfo:
            integrate_lockstep(f, [0.0, 0.0, 0.0], [1.0, 3.0, 4.0])
        x = float(str(excinfo.value).split("x=")[1].strip("np.float64()"))
        assert 2.5 < x < 3.0

    def test_bad_bounds_raise(self):
        f = lambda xs, rows: xs
        with pytest.raises(ValueError, match="finite"):
            integrate_lockstep(f, [0.0, 0.0], [1.0, math.nan])
        with pytest.raises(ValueError, match="below"):
            integrate_lockstep(f, [0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="bounds"):
            integrate_lockstep(f, [0.0], [1.0, 2.0])

    def test_empty_grid(self):
        assert integrate_lockstep(lambda xs, rows: xs, [], []) == []


class TestFindRootMonotone:
    def test_square_root_of_two(self):
        root = find_root_monotone(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-13)
        np.testing.assert_allclose(root, math.sqrt(2.0), rtol=1e-12)

    def test_exact_zero_at_endpoint(self):
        assert find_root_monotone(lambda x: x - 1.0, 1.0, 2.0, tol=1e-12) == 1.0
        assert find_root_monotone(lambda x: x - 2.0, 1.0, 2.0, tol=1e-12) == 2.0

    def test_decreasing_function(self):
        root = find_root_monotone(lambda x: 1.0 - x * x * x, 0.0, 3.0, tol=1e-13)
        np.testing.assert_allclose(root, 1.0, rtol=1e-12)

    def test_non_straddling_bracket_raises(self):
        with pytest.raises(ValueError, match="straddle"):
            find_root_monotone(lambda x: x + 5.0, 0.0, 1.0, tol=1e-9)

    def test_bad_bracket_raises(self):
        with pytest.raises(ValueError):
            find_root_monotone(lambda x: x, 2.0, 1.0, tol=1e-9)

    def test_bad_tol_raises(self):
        with pytest.raises(ValueError):
            find_root_monotone(lambda x: x, -1.0, 1.0, tol=0.0)

    def test_non_finite_interior_value_raises(self):
        def g(x):
            return math.nan if 0.2 < x < 0.9 else x - 0.5

        with pytest.raises(ValueError, match="not finite at x="):
            find_root_monotone(g, 0.0, 1.0, tol=1e-9)

    def test_exact_zero_inside_the_bracket_is_returned(self):
        # The first secant step lands on the root, whose residual is 0.
        assert find_root_monotone(lambda x: x - 1.5, 1.0, 2.0, tol=1e-12) == 1.5

    # (g, lo, hi, root): increasing, decreasing, a kink between the
    # bracket's ends, and a steep exponential; each root is exact to 1 ulp.
    CASES = {
        "cube": (lambda x: x**3 - 2.0, 0.0, 3.0, 2.0 ** (1.0 / 3.0)),
        "falling": (lambda x: 1.0 - x**3, 0.0, 3.0, 1.0),
        "kinked": (
            lambda x: 2.0 * x - 1.0 if x < 0.3 else 0.5 * (x - 0.3) - 0.4,
            0.0, 2.0, 1.1,
        ),
        "steep": (
            lambda x: math.exp(50.0 * x) - 1e10, 0.0, 1.0, math.log(1e10) / 50.0,
        ),
        "falling_steep": (
            lambda x: math.exp(-40.0 * x) - 1e-12, 0.0, 2.0, math.log(1e12) / 40.0,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("tol", [1e-2, 1e-6, 1e-10, 1e-13])
    def test_result_within_documented_distance_of_root(self, case, tol):
        g, lo, hi, root = self.CASES[case]
        x = find_root_monotone(g, lo, hi, tol=tol)
        assert lo <= x <= hi
        # One ulp of slack for the rounding of the reference root.
        assert abs(x - root) <= tol + 4.0 * 2.0**-52 * abs(x) + 2.0**-52 * root

    # Calls allowed at tol = 1e-13; bisection took 46 or 47 on these
    # brackets, endpoints included.
    BUDGETS = {"cube": 15, "falling": 15, "kinked": 15, "steep": 20, "falling_steep": 20}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_evaluation_budget(self, case):
        g, lo, hi, _ = self.CASES[case]
        calls = []
        find_root_monotone(lambda x: calls.append(x) or g(x), lo, hi, tol=1e-13)
        assert len(calls) <= self.BUDGETS[case]


class TestPoissonCdf:
    @pytest.mark.parametrize("k", [0, 1, 3, 17, 100])
    @pytest.mark.parametrize("mu", [1e-9, 0.3, 1.0, 10.0, 100.0, 700.0])
    def test_matches_scipy(self, k, mu):
        np.testing.assert_allclose(
            poisson_cdf(k, mu), stats.poisson.cdf(k, mu), rtol=1e-12, atol=1e-300
        )

    def test_zero_mean_is_one(self):
        assert poisson_cdf(0, 0.0) == 1.0
        assert poisson_cdf(5, 0.0) == 1.0

    def test_never_exceeds_one(self):
        value = poisson_cdf(5000, 1.0)
        assert value <= 1.0
        np.testing.assert_allclose(value, 1.0, rtol=1e-12)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            poisson_cdf(-1, 1.0)

    def test_rejects_non_integer_k(self):
        with pytest.raises(ValueError):
            poisson_cdf(1.5, 1.0)

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            poisson_cdf(1, -0.5)
        with pytest.raises(ValueError):
            poisson_cdf(1, math.inf)


class TestErlangQuantile:
    @pytest.mark.parametrize("shape", [1, 2, 4, 9])
    @pytest.mark.parametrize("rate", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("prob", [0.1, 0.5, 0.9, 0.999])
    def test_matches_scipy_gamma_ppf(self, shape, rate, prob):
        expected = stats.gamma.ppf(prob, shape, scale=1.0 / rate)
        np.testing.assert_allclose(
            erlang_quantile(shape, rate, prob), expected, rtol=1e-9
        )

    def test_round_trip_through_cdf(self):
        x = erlang_quantile(4, 1.0, 0.9)
        np.testing.assert_allclose(1.0 - poisson_cdf(3, x), 0.9, rtol=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            erlang_quantile(0, 1.0, 0.5)
        with pytest.raises(ValueError):
            erlang_quantile(2, 0.0, 0.5)
        with pytest.raises(ValueError):
            erlang_quantile(2, 1.0, 1.0)
