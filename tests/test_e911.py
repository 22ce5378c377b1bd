"""Unit tests for the TDOA positioning experiment.

The batched solver is checked fix by fix against the scalar one-fix
solver below (two-stage WLS, then a damped Gauss-Newton), which is the
reference implementation: the batched solver follows the same paths in
closed form and bounds how far a fix may lie from its reference BS.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from hearability import e911, simulate
from hearability.e911 import (
    FCC_P67_M,
    FCC_P90_M,
    MIN_TRIALS,
    E911Config,
    collect_trials,
    default_scenario,
    fcc_compliance,
    ranging_stddev,
)
from hearability.model import Scenario, effective_density, hex_grid_density
from hearability.simulate import (
    SimConfig,
    collect_margins,
    exceedance_curve,
    stream,
)
from sampling_oracle import Realization, block_rows, tail_mean

_MIN_BS_FOR_FIX = e911._MIN_BS_FOR_FIX
_ILL_CONDITION = e911._ILL_CONDITION


@dataclass(frozen=True, eq=False)
class Observations:
    """TDOA measurement set for one fix, strongest BS as reference.

    ``tdoas[i]`` is the pseudorange of BS ``i + 1`` minus that of the
    reference (index 0), in meters, and ``variances[i]`` the error
    variance of BS i's pseudorange.
    """

    pseudoranges: np.ndarray
    tdoas: np.ndarray
    variances: np.ndarray
    ref_index: int
    post_sinrs: np.ndarray
    true_distances: np.ndarray

    @property
    def covariance(self) -> np.ndarray:
        """TDOA error covariance: shared reference noise makes it a diagonal
        plus a rank-one constant block."""
        var = np.asarray(self.variances, dtype=float)
        return np.diag(var[1:]) + var[0]


@dataclass(frozen=True)
class FixOutcome:
    """Result of one position solve.

    ``position`` is None when no fix was produced; ``method`` records
    the solver path ("chan", "gauss-newton", or "none"), ``condition``
    the conditioning of the first-stage normal equations, and
    ``detected``/``used`` the BS bookkeeping.
    """

    position: tuple[float, float] | None
    error_m: float | None
    detected: int
    used: int
    method: str
    condition: float


# The trials' bound on a fix's distance from its reference BS: three
# radii of the default 250-BS window, 9.8 km.
REACH = 3.0 * math.sqrt(250 / (math.pi * default_scenario(E911Config()).lam))


def solve_batch(positions: np.ndarray, tdoas: np.ndarray, var: np.ndarray, reach=REACH):
    """The production solve of N fixes: the closed-form stages, the polish, the bound.

    ``positions`` (N, m, 2) hold the reference BS first; ``tdoas``
    (N, m-1) and ``var`` (N, m) are the measurements and the per-BS
    error variances.  Returns positions (N, 2), NaN without a fix,
    indices into ``e911._METHODS`` and the stage-one condition numbers.
    """
    return e911._solve(positions, tdoas, var, reach)


def solve_one(measurements: Observations, bs_positions: np.ndarray) -> FixOutcome:
    """One fix as a one-row stack of the batched solver, reference BS first."""
    xy, method, condition = solve_batch(
        *(np.asarray(a, dtype=float)[None]
          for a in (bs_positions, measurements.tdoas, measurements.variances))
    )
    m = len(bs_positions)
    position = None if method[0] == e911._NONE else (float(xy[0, 0]), float(xy[0, 1]))
    return FixOutcome(position, None, m, m, e911._METHODS[method[0]], float(condition[0]))


# --- one realization through the trial pipeline's steps ----------------------


def trial_config(scenario: Scenario, seed: int, trials: int) -> SimConfig:
    """The block-sampler config of E911 trials: the collectors' default window."""
    return simulate._with_window([scenario], SimConfig(realizations=trials, seed=seed))


def row_tails(distances: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Campbell tail mean of Poisson rows, whose reach is the last kept distance."""
    return tail_mean(scenario, SimConfig(realizations=1, seed=0), distances[:, -1])


def draw_one(rng: np.random.Generator, cfg: E911Config, used: int) -> np.ndarray:
    """One trial's (4, used) bearings, NLOS biases, unit ranging noise and clock errors."""
    return np.stack((
        rng.uniform(0.0, 2.0 * math.pi, used),
        rng.exponential(cfg.nlos_mean, used),
        rng.standard_normal(used),
        rng.normal(0.0, cfg.clock_std, used),
    ))


def synthesize_observations(
    realization: Realization,
    scenario: Scenario,
    cfg: E911Config,
    rng: np.random.Generator,
) -> tuple[Observations, np.ndarray]:
    """TDOA measurements of the detected BSs of one realization, and their positions."""
    row = realization.distances[None]
    pw = simulate._powers(row, scenario)
    sinr, detected = e911._detect(pw, row_tails(row, scenario), cfg)
    used = int(min(detected[0], cfg.max_bs_per_fix or detected[0]))
    d = realization.distances[None, :used]
    draws = draw_one(rng, cfg, used)[None]
    positions, tdoas, var, pseudo, post = e911._observe(
        d, sinr[:, :used], draws, scenario, cfg
    )
    return Observations(pseudo[0], tdoas[0], var[0], 0, post[0], d[0].copy()), positions[0]


# --- scalar reference: one realization, one fix at a time --------------------


def _pre_sinrs(realization: Realization, scenario: Scenario) -> np.ndarray:
    """Pre-processing SINR of every BS in a fully loaded network, tail included."""
    pw = realization.distances ** (-scenario.alpha)
    tail = float(row_tails(realization.distances[None], scenario)[0, 0])
    denom = float(np.sum(pw)) + tail - pw
    with np.errstate(divide="ignore"):
        return np.where(denom > 0.0, pw / denom, math.inf)


def detected_count(
    realization: Realization, scenario: Scenario, cfg: E911Config
) -> int:
    """Number of BSs whose pre-processing SINR clears the threshold."""
    return int(np.sum(_pre_sinrs(realization, scenario) >= cfg.pre_sinr_threshold))



def _oracle_gauss_newton(
    tdoas: np.ndarray,
    positions: np.ndarray,
    weight: np.ndarray,
    ref: int,
    x0: np.ndarray,
    detected: int,
    used: int,
    condition: float,
) -> FixOutcome:
    """Damped Gauss-Newton on the weighted TDOA residuals."""
    others = [i for i in range(len(positions)) if i != ref]
    p_ref = positions[ref]
    p_others = positions[others]
    x = np.asarray(x0, dtype=float).copy()

    def residuals(pt: np.ndarray) -> np.ndarray:
        return (
            np.hypot(*(pt - p_others).T)
            - math.hypot(*(pt - p_ref))
            - tdoas
        )

    def cost(pt: np.ndarray) -> float:
        r = residuals(pt)
        return float(r @ weight @ r)

    current = cost(x)
    for _ in range(50):
        diff_o = x - p_others
        dist_o = np.hypot(diff_o[:, 0], diff_o[:, 1])
        diff_r = x - p_ref
        dist_r = math.hypot(*diff_r)
        if np.any(dist_o == 0.0) or dist_r == 0.0:
            break
        jac = diff_o / dist_o[:, None] - diff_r / dist_r
        grad = jac.T @ weight @ residuals(x)
        hess = jac.T @ weight @ jac
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _ in range(20):
            trial = x + scale * step
            if cost(trial) <= current:
                break
            scale *= 0.5
        else:
            break
        x = x + scale * step
        new = cost(x)
        if abs(current - new) <= 1e-12 * (1.0 + current) and np.linalg.norm(
            scale * step
        ) <= 1e-9 * (1.0 + np.linalg.norm(x)):
            current = new
            break
        current = new
    if not np.all(np.isfinite(x)):
        return FixOutcome(None, None, detected, used, "none", condition)
    return FixOutcome(
        (float(x[0]), float(x[1])), None, detected, used, "gauss-newton", condition
    )


def oracle_solve_tdoa(measurements: Observations, bs_positions: np.ndarray) -> FixOutcome:
    """Two-stage weighted least-squares TDOA position solve.

    Stage one linearizes the hyperbolic system by treating the range to
    the reference BS as an extra unknown; stage two enforces the
    quadratic constraint tying that range to the position.  The exact
    rank-one-plus-diagonal TDOA covariance provides the weights.  The
    best closed-form candidate then seeds a damped Gauss-Newton
    refinement of the weighted residuals, which also serves as the
    fallback when the closed-form stages hit ill-conditioned or
    degenerate geometry; outright failure returns a no-fix outcome
    rather than raising.

    ``error_m`` in the returned outcome is left None; the caller knows
    the true position.
    """
    positions = np.asarray(bs_positions, dtype=float)
    m = len(positions)
    detected = m
    if m < _MIN_BS_FOR_FIX or len(measurements.tdoas) != m - 1:
        return FixOutcome(None, None, detected, m, "none", math.nan)
    ref = measurements.ref_index
    p_ref = positions[ref]
    rel = np.delete(positions, ref, axis=0) - p_ref
    r = measurements.tdoas
    cov = measurements.covariance
    try:
        weight = np.linalg.inv(cov)
    except np.linalg.LinAlgError:
        return FixOutcome(None, None, detected, m, "none", math.nan)

    k_sq = np.sum(rel * rel, axis=1)
    h = 0.5 * (r * r - k_sq)
    g_a = -np.column_stack((rel, r))
    if np.linalg.matrix_rank(g_a) < 3:
        return FixOutcome(None, None, detected, m, "none", math.inf)

    def weighted_solve(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        normal = g_a.T @ w @ g_a
        cond = float(np.linalg.cond(normal))
        sol = np.linalg.solve(normal, g_a.T @ w @ h)
        return sol, np.linalg.inv(normal), cond

    try:
        z, _, condition = weighted_solve(weight)
        # Refine the weights with the ranges implied by the first pass.
        dists = np.hypot(rel[:, 0] - z[0], rel[:, 1] - z[1])
        dists = np.maximum(dists, 1e-6 * (1.0 + float(np.max(np.abs(rel)))))
        b = np.diag(dists)
        psi_inv = np.linalg.inv(b @ cov @ b)
        z, cov_z, condition = weighted_solve(psi_inv)
    except np.linalg.LinAlgError:
        return FixOutcome(None, None, detected, m, "none", math.inf)

    if condition > _ILL_CONDITION or not np.all(np.isfinite(z)):
        start = z[:2] + p_ref if np.all(np.isfinite(z)) else positions.mean(axis=0)
        out = _oracle_gauss_newton(r, positions, weight, ref, start, detected, m, condition)
        return out

    scale = 1.0 + float(np.max(np.abs(rel)))
    if min(abs(z[0]), abs(z[1]), abs(z[2])) <= 1e-9 * scale:
        # Stage two divides by the stage-one components; degenerate
        # values would blow up, so polish iteratively instead.
        return _oracle_gauss_newton(r, positions, weight, ref, z[:2] + p_ref, detected, m, condition)

    h2 = z * z
    g2 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b2 = np.diag(z)
    try:
        psi2_inv = np.linalg.inv(4.0 * b2 @ cov_z @ b2)
        normal2 = g2.T @ psi2_inv @ g2
        w2 = np.linalg.solve(normal2, g2.T @ psi2_inv @ h2)
    except np.linalg.LinAlgError:
        return _oracle_gauss_newton(r, positions, weight, ref, z[:2] + p_ref, detected, m, condition)
    roots = np.sqrt(np.maximum(w2, 0.0))
    if not np.all(np.isfinite(roots)):
        return _oracle_gauss_newton(r, positions, weight, ref, z[:2] + p_ref, detected, m, condition)

    # The stage-two unknowns are squared coordinates, leaving a sign
    # ambiguity per axis.  Score the stage-one point and all four
    # stage-two candidates by weighted TDOA residual, then refine the
    # winner with the damped iteration.  At the error magnitudes of a
    # loaded network the raw closed form loses roughly half its accuracy
    # to linearization; the refinement restores the weighted-ML optimum
    # and is what lets high hearability reach the FCC envelope.
    def residual_cost(pt: np.ndarray) -> float:
        dists = np.hypot(rel[:, 0] - pt[0], rel[:, 1] - pt[1])
        res = dists - math.hypot(*pt) - r
        return float(res @ weight @ res)

    candidates = [z[:2]]
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            candidates.append(np.array([sx * roots[0], sy * roots[1]]))
    best_rel = min(candidates, key=residual_cost)
    out = _oracle_gauss_newton(
        r, positions, weight, ref, best_rel + p_ref, detected, m, condition
    )
    if out.position is None:
        return out
    return FixOutcome(out.position, None, detected, m, "chan", condition)


RANGING_AT_UNIT_SINR = 11.6873610268291  # frozen: c/sqrt(8 pi^2 (1e7)^2/12)

NOISELESS = E911Config(bandwidth=math.inf, clock_std=0.0, nlos_mean=0.0)


def square_geometry():
    """Reference BS at the origin plus four corners, strongest first."""
    return np.array(
        [[0.0, 0.0], [500.0, 500.0], [-500.0, 500.0], [500.0, -500.0],
         [-500.0, -500.0]]
    )


def exact_observations(positions: np.ndarray, device: np.ndarray) -> Observations:
    d = np.hypot(positions[:, 0] - device[0], positions[:, 1] - device[1])
    tdoas = d[1:] - d[0]
    var = np.ones(len(d))
    return Observations(d, tdoas, var, 0, np.ones(len(d)), d)


class TestConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="trials"):
            E911Config(trials=50)
        with pytest.raises(ValueError, match="bandwidth"):
            E911Config(bandwidth=0.0)
        with pytest.raises(ValueError, match="bandwidth"):
            E911Config(bandwidth=1e200)  # its square overflows
        with pytest.raises(ValueError, match="min_hearability_grid"):
            E911Config(min_hearability_grid=(3, 4))
        with pytest.raises(ValueError, match="max_bs_per_fix"):
            E911Config(max_bs_per_fix=3)
        # Not integers: a slice index and a comparison would fail later.
        for cap in (5.5, "6"):
            with pytest.raises(ValueError, match="^max_bs_per_fix must be an integer"):
                E911Config(trials=100, max_bs_per_fix=cap)
        with pytest.raises(ValueError, match="pre_sinr_threshold"):
            E911Config(pre_sinr_threshold=0.0)

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(pre_sinr_threshold=math.nan), "^pre_sinr_threshold must .*, got nan$"),
            (dict(processing_gain_db=math.nan), "^processing_gain_db must .*, got nan$"),
            (dict(processing_gain_db=-4000.0), "^processing_gain_db must .*, got -4000.0$"),
            (dict(processing_gain_db=4000.0), "^processing_gain_db must .*, got 4000.0$"),
            (
                dict(pre_sinr_threshold=1e308),
                r"^pre_sinr_threshold=1e\+308 and processing_gain_db=8.0 give .* beta",
            ),
            (
                dict(pre_sinr_threshold=5e-324, processing_gain_db=-10.0),
                r"^pre_sinr_threshold=5e-324 and processing_gain_db=-10.0 give .* beta",
            ),
        ],
        ids=["threshold_nan", "gain_nan", "gain_underflow", "gain_overflow",
             "beta_overflow", "beta_underflow"],
    )
    def test_rejects_what_default_scenario_cannot_build(self, changes, message):
        # Named by the config's own fields, not by the Scenario they build.
        with pytest.raises(ValueError, match=message):
            E911Config(**changes)

    @pytest.mark.parametrize(
        "field",
        ["alpha", "shadow_sigma_db", "hex_isd", "pre_sinr_threshold", "processing_gain_db"],
    )
    def test_rejects_an_infinite_field(self, field):
        # Caught here, naming the field, rather than by a later layer.
        with pytest.raises(ValueError, match=f"^{field} must .*, got inf$"):
            E911Config(**{field: math.inf})

    def test_default_scenario_wiring(self):
        cfg = E911Config()
        scen = default_scenario(cfg)
        lam = effective_density(hex_grid_density(500.0), 3.76, 8.0)
        np.testing.assert_allclose(scen.lam, lam, rtol=1e-12)
        assert scen.sigma_db == 0.0  # folded into lam, not drawn again
        np.testing.assert_allclose(scen.lam, 7.4645294e-06, rtol=1e-6)
        gamma = 10.0 ** 0.8
        np.testing.assert_allclose(scen.gamma, gamma, rtol=1e-12)
        # Detection uses the pre-processing SINR, so beta folds the
        # processing gain back in: beta/gamma = pre_sinr_threshold.
        np.testing.assert_allclose(
            scen.beta / scen.gamma, cfg.pre_sinr_threshold, rtol=1e-12
        )
        assert scen.p == scen.q == 1.0 and scen.L == 4


class TestRangingStddev:
    def test_frozen_unit_sinr_value(self):
        np.testing.assert_allclose(
            ranging_stddev(1.0, E911Config()), RANGING_AT_UNIT_SINR, rtol=1e-12
        )

    def test_inline_rederivation(self):
        cfg = E911Config()
        expected = 299792458.0 / math.sqrt(8.0 * math.pi**2 * 1e14 / 12.0)
        np.testing.assert_allclose(ranging_stddev(1.0, cfg), expected, rtol=1e-12)

    def test_scaling_laws(self):
        cfg = E911Config()
        base = ranging_stddev(1.0, cfg)
        np.testing.assert_allclose(ranging_stddev(4.0, cfg), base / 2.0, rtol=1e-12)
        np.testing.assert_allclose(
            ranging_stddev(1.0, cfg.replace(bandwidth=2e7)), base / 2.0, rtol=1e-12
        )

    def test_infinite_bandwidth_is_noiseless(self):
        assert ranging_stddev(1.0, E911Config(bandwidth=math.inf)) == 0.0

    def test_rejects_nonpositive_sinr(self):
        with pytest.raises(ValueError, match="post_sinr"):
            ranging_stddev(0.0, E911Config())


@pytest.fixture()
def one_realization():
    # Trial 18 at seed 3 hears 6 BSs, enough for every path below.
    cfg = E911Config()
    scen = default_scenario(cfg)
    sim = trial_config(scen, seed=3, trials=20)
    d, active = block_rows(scen, sim)
    return cfg, scen, Realization(d[18], active[18], np.ones(d.shape[1], dtype=np.int64))


class TestSynthesize:
    def test_noiseless_measurements_are_exact(self, one_realization):
        _, scen, real = one_realization
        rng = stream(0, 0, 6)
        obs, positions = synthesize_observations(real, scen, NOISELESS, rng)
        used = len(obs.pseudoranges)
        assert used >= 4
        np.testing.assert_allclose(obs.pseudoranges, real.distances[:used], rtol=1e-12)
        np.testing.assert_allclose(
            obs.tdoas, real.distances[1:used] - real.distances[0], rtol=1e-9
        )
        np.testing.assert_allclose(
            np.hypot(positions[:, 0], positions[:, 1]),
            real.distances[:used],
            rtol=1e-12,
        )
        # Noiseless ranging weighs every BS alike.
        np.testing.assert_array_equal(obs.variances, np.ones(used))

    def test_detection_prefix_sets_used_count(self, one_realization):
        cfg, scen, real = one_realization
        rng = stream(0, 0, 6)
        obs, _ = synthesize_observations(real, scen, cfg, rng)
        assert len(obs.pseudoranges) == detected_count(real, scen, cfg)

    def test_bs_cap_limits_fix_size(self, one_realization):
        cfg, scen, real = one_realization
        capped = cfg.replace(max_bs_per_fix=5)
        obs, positions = synthesize_observations(real, scen, capped, stream(0, 0, 6))
        assert len(obs.pseudoranges) <= 5 and len(positions) <= 5

    def test_nlos_bias_statistics(self, one_realization):
        _, scen, real = one_realization
        nlos_only = E911Config(bandwidth=math.inf, clock_std=0.0, nlos_mean=30.0)
        biases = []
        for i in range(300):
            rng = stream(11, i, 6)
            obs, _ = synthesize_observations(real, scen, nlos_only, rng)
            used = len(obs.pseudoranges)
            biases.append(obs.pseudoranges - real.distances[:used])
        pooled = np.concatenate(biases)
        assert np.all(pooled >= 0.0)
        se = 30.0 / math.sqrt(len(pooled))  # exponential: std = mean
        assert abs(pooled.mean() - 30.0) <= 3.0 * se

    def test_covariance_structure(self, one_realization):
        cfg, scen, real = one_realization
        obs, _ = synthesize_observations(real, scen, cfg, stream(0, 0, 6))
        sigma = np.array([ranging_stddev(s, cfg) for s in obs.post_sinrs])
        var = sigma**2 + (e911.SPEED_OF_LIGHT * cfg.clock_std) ** 2
        np.testing.assert_allclose(obs.variances, var, rtol=1e-12)


class TestDetect:
    """``_detect``, on the first b + 1 columns, against SINRs of whole rows."""

    @staticmethod
    def _whole_rows(pw, tail, cfg):
        denom = (np.sum(pw, axis=1, keepdims=True) + tail) - pw
        sinr = np.divide(pw, denom, out=np.full_like(pw, math.inf), where=denom > 0.0)
        return sinr, np.count_nonzero(sinr >= cfg.pre_sinr_threshold, axis=1)

    def _columns(self, d, scenario, cfg) -> int:
        """Checks ``_detect`` on ``d``; returns how many SINR columns it gave."""
        pw, tail = simulate._powers(d, scenario), row_tails(d, scenario)
        sinr, counts = e911._detect(pw, tail, cfg)
        ref_sinr, ref_counts = self._whole_rows(pw, tail, cfg)
        np.testing.assert_array_equal(counts, ref_counts)
        width = sinr.shape[1]
        assert width >= counts.max()
        assert sinr.tobytes() == np.ascontiguousarray(ref_sinr[:, :width]).tobytes()
        return width

    @pytest.fixture()
    def blocks(self):
        cfg = E911Config()
        scen = default_scenario(cfg)
        sim = trial_config(scen, seed=5, trials=64)
        d, _ = block_rows(scen, sim)
        return cfg, scen, [d[i : i + 16] for i in range(0, 64, 16)]

    def test_sinrs_cover_the_first_b_plus_one_columns(self, blocks):
        cfg, scen, ds = blocks
        for theta, want in ((cfg.pre_sinr_threshold, 22), (1e-2, 103)):
            low = cfg.replace(pre_sinr_threshold=theta)
            for d in ds:
                assert self._columns(d, scen, low) == want
                assert want == min(d.shape[1], e911._bound(theta, d.shape[1]) + 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_block_powers_never_rise_along_a_row(self, seed):
        # The bound b rests on this: the detected BSs lead their row.
        scen, sim = e911._trial_window(E911Config(), seed)
        for block in range(64):
            pw = simulate._BlockDraws(sim, block, simulate._BLOCK).powers(scen)
            assert np.all(np.diff(pw, axis=1) <= 0.0)

    def test_detection_beyond_the_leading_columns_takes_whole_rows(self, blocks):
        _, scen, ds = blocks
        low = E911Config(pre_sinr_threshold=1e-4)
        tail = row_tails(ds[0], scen)
        counts = self._whole_rows(simulate._powers(ds[0], scen), tail, low)[1]
        assert counts.max() > e911._width(E911Config(), ds[0].shape[1])
        for d in ds:
            assert self._columns(d, scen, low) == d.shape[1]


class TestSolveTdoa:
    def test_noiseless_point_recovered(self):
        device = np.array([100.0, 50.0])
        positions = square_geometry()
        out = solve_one(exact_observations(positions, device), positions)
        assert out.position is not None
        np.testing.assert_allclose(out.position, device, atol=1e-6)
        assert out.method in ("chan", "gauss-newton")

    def test_degenerate_centroid_point(self):
        # At the centroid the stage-one unknowns vanish; the solver must
        # fall through to the iterative path and still land exactly.
        device = np.array([0.0, 0.0])
        positions = square_geometry()
        out = solve_one(exact_observations(positions, device), positions)
        np.testing.assert_allclose(out.position, device, atol=1e-6)

    def test_translation_and_rotation_equivariance(self):
        device = np.array([120.0, -80.0])
        positions = square_geometry()
        base = solve_one(exact_observations(positions, device), positions)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # 90 degrees
        shift = np.array([1000.0, -300.0])
        moved_pos = positions @ rot.T + shift
        moved_dev = rot @ device + shift
        moved = solve_one(exact_observations(moved_pos, moved_dev), moved_pos)
        np.testing.assert_allclose(
            np.asarray(moved.position), rot @ np.asarray(base.position) + shift,
            atol=1e-6,
        )

    def test_closed_form_tracks_oracle_under_noise(self):
        # Fixed five-BS geometry, 10 m Gaussian pseudorange noise: the
        # production solver must stay within 20% of the median error of
        # a weighted Gauss-Newton oracle started at the truth, on
        # identical draws.
        device = np.array([30.0, -20.0])
        positions = square_geometry()
        d = np.hypot(positions[:, 0] - device[0], positions[:, 1] - device[1])
        var = np.full(5, 100.0)
        weight = np.linalg.inv(np.eye(4) * 100.0 + 100.0)
        rng = np.random.Generator(np.random.Philox(2024))
        tdoas, oracle_err = [], []
        for _ in range(3000):
            pseudo = d + rng.normal(0.0, 10.0, size=5)
            tdoas.append(pseudo[1:] - pseudo[0])
            oracle_err.append(
                _oracle_gn_error(tdoas[-1], positions, weight, device)
            )
        # The production solver takes all 3000 fixes as one stack.
        n = len(tdoas)
        xy, method, _ = solve_batch(
            np.broadcast_to(positions, (n, 5, 2)),
            np.array(tdoas),
            np.broadcast_to(var, (n, 5)),
        )
        assert np.all(method != e911._NONE)
        solver_err = np.hypot(xy[:, 0] - device[0], xy[:, 1] - device[1])
        ratio = np.median(solver_err) / np.median(oracle_err)
        assert 0.8 <= ratio <= 1.2


def _oracle_gn_error(tdoas, positions, weight, device) -> float:
    """Weighted Gauss-Newton from the true point; reference solver."""
    x = device.astype(float).copy()
    p_ref = positions[0]
    p_others = positions[1:]
    for _ in range(60):
        diff_o = x - p_others
        dist_o = np.hypot(diff_o[:, 0], diff_o[:, 1])
        dist_r = math.hypot(*(x - p_ref))
        res = dist_o - dist_r - tdoas
        jac = diff_o / dist_o[:, None] - (x - p_ref) / dist_r
        step = np.linalg.solve(jac.T @ weight @ jac, -(jac.T @ weight @ res))
        x = x + step
        if np.linalg.norm(step) < 1e-10:
            break
    return math.hypot(*(x - device))


def _random_fixes(rng: np.random.Generator, count: int) -> list[tuple]:
    """Noisy fixes with 4 to 9 BSs around a device at the origin.

    Each is (positions, TDOAs, per-BS error variances), reference BS
    first, with per-BS ranging noise, an exponential NLOS bias and a
    shared clock error.
    """
    fixes = []
    for _ in range(count):
        m = int(rng.integers(4, 10))
        d = np.sort(rng.uniform(50.0, 3000.0, m))
        angles = rng.uniform(0.0, 2.0 * math.pi, m)
        positions = np.column_stack((d * np.cos(angles), d * np.sin(angles)))
        sigma = rng.uniform(3.0, 60.0, m)
        var = sigma**2 + 30.0**2
        pseudo = (d + rng.exponential(30.0, m) + rng.normal(0.0, 1.0, m) * sigma
                  + rng.normal(0.0, 30.0, m))
        fixes.append((positions, pseudo[1:] - pseudo[0], var))
    return fixes


def _exact_fix(positions, device, var) -> tuple:
    d = np.hypot(positions[:, 0] - device[0], positions[:, 1] - device[1])
    return positions, d[1:] - d[0], var


# The device sits at the reference BS, the centroid of the corners: the
# stage-one unknowns vanish and the polish starts from them.
CENTROID_FIX = _exact_fix(square_geometry(), (0.0, 0.0), np.ones(5))
# Collinear BSs: the stage-one design matrix has rank 2, so no fix.
COLLINEAR_FIX = _exact_fix(
    np.array([[0.0, 0.0], [300.0, 0.0], [-500.0, 0.0], [900.0, 0.0], [-1200.0, 0.0]]),
    (50.0, 80.0), np.ones(5),
)
# A far device: the polish runs to a point, beyond the bound, where every
# unit vector from a BS has the same y component, so the Hessian is
# exactly singular there.
SINGULAR_FIX = _exact_fix(
    np.array([[-660.0, 971.0], [-412.0, 817.0], [-916.0, -709.0], [-924.0, -427.0]]),
    (0.0, -2000000000.0), np.ones(4),
)
SPECIAL_ROWS = {0: CENTROID_FIX, 700: COLLINEAR_FIX, 1401: SINGULAR_FIX}


def _solve_all(fixes: list[tuple]):
    """Batched positions, methods and conditions of fixes, one stack per BS count."""
    xy = np.empty((len(fixes), 2))
    method = np.empty(len(fixes), dtype=int)
    condition = np.empty(len(fixes))
    counts = np.array([len(f[0]) for f in fixes])
    for m in np.unique(counts):
        rows = np.flatnonzero(counts == m)
        stacks = (np.array([fixes[i][j] for i in rows]) for j in range(3))
        xy[rows], method[rows], condition[rows] = solve_batch(*stacks)
    return xy, method, condition


def _bits(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


@pytest.fixture(scope="module")
def mixed_fixes():
    fixes = _random_fixes(np.random.default_rng(5), 2000)
    for row, fix in SPECIAL_ROWS.items():
        fixes.insert(row, fix)
    return fixes


class TestBatchedSolve:
    def test_every_fix_matches_the_scalar_reference(self, mixed_fixes):
        # Every row takes the scalar solver's path, except that a scalar fix
        # beyond the bound (a runaway polish) is a "beyond-bound" no-fix.
        # The closed-form solves and elementwise sums round unlike
        # np.linalg's, so fixes agree to 1 cm (2.7 mm measured).
        xy, method, condition = _solve_all(mixed_fixes)
        worst, runaways = 0.0, 0
        for i, (positions, tdoas, var) in enumerate(mixed_fixes):
            ref = oracle_solve_tdoa(Observations(None, tdoas, var, 0, None, None), positions)
            far = ref.position is not None and (
                math.hypot(*(np.subtract(ref.position, positions[0]))) > REACH
            )
            runaways += far
            assert e911._METHODS[method[i]] == ("beyond-bound" if far else ref.method), i
            assert (ref.position is None or far) == bool(np.isnan(xy[i]).all()), i
            if ref.condition > _ILL_CONDITION:
                # Past the threshold both read rounding: eps * cond relative.
                assert condition[i] > _ILL_CONDITION, i
            else:
                # Smith's eigenvalues lose up to sqrt(eps) relative where
                # two eigenvalues nearly coincide (5e-9 measured).
                np.testing.assert_allclose(condition[i], ref.condition, rtol=1e-7)
            if ref.position is not None and not far:
                worst = max(worst, math.hypot(*(xy[i] - ref.position)))
        assert worst <= 0.01
        assert runaways == 11

    def test_special_rows_take_their_paths(self, mixed_fixes):
        xy, method, condition = _solve_all(mixed_fixes)
        centroid, collinear, singular = SPECIAL_ROWS
        np.testing.assert_allclose(xy[centroid], (0.0, 0.0), atol=1e-6)
        assert method[collinear] == e911._NONE and condition[collinear] == math.inf
        assert method[singular] == e911._BEYOND_BOUND
        assert np.isnan(xy[singular]).all()
        # Unbounded, the polish stops where its Gauss-Newton Hessian is
        # singular, beyond the bound.
        positions, tdoas, var = SINGULAR_FIX
        far, far_method, _ = solve_batch(positions[None], tdoas[None], var[None], math.inf)
        assert e911._METHODS[far_method[0]] in ("chan", "gauss-newton")
        assert math.hypot(*(far[0] - positions[0])) > REACH
        diff = far[0] - positions
        unit = diff / np.hypot(diff[:, 0], diff[:, 1])[:, None]
        jac = unit[1:] - unit[0]
        cov = np.diag(var[1:]) + var[0]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(jac.T @ np.linalg.inv(cov) @ jac, np.ones(2))

    def test_no_linalg_call(self, mixed_fixes, monkeypatch):
        # The weights come by Sherman-Morrison and every 2x2 and 3x3 system
        # in closed form, so no np.linalg routine runs, singular rows included.
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called")

        for name in np.linalg.__all__:
            if name != "LinAlgError":
                monkeypatch.setattr(np.linalg, name, refuse)
        _solve_all(mixed_fixes)
        assert collect_trials(E911Config(trials=1000), seed=0).shape == (1000, 2)

    def test_rows_do_not_depend_on_their_batch(self, mixed_fixes):
        counts = np.array([len(f[0]) for f in mixed_fixes])
        for m in np.unique(counts):
            rows = np.flatnonzero(counts == m)
            stacks = [np.array([mixed_fixes[i][j] for i in rows]) for j in range(3)]
            full = solve_batch(*stacks)
            for at in range(0, len(rows), 37):
                part = solve_batch(*(s[at : at + 37] for s in stacks))
                assert _bits(*part) == _bits(*(a[at : at + 37] for a in full))
            alone = [k for k, i in enumerate(rows) if i % 9 == 0 or i in SPECIAL_ROWS]
            for k in alone:
                one = solve_batch(*(s[k : k + 1] for s in stacks))
                assert _bits(*one) == _bits(*(a[k : k + 1] for a in full))


class TestTrials:
    def test_trial_span_deterministic(self):
        cfg = E911Config(trials=100)
        a = e911._trial_span(cfg, 5, 17, 33)
        assert a.tobytes() == e911._trial_span(cfg, 5, 17, 33).tobytes()
        assert a.tobytes() != e911._trial_span(cfg, 6, 17, 33).tobytes()
        assert np.all(a[:, e911._DETECTED] >= a[:, e911._USED])
        assert np.all(a[:, e911._USED] >= 0)

    def test_collect_trials_worker_invariant(self):
        cfg = E911Config(trials=200)
        serial = collect_trials(cfg, seed=9, workers=1)
        parallel = collect_trials(cfg, seed=9, workers=3)
        np.testing.assert_array_equal(serial, parallel)
        assert serial.shape == (200, 2)
        assert np.all(serial[:, 0] == np.round(serial[:, 0]))

    def test_one_trial_span_is_a_row_of_collect_trials(self):
        # 203 trials end in a short block of 11 (192..202).
        cfg = E911Config(trials=203)
        table = collect_trials(cfg, seed=4)
        columns = [e911._DETECTED, e911._ERROR]
        for i in (0, 15, 16, 100, 191, 192, 197, 202):
            row = e911._trial_span(cfg, 4, i, i + 1)[0, columns]
            assert row.tobytes() == table[i].tobytes()
        assert np.isfinite(table[192:, 1]).any()
        # A shorter run is a prefix of a longer one.
        prefix = collect_trials(cfg.replace(trials=MIN_TRIALS), seed=4)
        assert prefix.tobytes() == table[:MIN_TRIALS].tobytes()

    def test_too_few_bs_is_no_fix(self):
        # A TDOA fix needs 4 BSs; a trial that heard fewer uses none.
        cfg = E911Config(trials=203)
        table = e911._trial_span(cfg, 4, 0, cfg.trials)
        few = table[:, e911._DETECTED] < _MIN_BS_FOR_FIX
        assert 0 < few.sum() < len(few)
        assert np.all(table[few, e911._METHOD] == e911._NONE)
        assert np.all(table[few, e911._USED] == 0)
        assert np.isnan(table[few, e911._ERROR]).all()

    def test_span_cuts_concatenate_to_one_span(self):
        cfg = E911Config(trials=203)
        whole = e911._trial_span(cfg, 4, 0, 203)
        cuts = [e911._trial_span(cfg, 4, a, b) for a, b in ((0, 48), (48, 112), (112, 203))]
        assert np.concatenate(cuts).tobytes() == whole.tobytes()
        for a, b in ((57, 130), (197, 198)):
            assert e911._trial_span(cfg, 4, a, b).tobytes() == whole[a:b].tobytes()

    def test_one_polish_per_used_count(self, monkeypatch):
        # The closed form and the polish each run once per used count,
        # on all of its fixes at once.
        calls = {"_closed_form": [], "_gauss_newton": []}

        def spy(name):
            fn = getattr(e911, name)

            def counted(x, *args):
                calls[name].append(len(x))
                return fn(x, *args)

            return counted

        for name in calls:
            monkeypatch.setattr(e911, name, spy(name))
        detected = collect_trials(E911Config(), seed=0)[:, 0]
        counts = np.unique(detected[detected >= _MIN_BS_FOR_FIX])
        solved = calls["_closed_form"]
        assert len(solved) == len(calls["_gauss_newton"]) == len(counts)
        assert sum(solved) == np.count_nonzero(detected >= _MIN_BS_FOR_FIX)

    @pytest.mark.parametrize(
        "changes, width",
        [({}, 21), (dict(pre_sinr_threshold=1e-4), 250),
         (dict(pre_sinr_threshold=0.5), 4), (dict(max_bs_per_fix=5), 5)],
        ids=["default", "low-threshold", "high-threshold", "capped"],
    )
    def test_used_counts_fit_the_nuisance_width(self, changes, width):
        # Trial i is row i of the block sampler at the trials' window.
        cfg = E911Config(**changes)
        scen = default_scenario(cfg)
        d, _ = block_rows(scen, trial_config(scen, seed=6, trials=320))
        assert e911._width(cfg, d.shape[1]) == width
        _, detected = e911._detect(simulate._powers(d, scen), row_tails(d, scen), cfg)
        used = np.minimum(detected, cfg.max_bs_per_fix or d.shape[1])
        assert used.max() <= width

    def test_a_trial_past_the_nuisance_width_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(e911, "_width", lambda cfg, n: _MIN_BS_FOR_FIX)
        cfg = E911Config(trials=MIN_TRIALS)
        with pytest.raises(RuntimeError, match="nuisance columns"):
            e911._trial_span(cfg, 0, 0, cfg.trials)

    def test_collect_trials_byte_identical_across_workers(self):
        cfg = E911Config(trials=203)
        tables = [collect_trials(cfg, seed=4, workers=w).tobytes() for w in (1, 2, 3)]
        assert tables[0] == tables[1] == tables[2]

    def test_detection_rate_matches_hearability_model(self):
        # P(detected >= 4) from the positioning path must agree with the
        # plain Monte Carlo P_4 at the same scenario.
        cfg = E911Config(trials=2000)
        scen = default_scenario(cfg)
        trials = collect_trials(cfg, seed=2)
        rate = float((trials[:, 0] >= 4).mean())
        sim = SimConfig(realizations=2000, seed=77)
        [margins] = collect_margins([scen], sim)
        ref = exceedance_curve(margins[:, 0], [scen.beta / scen.gamma])[0]
        se = math.hypot(ref.stderr, math.sqrt(rate * (1 - rate) / cfg.trials))
        assert abs(rate - ref.estimate) <= 3.0 * se


class TestWindowSaturation:
    """A threshold that could detect a whole window is rejected, not capped."""

    def test_low_threshold_is_rejected_naming_the_key(self):
        # At seed 6 and theta = 1e-4, rows would detect all 250 BSs of
        # the default window, whose count then stops at the window.
        cfg = E911Config(pre_sinr_threshold=1e-4, trials=320)
        with pytest.raises(ValueError, match=r"^pre_sinr_db=-40 .* every BS of its 250-BS"):
            collect_trials(cfg, seed=6)
        with pytest.raises(ValueError, match="pre_sinr_db=-40"):
            e911._trial_span(cfg, 6, 0, simulate._BLOCK)

    def test_the_boundary_is_floor_one_plus_inverse_theta_plus_two(self):
        # floor(1 + 1/theta) + 2 BSs fit the 250-BS window at 1/247, not at 1/248.
        with pytest.raises(ValueError, match="must exceed -23.94 dB"):
            collect_trials(E911Config(pre_sinr_threshold=1.0 / 248.0, trials=320), seed=6)
        detected = collect_trials(E911Config(pre_sinr_threshold=1.0 / 247.0, trials=320),
                                  seed=6)[:, 0]
        assert 4 < detected.max() < 250


class TestCompliance:
    def test_table_structure(self):
        cfg = E911Config(trials=2000)
        rows = fcc_compliance(cfg, seed=1)
        assert [r.min_hearability for r in rows] == [4, 5, 6, 7, 8]
        fixes = [r.fixes for r in rows]
        assert all(a >= b for a, b in zip(fixes, fixes[1:]))
        rates = [r.no_fix_rate for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
        for r in rows:
            assert r.p67_m <= r.p90_m
            assert r.passes == (r.p67_m <= FCC_P67_M and r.p90_m <= FCC_P90_M)
            np.testing.assert_allclose(r.no_fix_rate, 1.0 - r.fixes / cfg.trials)

    def test_runaway_polishes_become_beyond_bound_no_fixes(self, monkeypatch):
        # At seed 0, 42 polishes run away (past 5e9 m).  Each becomes a
        # "beyond-bound" no-fix, the other rows keep their bits, and no
        # reported fix lies beyond the bound from its reference BS.
        solve, runaways = e911._solve, []

        def bounded(positions, tdoas, var, reach):
            out = solve(positions, tdoas, var, reach)
            free = solve(positions, tdoas, var, math.inf)
            xy, method, _ = out
            beyond = method == e911._BEYOND_BOUND
            assert reach == REACH
            assert np.all(np.isin(free[1][beyond], (e911._CHAN, e911._GAUSS_NEWTON)))
            assert _bits(xy[~beyond], method[~beyond]) == _bits(free[0][~beyond], free[1][~beyond])
            fixed = np.isin(method, (e911._CHAN, e911._GAUSS_NEWTON))
            assert np.all(np.hypot(*(xy[fixed] - positions[fixed, 0]).T) <= reach)
            runaways.extend(np.hypot(*(free[0][beyond] - positions[beyond, 0]).T))
            return out

        monkeypatch.setattr(e911, "_solve", bounded)
        cfg = E911Config()
        table = e911._trial_span(cfg, 0, 0, cfg.trials)
        method = table[:, e911._METHOD]
        fixed = np.isin(method, (e911._CHAN, e911._GAUSS_NEWTON))
        assert (fixed.sum(), np.sum(method == e911._BEYOND_BOUND)) == (1349, 42)
        assert len(runaways) == 42 and min(runaways) > 5e9
        assert np.isnan(table[~fixed, e911._ERROR]).all()
        errors = table[:, e911._ERROR]
        for row in fcc_compliance(cfg, seed=0):
            eligible = fixed & (table[:, e911._DETECTED] >= row.min_hearability)
            assert eligible.sum() == row.fixes
            assert np.percentile(errors[eligible], 67.0) == row.p67_m
            assert np.percentile(errors[eligible], 90.0) == row.p90_m

    def test_percentiles_follow_numpys_linear_rule(self):
        rng = np.random.default_rng(11)
        samples = [np.sort(rng.lognormal(3.0, 2.0, n)) for n in (1, 2, 3, 9, 10, 11, 72, 1349)]
        table = e911._trial_span(E911Config(), 7, 0, 4000)
        errors = table[:, e911._ERROR]
        samples.append(np.sort(errors[np.isfinite(errors)]))
        for ordered in samples:
            for q in (0.0, 10.0, 50.0, 67.0, 90.0, 99.0, 100.0):
                assert e911._percentile(ordered, q) == np.percentile(ordered, q), (len(ordered), q)

    def test_accuracy_improves_with_hearability(self):
        rows = fcc_compliance(E911Config(trials=2000), seed=1)
        p67 = [r.p67_m for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(p67, p67[1:]))

    def test_nlos_removal_helps(self):
        cfg = E911Config(trials=1000)
        with_nlos = fcc_compliance(cfg, seed=3)
        without = fcc_compliance(cfg.replace(nlos_mean=0.0), seed=3)
        assert without[0].p67_m < with_nlos[0].p67_m
