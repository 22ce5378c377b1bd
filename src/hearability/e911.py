"""End-to-end TDOA positioning accuracy versus BS hearability.

Simulates a handset-based downlink TDOA (OTDOA-like) fix: BSs deployed
at a hex-equivalent density with shadowing folded into an effective
density, detection gated by a pre-processing SINR threshold, per-link
ranging errors from the TOA CRLB at the post-processing SINR plus an
exponential non-line-of-sight bias and per-BS clock error, and a
two-stage weighted least-squares position solve with the strongest BS
as reference.  The output is the FCC E911 compliance table: horizontal
error percentiles versus the minimum number of heard BSs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .model import Realization, Scenario, ShadowingSpec, effective_density, hex_grid_density
from .parallel import map_spans
from .simulate import ROLE_E911, SimConfig, sample_ppp, stream

__all__ = [
    "E911Config",
    "Observations",
    "FixOutcome",
    "ComplianceRow",
    "default_scenario",
    "ranging_stddev",
    "synthesize_observations",
    "solve_tdoa",
    "run_trial",
    "collect_trials",
    "fcc_compliance",
]

# FCC E911 handset-based accuracy mandate.
FCC_P67_M = 50.0
FCC_P90_M = 150.0

_MIN_BS_FOR_FIX = 4
_ILL_CONDITION = 1e12


@dataclass(frozen=True)
class E911Config:
    """Positioning-experiment parameters.

    Attributes:
        bandwidth: positioning signal bandwidth in Hz; ``math.inf``
            turns the CRLB ranging noise off (noiseless ranging).
        clock_std: per-BS clock error standard deviation in seconds.
        nlos_mean: mean of the exponential non-line-of-sight range bias
            in meters (0 disables it).
        pre_sinr_threshold: linear pre-processing SINR required for a BS
            to be detected (beta/gamma).
        alpha: path loss exponent.
        shadow_sigma_db: log-normal shadowing standard deviation in dB,
            folded into the effective deployment density.
        hex_isd: intersite distance of the equivalent hex grid, meters.
        trials: number of positioning trials.
        min_hearability_grid: minimum heard-BS counts for the
            compliance table; each entry >= 4 (a TDOA fix needs 4 BSs).
        speed_of_light: meters per second.
        processing_gain_db: despreading gain applied between detection
            and ranging; sets the post-processing SINR in the CRLB.
        rms_bandwidth_factor: ``beta_rms**2 = factor * bandwidth**2``;
            1/12 for a flat spectrum, 1/3 for band-edge-weighted.
        max_bs_per_fix: cap on how many detected BSs enter the solver
            (None = use all detected).
        expected_bs: mean BS count in the sampling window per trial.
    """

    bandwidth: float = 1e7
    clock_std: float = 1e-7
    nlos_mean: float = 30.0
    pre_sinr_threshold: float = 10.0 ** (-1.3)
    alpha: float = 3.76
    shadow_sigma_db: float = 8.0
    hex_isd: float = 500.0
    trials: int = 4000
    min_hearability_grid: tuple[int, ...] = (4, 5, 6, 7, 8)
    speed_of_light: float = 299792458.0
    processing_gain_db: float = 8.0
    rms_bandwidth_factor: float = 1.0 / 12.0
    max_bs_per_fix: int | None = None
    expected_bs: int = 1000

    def __post_init__(self) -> None:
        if not (self.bandwidth > 0.0):
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if not (self.clock_std >= 0.0 and math.isfinite(self.clock_std)):
            raise ValueError(f"clock_std must be nonnegative, got {self.clock_std}")
        if not (self.nlos_mean >= 0.0 and math.isfinite(self.nlos_mean)):
            raise ValueError(f"nlos_mean must be nonnegative, got {self.nlos_mean}")
        if not (self.pre_sinr_threshold > 0.0):
            raise ValueError(
                f"pre_sinr_threshold must be positive, got {self.pre_sinr_threshold}"
            )
        if not (self.alpha > 2.0):
            raise ValueError(f"alpha must exceed 2, got {self.alpha}")
        if not (self.shadow_sigma_db >= 0.0):
            raise ValueError(
                f"shadow_sigma_db must be nonnegative, got {self.shadow_sigma_db}"
            )
        if not (self.hex_isd > 0.0):
            raise ValueError(f"hex_isd must be positive, got {self.hex_isd}")
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 100:
            raise ValueError(f"trials must be an integer >= 100, got {self.trials!r}")
        if not self.min_hearability_grid or any(
            (not isinstance(v, (int, np.integer))) or v < _MIN_BS_FOR_FIX
            for v in self.min_hearability_grid
        ):
            raise ValueError(
                "min_hearability_grid entries must be integers >= "
                f"{_MIN_BS_FOR_FIX}, got {self.min_hearability_grid!r}"
            )
        if not (self.speed_of_light > 0.0):
            raise ValueError(
                f"speed_of_light must be positive, got {self.speed_of_light}"
            )
        if not (self.rms_bandwidth_factor > 0.0):
            raise ValueError(
                f"rms_bandwidth_factor must be positive, got {self.rms_bandwidth_factor}"
            )
        if self.max_bs_per_fix is not None and self.max_bs_per_fix < _MIN_BS_FOR_FIX:
            raise ValueError(
                f"max_bs_per_fix must be >= {_MIN_BS_FOR_FIX} or None, "
                f"got {self.max_bs_per_fix!r}"
            )
        if not isinstance(self.expected_bs, (int, np.integer)) or self.expected_bs < 100:
            raise ValueError(f"expected_bs must be >= 100, got {self.expected_bs!r}")

    def replace(self, **changes) -> "E911Config":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True, eq=False)
class Observations:
    """TDOA measurement set for one trial, strongest BS as reference.

    ``tdoas[i]`` is the pseudorange of BS ``i + 1`` minus that of the
    reference (index 0), in meters.  ``covariance`` is the TDOA error
    covariance: shared reference noise makes it a diagonal plus a
    rank-one constant block.
    """

    pseudoranges: np.ndarray
    tdoas: np.ndarray
    covariance: np.ndarray
    ref_index: int
    post_sinrs: np.ndarray
    true_distances: np.ndarray


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


def default_scenario(cfg: E911Config) -> Scenario:
    """Scenario matching the experiment: fully loaded, no coordination.

    Shadowing enters through the effective density, so plain Poisson
    sampling of this scenario already reflects it.
    """
    lam = effective_density(
        hex_grid_density(cfg.hex_isd),
        cfg.alpha,
        ShadowingSpec(cfg.shadow_sigma_db, enabled=True),
    )
    gamma = 10.0 ** (cfg.processing_gain_db / 10.0)
    return Scenario(
        lam=lam,
        alpha=cfg.alpha,
        p=1.0,
        q=1.0,
        beta=cfg.pre_sinr_threshold * gamma,
        gamma=gamma,
        L=_MIN_BS_FOR_FIX,
    )


def ranging_stddev(post_sinr: float, cfg: E911Config) -> float:
    """TOA ranging error standard deviation in meters from the CRLB.

    ``c / sqrt(8 pi^2 beta_rms^2 SNR)`` with
    ``beta_rms^2 = rms_bandwidth_factor * bandwidth**2``.  Infinite
    bandwidth returns 0 (noiseless ranging).
    """
    if not (post_sinr > 0.0):
        raise ValueError(f"post_sinr must be positive, got {post_sinr}")
    if math.isinf(cfg.bandwidth):
        return 0.0
    beta_rms_sq = cfg.rms_bandwidth_factor * cfg.bandwidth**2
    return cfg.speed_of_light / math.sqrt(8.0 * math.pi**2 * beta_rms_sq * post_sinr)


def _pre_sinrs(realization: Realization, scenario: Scenario) -> np.ndarray:
    """Pre-processing SINR of every BS in a fully loaded network."""
    pw = scenario.tx_power * realization.distances ** (-scenario.alpha)
    denom = float(np.sum(pw)) - pw + scenario.noise_sigma2
    with np.errstate(divide="ignore"):
        return np.where(denom > 0.0, pw / denom, math.inf)


def detected_count(
    realization: Realization, scenario: Scenario, cfg: E911Config
) -> int:
    """Number of BSs whose pre-processing SINR clears the threshold."""
    return int(np.sum(_pre_sinrs(realization, scenario) >= cfg.pre_sinr_threshold))


def synthesize_observations(
    realization: Realization,
    scenario: Scenario,
    cfg: E911Config,
    rng: np.random.Generator,
) -> tuple[Observations, np.ndarray]:
    """Build TDOA measurements for the detected BSs of one realization.

    Pseudorange model per used BS ``i`` (device at the origin):
    ``rho_i = d_i + NLOS_i + N(0, sigma_i^2) + c * N(0, clock_std^2)``
    with ``sigma_i`` the CRLB ranging stddev at the post-processing
    SINR.  Draw order from ``rng``: bearing angles, NLOS biases, ranging
    noise, clock errors.  With all noise parameters zeroed the TDOAs
    equal exact range differences.

    Returns the observations and the BS positions (used BSs only,
    strongest first); positions are consistent with the realization's
    distances, with bearings drawn here since hearability never needed
    them.
    """
    sinrs = _pre_sinrs(realization, scenario)
    detected = int(np.sum(sinrs >= cfg.pre_sinr_threshold))
    used = detected
    if cfg.max_bs_per_fix is not None:
        used = min(used, cfg.max_bs_per_fix)
    d = realization.distances[:used]
    sinr_used = sinrs[:used]
    angles = rng.uniform(0.0, 2.0 * math.pi, size=used)
    positions = np.column_stack((d * np.cos(angles), d * np.sin(angles)))
    nlos = (
        rng.exponential(cfg.nlos_mean, size=used)
        if cfg.nlos_mean > 0.0
        else np.zeros(used)
    )
    post = scenario.gamma * sinr_used
    sigma = np.array([ranging_stddev(s, cfg) for s in post])
    noise = rng.normal(0.0, 1.0, size=used) * sigma
    clock = cfg.speed_of_light * rng.normal(0.0, cfg.clock_std, size=used)
    pseudo = d + nlos + noise + clock
    tdoas = pseudo[1:] - pseudo[0] if used > 0 else np.zeros(0)
    var = sigma**2 + (cfg.speed_of_light * cfg.clock_std) ** 2
    if used > 1:
        cov = np.diag(var[1:]) + var[0]
        if not np.any(var > 0.0):
            cov = np.eye(used - 1)
    else:
        cov = np.zeros((0, 0))
    return (
        Observations(pseudo, tdoas, cov, 0, post, d.copy()),
        positions,
    )


def _gauss_newton(
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


def solve_tdoa(measurements: Observations, bs_positions: np.ndarray) -> FixOutcome:
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
        out = _gauss_newton(r, positions, weight, ref, start, detected, m, condition)
        return out

    scale = 1.0 + float(np.max(np.abs(rel)))
    if min(abs(z[0]), abs(z[1]), abs(z[2])) <= 1e-9 * scale:
        # Stage two divides by the stage-one components; degenerate
        # values would blow up, so polish iteratively instead.
        return _gauss_newton(r, positions, weight, ref, z[:2] + p_ref, detected, m, condition)

    h2 = z * z
    g2 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b2 = np.diag(z)
    try:
        psi2_inv = np.linalg.inv(4.0 * b2 @ cov_z @ b2)
        normal2 = g2.T @ psi2_inv @ g2
        w2 = np.linalg.solve(normal2, g2.T @ psi2_inv @ h2)
    except np.linalg.LinAlgError:
        return _gauss_newton(r, positions, weight, ref, z[:2] + p_ref, detected, m, condition)
    roots = np.sqrt(np.maximum(w2, 0.0))
    if not np.all(np.isfinite(roots)):
        return _gauss_newton(r, positions, weight, ref, z[:2] + p_ref, detected, m, condition)

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
    out = _gauss_newton(
        r, positions, weight, ref, best_rel + p_ref, detected, m, condition
    )
    if out.position is None:
        return out
    return FixOutcome(out.position, None, detected, m, "chan", condition)


def run_trial(
    cfg: E911Config, scenario: Scenario, seed: int, index: int
) -> FixOutcome:
    """One end-to-end positioning trial; the device sits at the origin."""
    sim = SimConfig(realizations=1, seed=seed, expected_bs=cfg.expected_bs)
    realization = sample_ppp(scenario, sim, index)
    detected = detected_count(realization, scenario, cfg)
    if detected < _MIN_BS_FOR_FIX:
        return FixOutcome(None, None, detected, 0, "none", math.nan)
    rng = stream(seed, index, ROLE_E911)
    obs, positions = synthesize_observations(realization, scenario, cfg, rng)
    outcome = solve_tdoa(obs, positions)
    if outcome.position is None:
        return FixOutcome(None, None, detected, outcome.used, outcome.method,
                          outcome.condition)
    err = math.hypot(*outcome.position)
    return FixOutcome(outcome.position, err, detected, outcome.used,
                      outcome.method, outcome.condition)


def _chunk_trials(
    cfg: E911Config, scenario: Scenario, seed: int, start: int, stop: int
) -> np.ndarray:
    out = np.empty((stop - start, 2))
    for i in range(start, stop):
        outcome = run_trial(cfg, scenario, seed, i)
        out[i - start, 0] = outcome.detected
        out[i - start, 1] = outcome.error_m if outcome.error_m is not None else math.nan
    return out


def collect_trials(
    cfg: E911Config,
    scenario: Scenario | None = None,
    seed: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """(detected count, horizontal error) per trial; error NaN if no fix."""
    if scenario is None:
        scenario = default_scenario(cfg)
    return map_spans(_chunk_trials, (cfg, scenario, seed), cfg.trials, workers)


@dataclass(frozen=True)
class ComplianceRow:
    """Error percentiles over trials that heard at least ``min_hearability``."""

    min_hearability: int
    p67_m: float
    p90_m: float
    no_fix_rate: float
    fixes: int
    passes: bool


def fcc_compliance(
    cfg: E911Config,
    scenario: Scenario | None = None,
    seed: int = 0,
    workers: int = 1,
) -> list[ComplianceRow]:
    """FCC E911 compliance table versus minimum hearability.

    For each entry of ``cfg.min_hearability_grid``, trials that heard
    fewer BSs (or produced no fix) are excluded; their rate is reported
    alongside the 67th/90th error percentiles of the remaining fixes.
    A row passes when p67 <= 50 m and p90 <= 150 m.
    """
    trials = collect_trials(cfg, scenario, seed, workers)
    rows = []
    for l_min in cfg.min_hearability_grid:
        eligible = trials[:, 0] >= l_min
        errors = trials[eligible, 1]
        errors = errors[np.isfinite(errors)]
        if len(errors) == 0:
            rows.append(
                ComplianceRow(int(l_min), math.inf, math.inf, 1.0, 0, False)
            )
            continue
        p67 = float(np.percentile(errors, 67.0))
        p90 = float(np.percentile(errors, 90.0))
        rows.append(
            ComplianceRow(
                int(l_min),
                p67,
                p90,
                1.0 - len(errors) / cfg.trials,
                int(len(errors)),
                p67 <= FCC_P67_M and p90 <= FCC_P90_M,
            )
        )
    return rows
