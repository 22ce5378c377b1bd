"""End-to-end TDOA positioning accuracy versus BS hearability.

Simulates a handset-based downlink TDOA (OTDOA-like) fix: BSs deployed
at a hex-equivalent density with shadowing folded into an effective
density, detection gated by a pre-processing SINR threshold, per-link
ranging errors from the TOA CRLB at the post-processing SINR plus an
exponential non-line-of-sight bias and per-BS clock error, and a
two-stage weighted least-squares position solve with the strongest BS
as reference, polished by damped Gauss-Newton until the relative cost
change is at most 1e-12 or the step at most 1e-9 relative.  A polished
fix more than three window radii (``sqrt(n / (pi lam))``, 9.8 km in all
by default) from its reference BS is a no-fix, ``"beyond-bound"``.  The
output is the FCC E911 compliance table: horizontal error percentiles
versus the minimum number of heard BSs.  ``E911Config`` alone describes
the experiment; ``default_scenario`` is the network it implies, fully
loaded, with shadowing folded into the density.

Reproducibility contract: trial geometries are the rows of the Monte
Carlo block sampler (``_BlockDraws``), blocks of ``_BLOCK`` trials keyed
by ``(seed, block, role)``, at the collectors' default window
(``max(250, 10 * L)`` Poisson BSs) completed by the Campbell mean of the
interference beyond it; its stated error, the spread of that far
interference as a share of its mean, is
``(alpha - 2) / (2 sqrt((alpha - 1) n))``, 0.034 at alpha = 3.76 and
n = 250.  A block draws its bearings, NLOS biases, unit ranging noise
and clock errors, in that order, from ``stream(seed, block, ROLE_E911)``,
each as a full ``(_BLOCK, W)`` array; trial ``r`` reads the first
``used`` columns of row ``r``.  ``W`` (``_width``) is the most BSs a
trial can use: each of k detected BSs carries at least
``theta / (1 + theta)`` of the total power at threshold ``theta``, so
``k <= 1 + 1/theta`` (21 columns at -13 dB).  Received powers never rise
along a row, so the detected BSs lead it and detection computes SINRs
for the first ``floor(1 + 1/theta) + 2`` BSs alone (``_bound``).  A
threshold that would let a trial detect every BS of its window (-23.94
dB or less at 250 BSs) is rejected.  Sampling, detection and draws run
on chunks of whole blocks (``_chunk_rows``), and the batched solver
treats every trial on its own, so results are bit-identical across
worker counts, chunks and span cuts, and a run of fewer trials is a
prefix of a longer one.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .model import Scenario, effective_density, hex_grid_density
from .parallel import map_spans
from .simulate import (
    _BLOCK, ROLE_E911, SimConfig, _BlockDraws, _chunk_rows, _with_window,
)

__all__ = [
    "E911Config",
    "ComplianceRow",
    "default_scenario",
    "ranging_stddev",
    "collect_trials",
    "fcc_compliance",
]

# FCC E911 handset-based accuracy mandate.
FCC_P67_M = 50.0
FCC_P90_M = 150.0

_MIN_BS_FOR_FIX = 4
# Fewest positioning trials an experiment accepts.
MIN_TRIALS = 100
_ILL_CONDITION = 1e12
SPEED_OF_LIGHT = 299792458.0  # meters per second
RMS_BANDWIDTH_FACTOR = 1.0 / 12.0  # beta_rms**2 / bandwidth**2, flat spectrum


def _at_least(value, least: int) -> bool:
    """Whether ``value`` is an integer no smaller than ``least``."""
    return isinstance(value, (int, np.integer)) and value >= least


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
        processing_gain_db: despreading gain applied between detection
            and ranging; sets the post-processing SINR in the CRLB.
        max_bs_per_fix: cap on how many detected BSs enter the solver
            (None = use all detected).
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
    processing_gain_db: float = 8.0
    max_bs_per_fix: int | None = None

    def __post_init__(self) -> None:
        # ``ranging_stddev`` squares a finite bandwidth.
        if not (0.0 < self.bandwidth < 1.3e154 or self.bandwidth == math.inf):
            raise ValueError(
                f"bandwidth must be positive and below 1.3e154 Hz, or inf, "
                f"got {self.bandwidth}"
            )
        if not (self.clock_std >= 0.0 and math.isfinite(self.clock_std)):
            raise ValueError(f"clock_std must be nonnegative, got {self.clock_std}")
        if not (self.nlos_mean >= 0.0 and math.isfinite(self.nlos_mean)):
            raise ValueError(f"nlos_mean must be nonnegative, got {self.nlos_mean}")
        theta, gain_db = self.pre_sinr_threshold, self.processing_gain_db
        if not (0.0 < theta < math.inf):
            raise ValueError(f"pre_sinr_threshold must be positive and finite, got {theta}")
        # ``default_scenario`` needs a positive finite gain and beta.
        try:
            gain = 10.0 ** (gain_db / 10.0)
        except OverflowError:
            gain = math.inf
        if not (0.0 < gain < math.inf):
            raise ValueError(
                "processing_gain_db must be a dB level whose linear value is a "
                f"positive finite float, got {gain_db}"
            )
        if not (0.0 < theta * gain < math.inf):
            raise ValueError(
                f"pre_sinr_threshold={theta} and processing_gain_db={gain_db} "
                "give a detection threshold beta that is not a positive finite float"
            )
        if not (self.alpha > 2.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must exceed 2, got {self.alpha}")
        if not (self.shadow_sigma_db >= 0.0 and math.isfinite(self.shadow_sigma_db)):
            raise ValueError(
                f"shadow_sigma_db must be nonnegative, got {self.shadow_sigma_db}"
            )
        try:
            hex_grid_density(self.hex_isd)
        except ValueError as err:  # named by this config's field
            raise ValueError(f"hex_{err}") from None
        if not _at_least(self.trials, MIN_TRIALS):
            raise ValueError(
                f"trials must be an integer >= {MIN_TRIALS}, got {self.trials!r}"
            )
        grid = self.min_hearability_grid
        if not grid or not all(_at_least(v, _MIN_BS_FOR_FIX) for v in grid):
            raise ValueError(
                "min_hearability_grid entries must be integers >= "
                f"{_MIN_BS_FOR_FIX}, got {grid!r}"
            )
        cap = self.max_bs_per_fix
        if cap is not None and not _at_least(cap, _MIN_BS_FOR_FIX):
            raise ValueError(
                f"max_bs_per_fix must be an integer >= {_MIN_BS_FOR_FIX} or None, "
                f"got {cap!r}"
            )

    def replace(self, **changes) -> "E911Config":
        return dataclasses.replace(self, **changes)


def default_scenario(cfg: E911Config) -> Scenario:
    """Scenario matching the experiment: fully loaded, no coordination.

    Shadowing enters through the effective density, so the scenario's
    own ``sigma_db`` stays 0 and plain Poisson sampling of it already
    reflects the shadowing.
    """
    lam = effective_density(hex_grid_density(cfg.hex_isd), cfg.alpha, cfg.shadow_sigma_db)
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


def ranging_stddev(post_sinr, cfg: E911Config):
    """TOA ranging error standard deviation in meters from the CRLB.

    ``c / sqrt(8 pi^2 beta_rms^2 SNR)`` with
    ``beta_rms^2 = RMS_BANDWIDTH_FACTOR * bandwidth**2``, elementwise
    for an array of SINRs.  Infinite bandwidth returns 0 (noiseless
    ranging); a finite one whose product with the SINR overflows a float
    raises rather than return a noiseless 0.
    """
    if not np.all(np.greater(post_sinr, 0.0)):
        raise ValueError(f"post_sinr must be positive, got {post_sinr}")
    if math.isinf(cfg.bandwidth):
        return np.zeros(np.shape(post_sinr))[()]
    beta_rms_sq = RMS_BANDWIDTH_FACTOR * cfg.bandwidth**2
    with np.errstate(over="ignore"):
        info = 8.0 * math.pi**2 * beta_rms_sq * post_sinr
    if not np.all(np.isfinite(info)):
        raise ValueError(
            f"processing_gain_db={cfg.processing_gain_db} and bandwidth={cfg.bandwidth} "
            "overflow the ranging CRLB"
        )
    return SPEED_OF_LIGHT / np.sqrt(info)


def _bound(theta: float, n: int) -> int:
    """b = floor(1 + 1/theta) + 1, one more than the most BSs detected at theta.

    A BS detected at threshold theta has ``P >= theta (T - P)``, with T
    the total power, so ``P >= theta / (1 + theta) T``.  k detected BSs
    sum to at most T, so ``k <= 1 + 1/theta``; the one more absorbs
    rounding.  Past an n-BS window b reads n + 1, which keeps it finite
    however small theta is.
    """
    return int(min(1.0 + 1.0 / theta, n)) + 1


def _detect(pw: np.ndarray, tail: np.ndarray, cfg: E911Config):
    """Pre-processing SINRs of a fully loaded network, and detected counts.

    ``pw`` (rows, n) holds received powers that never rise along a row,
    and ``tail`` (rows, 1) the mean interference beyond each row's
    window, added to its total power.  With the total power fixed, a
    BS's SINR grows with its own power, so the detected BSs lead their
    row, and there are fewer than b of them (``_bound``).  SINRs and
    counts cover the first min(n, b + 1) columns: one past any count a
    trial may use, so ``_trial_span`` still sees a rounding overshoot.
    """
    total = np.sum(pw, axis=1, keepdims=True) + tail
    lead = pw[:, : _bound(cfg.pre_sinr_threshold, pw.shape[1]) + 1]
    denom = total - lead
    sinr = np.divide(lead, denom, out=np.full_like(lead, math.inf), where=denom > 0.0)
    return sinr, np.count_nonzero(sinr >= cfg.pre_sinr_threshold, axis=1)


def _width(cfg: E911Config, n: int) -> int:
    """W, the most BSs a trial with an n-BS window can use.

    ``_bound``'s b, capped by the window and by ``max_bs_per_fix``.
    """
    return min(n, cfg.max_bs_per_fix or n, _bound(cfg.pre_sinr_threshold, n))


def _nuisance(blocked: _BlockDraws, cfg: E911Config, width: int) -> np.ndarray:
    """Bearings, NLOS biases, unit ranging noise and clock errors of a chunk's rows.

    Each block draws them in that order from its ``ROLE_E911`` stream,
    each as a full ``(_BLOCK, width)`` array, so row r holds the same
    values whatever rows of the block a span reads.  Shape (rows, 4,
    width).
    """
    shape = (_BLOCK, width)

    def fill(rng, out):
        draws = (
            rng.uniform(0.0, 2.0 * math.pi, shape), rng.exponential(cfg.nlos_mean, shape),
            rng.standard_normal(shape), rng.normal(0.0, cfg.clock_std, shape),
        )
        for i, draw in enumerate(draws):
            out[:, i * width : (i + 1) * width] = draw[: len(out)]

    return blocked._draw(ROLE_E911, fill, 4 * width).reshape(blocked.rows, 4, width)


def _observe(d, sinr, draws, scenario: Scenario, cfg: E911Config):
    """TDOA measurements of N trials using m BSs each, strongest first.

    ``d``, ``sinr``: (N, m) distances and pre-processing SINRs; ``draws``:
    (N, 4, m), the first m columns of rows of ``_nuisance``.  Pseudorange
    of BS i: ``d_i + NLOS_i + sigma_i * N(0, 1) + c * N(0, clock_std**2)``.
    Returns positions (N, m, 2), TDOAs (N, m-1), the per-BS error
    variances (N, m), the pseudoranges and the post-processing SINRs.
    """
    angles, nlos, unit, clock = np.moveaxis(draws, 1, 0)
    positions = np.stack((d * np.cos(angles), d * np.sin(angles)), axis=-1)
    with np.errstate(over="ignore"):  # ranging_stddev rejects an overflow
        post = scenario.gamma * sinr
    sigma = ranging_stddev(post, cfg)
    pseudo = d + nlos + unit * sigma + SPEED_OF_LIGHT * clock
    var = sigma**2 + (SPEED_OF_LIGHT * cfg.clock_std) ** 2
    var[~np.any(var > 0.0, axis=1)] = 1.0  # noiseless ranging weighs every BS alike
    return positions, pseudo[:, 1:] - pseudo[:, :1], var, pseudo, post


def _weight(var: np.ndarray) -> np.ndarray:
    """Inverses of the TDOA covariances ``diag(var[1:]) + var[0]`` by Sherman-Morrison.

    A row with a zero variance past the reference reads non-finite.
    """
    u = 1.0 / var[:, 1:]
    share = var[:, :1] / (1.0 + var[:, :1] * np.sum(u, axis=1, keepdims=True))
    return u[:, :, None] * np.eye(u.shape[1]) - (share * u)[:, :, None] * u[:, None, :]


def _solve2(a: np.ndarray, b: np.ndarray):
    """Solutions of the 2x2 systems ``a x = b`` by Cramer's rule, and which are regular."""
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    x = np.stack((a[:, 1, 1] * b[:, 0] - a[:, 0, 1] * b[:, 1],
                  a[:, 0, 0] * b[:, 1] - a[:, 1, 0] * b[:, 0]), axis=1)
    return x / det[:, None], np.isfinite(det) & (det != 0.0)


def _solve3(a: np.ndarray, b: np.ndarray):
    """Solutions of the 3x3 systems ``a x = b`` by the adjugate, and which are regular."""
    cof = np.cross(a[:, [1, 2, 0]], a[:, [2, 0, 1]])  # adjugate column j: rows j+1 x j+2
    det = np.sum(a[:, 0] * cof[:, 0], axis=1)
    x = np.sum(cof * b[:, :, None], axis=1) / det[:, None]
    return x, np.isfinite(det) & (det != 0.0)


def _condition(a: np.ndarray) -> np.ndarray:
    """2-norm condition numbers of symmetric positive semidefinite 3x3 matrices.

    Smith's closed-form eigenvalues (Comm. ACM 4, 1961), with ``q`` a
    third of the trace, ``p`` the spread of ``b = a - q I`` and
    ``cos(3 phi) = det(b / p) / 2``: largest ``q + 2 p cos(phi)``,
    smallest ``q + 2 p cos(phi + 2 pi / 3)``.
    """
    q = np.trace(a, axis1=1, axis2=2) / 3.0
    b = a - q[:, None, None] * np.eye(3)
    p = np.sqrt(np.sum(b * b, axis=(1, 2)) / 6.0)
    det = np.sum(b[:, 0] * np.cross(b[:, 1], b[:, 2]), axis=1)
    phi = np.arccos(np.clip(det / (2.0 * p**3), -1.0, 1.0)) / 3.0
    low = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    return np.where(p > 0.0, (q + 2.0 * p * np.cos(phi)) / np.abs(low), 1.0)


def _residuals(pt, positions, tdoas):
    """TDOA residuals at points ``pt`` (N, 2), and the offsets and distances from each BS."""
    diff = pt[:, None] - positions
    dist = np.hypot(diff[..., 0], diff[..., 1])
    return dist[:, 1:] - dist[:, :1] - tdoas, diff, dist


def _cost(pt, positions, tdoas, weight) -> np.ndarray:
    """Weighted squared TDOA residuals at points ``pt`` (N, 2)."""
    res = _residuals(pt, positions, tdoas)[0]
    return np.sum(np.sum(weight * res[:, None, :], axis=2) * res, axis=1)


# Step scales of the line search after the full step.
_HALVINGS = 0.5 ** np.arange(1, 20)


def _gauss_newton(x, positions, tdoas, weight) -> np.ndarray:
    """Damped Gauss-Newton on the weighted TDOA residuals, rows in lockstep.

    ``positions`` (N, m, 2) hold the reference BS first; the 2x2 steps
    come in closed form.  A row stops at a zero distance or a singular
    Hessian (a zero or non-finite determinant), at a step 19 halvings
    cannot make descend, once its relative cost change is at most 1e-12
    or its step at most 1e-9 of its distance from the origin plus 1 m,
    or after 50 iterations.  ``_solve`` bounds where the rows end.
    """
    x = np.array(x, dtype=float)
    rows = np.arange(len(x))
    current = _cost(x, positions, tdoas, weight)
    for _ in range(50):
        res, diff, dist = _residuals(x[rows], positions[rows], tdoas[rows])
        unit = diff / dist[..., None]
        jac = unit[:, 1:] - unit[:, :1]
        wj = weight[rows] @ jac
        hess = np.swapaxes(jac, 1, 2) @ wj
        step, ok = _solve2(hess, -np.sum(wj * res[..., None], axis=1))
        rows, step = rows[ok], step[ok]
        # Line search: the full step, then all halvings at once where it fails.
        scale = np.ones(len(rows))
        new = _cost(x[rows] + step, positions[rows], tdoas[rows], weight[rows])
        found = new <= current[rows]
        miss = np.flatnonzero(~found)
        if miss.size:
            sub = np.repeat(rows[miss], len(_HALVINGS))
            trial = x[rows[miss], None] + _HALVINGS[:, None] * step[miss, None]
            costs = _cost(trial.reshape(-1, 2), positions[sub], tdoas[sub], weight[sub])
            costs = costs.reshape(miss.size, -1)
            hits = costs <= current[rows[miss], None]
            first = np.argmax(hits, axis=1)
            scale[miss] = _HALVINGS[first]
            new[miss] = costs[np.arange(miss.size), first]
            found[miss] = hits.any(axis=1)
        rows, move, new = rows[found], scale[found, None] * step[found], new[found]
        x[rows] = x[rows] + move
        done = (np.abs(current[rows] - new) <= 1e-12 * (1.0 + current[rows])) | (
            np.hypot(*move.T) <= 1e-9 * (1.0 + np.hypot(*x[rows].T))
        )
        current[rows] = new
        rows = rows[~done]
        if not rows.size:
            break
    return x


_METHODS = ("none", "chan", "gauss-newton", "beyond-bound")
_NONE, _CHAN, _GAUSS_NEWTON, _BEYOND_BOUND = range(4)
# Stage two: its design matrix, and the sign choices of its candidates.
_G2 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def _closed_form(positions: np.ndarray, tdoas: np.ndarray, weight: np.ndarray):
    """Two-stage weighted least squares of N TDOA fixes: where the polish starts.

    Stage one linearizes the hyperbolic system by treating the range to
    the reference BS as an extra unknown; stage two enforces the
    quadratic constraint tying that range to the position (Chan & Ho,
    IEEE TSP 1994).  Later weights scale ``weight`` (``_weight``) or stage
    one's normal matrix entrywise, and every system is solved in closed
    form.  Rows whose stage one is ill-conditioned, non-finite or
    degenerate skip stage two and start the polish from the stage-one
    point or the BS centroid; rows whose stage one is singular do not
    reach the polish.  No row depends on the others.

    Returns ``(idx, start, label, condition)``: the rows ``idx`` that
    reach the polish with their starting points and solver paths, and
    the stage-one condition numbers of all N rows (NaN where the weights
    are not finite, inf where stage one is singular).
    """
    live = np.all(np.isfinite(weight), axis=(1, 2))
    condition = np.where(live, math.inf, math.nan)
    p_ref = positions[:, 0]
    rel = positions[:, 1:] - p_ref[:, None]
    spread = 1.0 + np.max(np.abs(rel), axis=(1, 2))
    g_a = -np.concatenate((rel, tdoas[..., None]), axis=2)
    h = 0.5 * (tdoas * tdoas - np.sum(rel * rel, axis=2))

    # Stage one: linear in (x, y, R_ref); then reweight with the ranges
    # the first pass implies, the weights of diag(d) cov diag(d).
    idx = np.flatnonzero(live)
    g, hh, rl, w = g_a[idx], h[idx], rel[idx], weight[idx]
    gt = np.swapaxes(g, 1, 2)
    z, ok = _solve3(gt @ w @ g, (gt @ w @ hh[..., None])[..., 0])
    dists = np.hypot(rl[..., 0] - z[:, None, 0], rl[..., 1] - z[:, None, 1])
    dists = np.maximum(dists, 1e-6 * spread[idx, None])
    gtw = gt @ (w / (dists[:, :, None] * dists[:, None, :]))
    normal = gtw @ g
    z, solved = _solve3(normal, (gtw @ hh[..., None])[..., 0])
    ok &= solved
    idx, z, normal = idx[ok], z[ok], normal[ok]
    condition[idx] = _condition(normal)

    # Ill-conditioned or non-finite: polish from z, or the centroid.
    finite = np.all(np.isfinite(z), axis=1)
    start = np.where(finite[:, None], z[:, :2] + p_ref[idx], np.mean(positions[idx], axis=1))
    label = np.full(len(idx), _GAUSS_NEWTON)
    # Stage two divides by the stage-one components, so degenerate
    # values also go straight to the polish.  Its weights are those of
    # 4 diag(z) cov_z diag(z), cov_z being the inverse of ``normal``.
    chan = np.flatnonzero(
        (condition[idx] <= _ILL_CONDITION) & finite
        & (np.min(np.abs(z), axis=1) > 1e-9 * spread[idx])
    )
    zc = z[chan]
    gtw2 = _G2.T @ (normal[chan] / (4.0 * zc[:, :, None] * zc[:, None, :]))
    w2, good = _solve2(gtw2 @ _G2, (gtw2 @ (zc * zc)[..., None])[..., 0])
    roots = np.sqrt(np.maximum(w2, 0.0))
    good &= np.all(np.isfinite(roots), axis=1)
    chan, zc, roots = chan[good], zc[good], roots[good]

    # Stage two solves for squared coordinates, a sign ambiguity per axis:
    # the best of the stage-one point and the four stage-two candidates by
    # weighted TDOA residual is polished, which restores the weighted-ML
    # optimum that linearization costs at the errors of a loaded network.
    rows = idx[chan]
    cand = np.concatenate((zc[:, None, :2], roots[:, None, :] * _SIGNS), axis=1)
    cand += p_ref[rows, None]
    costs = [_cost(c, positions[rows], tdoas[rows], weight[rows])
             for c in np.moveaxis(cand, 1, 0)]
    best = np.argmin(np.column_stack(costs), axis=1)
    start[chan] = cand[np.arange(len(chan)), best]
    label[chan] = _CHAN

    return idx, start, label, condition


def _solve(positions: np.ndarray, tdoas: np.ndarray, var: np.ndarray, reach: float):
    """N TDOA fixes: the closed form (``_closed_form``), the polish, then the bound.

    The polish (``_gauss_newton``) starts from the closed form's best
    candidate and is also the fallback of rows that skip stage two.  A
    failed solve gives a no-fix rather than raising, and so does a
    polished fix more than ``reach`` meters from its reference BS, as
    ``"beyond-bound"``.  No row depends on the others.  ``positions``
    (N, m, 2) hold the reference BS first; ``tdoas`` (N, m-1) and ``var``
    (N, m) are the measurements and per-BS error variances (``_observe``).
    Returns positions (N, 2), NaN without a fix, indices into
    ``_METHODS`` and the stage-one condition numbers.
    """
    # Singular rows divide by zero and runaway rows overflow.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        weight = _weight(var)
        idx, start, label, condition = _closed_form(positions, tdoas, weight)
        x = _gauss_newton(start, positions[idx], tdoas[idx], weight[idx])
        off = x - positions[idx, 0]
        inside = np.hypot(off[:, 0], off[:, 1]) <= reach
    fixed = np.all(np.isfinite(x), axis=1)
    xy = np.full((len(positions), 2), math.nan)
    xy[idx[inside]] = x[inside]
    method = np.full(len(positions), _NONE)
    method[idx[fixed]] = np.where(inside, label, _BEYOND_BOUND)[fixed]
    return xy, method, condition


# Columns of the per-trial outcome table.
_DETECTED, _USED, _METHOD, _CONDITION, _X, _Y, _ERROR = range(7)


def _trial_window(cfg: E911Config, seed: int) -> tuple[Scenario, SimConfig]:
    """The trials' scenario and window, the collectors' default, or a ValueError.

    At most ``1 + 1/theta`` BSs are detected (``_bound``).  A window of
    fewer than ``floor(1 + 1/theta) + 2`` BSs could be detected in full,
    and the count would then be the window's size, not the network's.
    Such thresholds are rejected: the window that would fit them grows
    as 1/theta, and so do the fixes' covariance stacks.
    """
    scenario = default_scenario(cfg)
    sim = _with_window([scenario], SimConfig(realizations=1, seed=seed))
    theta, n = cfg.pre_sinr_threshold, sim.expected_bs
    if _bound(theta, n) >= n:
        raise ValueError(
            f"pre_sinr_db={10.0 * math.log10(theta):g} (pre_sinr_threshold={theta:g}) "
            f"lets a trial detect every BS of its {n}-BS window; the threshold "
            f"must exceed {-10.0 * math.log10(n - 2):.2f} dB"
        )
    return scenario, sim


def _trial_span(cfg: E911Config, seed: int, start: int, stop: int) -> np.ndarray:
    """Outcome table of trials ``start:stop``, shape (stop - start, 7).

    Geometry, detection and nuisance draws run on chunks of whole blocks
    of the Monte Carlo sampler (``_chunk_rows``), which keep every
    trial's bits.  The fixes that use the same number of BSs are then
    solved together, one ``_solve`` call per used count in the span, and
    no fix depends on the others it is solved with.
    """
    scenario, sim = _trial_window(cfg, seed)
    width, chunk = _width(cfg, sim.expected_bs), _chunk_rows(sim.expected_bs)
    # Three window radii, sqrt(n / (pi lam)): 9.8 km by default.
    reach = 3.0 * math.sqrt(sim.expected_bs / (math.pi * scenario.lam))
    out = np.full((stop - start, 7), math.nan)
    out[:, _USED] = 0
    out[:, _METHOD] = _NONE
    # Per chunk: trials with enough BSs, their used counts, and for those
    # BSs the distances, SINRs and nuisance draws, (rows, 6, chunk's widest).
    heard = []
    for first in range(start - start % _BLOCK, stop, chunk):
        blocked = _BlockDraws(sim, first // _BLOCK, min(chunk, stop - first))
        d = blocked.distances(scenario)
        sinr, detected = _detect(blocked.powers(scenario), blocked.tail(scenario), cfg)
        rows = np.arange(max(start - first, 0), len(d))
        out[first + rows - start, _DETECTED] = detected[rows]
        rows = rows[detected[rows] >= _MIN_BS_FOR_FIX]
        used = np.minimum(detected[rows], cfg.max_bs_per_fix or d.shape[1])
        widest = used.max(initial=0)
        if widest > width:
            raise RuntimeError(
                f"a trial uses {widest} BSs, more than the {width} nuisance columns"
            )
        near = np.stack((d[rows, :widest], sinr[rows, :widest]), axis=1)
        draws = _nuisance(blocked, cfg, width)[rows, :, :widest]
        heard.append((first + rows - start, used, np.concatenate((near, draws), axis=1)))
    del blocked, d, sinr  # the last chunk need not outlive the sampling
    trials, used = (np.concatenate(column) for column in list(zip(*heard))[:2])
    for m in np.flatnonzero(np.bincount(used)):  # np.unique loads numpy.ma
        rows = trials[used == m]
        near = np.concatenate([b[u == m, :, :m] for _, u, b in heard if m in u])
        observed = _observe(near[:, 0], near[:, 1], near[:, 2:], scenario, cfg)
        out[rows, _USED] = m
        out[rows, _X : _Y + 1], out[rows, _METHOD], out[rows, _CONDITION] = _solve(
            *observed[:3], reach
        )
    out[:, _ERROR] = np.hypot(out[:, _X], out[:, _Y])
    return out


def collect_trials(cfg: E911Config, seed: int = 0, workers: int = 1) -> np.ndarray:
    """(detected count, horizontal error) per trial; error NaN if no fix.

    The network is ``default_scenario(cfg)``.
    """
    _trial_window(cfg, seed)  # rejects a threshold before any work
    table = map_spans(_trial_span, (cfg, seed), cfg.trials, workers, _BLOCK)
    return table[:, [_DETECTED, _ERROR]]


@dataclass(frozen=True)
class ComplianceRow:
    """Error percentiles over trials that heard at least ``min_hearability``."""

    min_hearability: int
    p67_m: float
    p90_m: float
    no_fix_rate: float
    fixes: int
    passes: bool


def _percentile(ordered: np.ndarray, q: float) -> float:
    """``np.percentile(ordered, q)`` of sorted values, bit for bit, without ``numpy.ma``.

    numpy's linear rule: ``v = (n - 1) q / 100`` lies a share ``t`` of the
    way from element a to the next, b; ``a + (b - a) t`` for t < 0.5, else
    ``b - (b - a) (1 - t)``.  ``np.percentile`` loads ``numpy.ma`` (via ``np.unique``).
    """
    v = (len(ordered) - 1) * (q / 100.0)
    i = math.floor(v)
    a, b, t = ordered[i], ordered[min(i + 1, len(ordered) - 1)], v - i
    return float(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)


def fcc_compliance(cfg: E911Config, seed: int = 0, workers: int = 1) -> list[ComplianceRow]:
    """FCC E911 compliance table versus minimum hearability.

    For each entry of ``cfg.min_hearability_grid``, trials that heard
    fewer BSs (or produced no fix) are excluded; their rate is reported
    alongside the 67th/90th error percentiles of the remaining fixes.
    A row passes when p67 <= 50 m and p90 <= 150 m.
    """
    trials = collect_trials(cfg, seed, workers)
    rows = []
    for l_min in cfg.min_hearability_grid:
        eligible = trials[:, 0] >= l_min
        errors = np.sort(trials[eligible & np.isfinite(trials[:, 1]), 1])
        if len(errors) == 0:
            rows.append(ComplianceRow(int(l_min), math.inf, math.inf, 1.0, 0, False))
            continue
        p67, p90 = _percentile(errors, 67.0), _percentile(errors, 90.0)
        rows.append(ComplianceRow(
            int(l_min), p67, p90, 1.0 - len(errors) / cfg.trials, int(len(errors)),
            p67 <= FCC_P67_M and p90 <= FCC_P90_M,
        ))
    return rows
