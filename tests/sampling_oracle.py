"""One-row deployments for the scalar oracles, and the block rows they read.

``Realization`` holds one deployment as the scalar oracles of the suite
take it, one BS per entry.  ``block_rows`` reads the collectors' own
block rows (``simulate._BlockDraws``), the only deployment sampler, and
``conditional_law_samples`` turns them into the samples of the
conditional laws that the integral approximations rest on.
``tail_mean`` is the Campbell mean of the interference beyond a row's
window, written apart from the library's; ``mean_i1`` and ``mean_i2``
are the closed-form conditional interference means those laws predict.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from hearability import simulate
from hearability.model import Scenario, effective_density, hex_grid_density
from hearability.simulate import Deployment, SimConfig


@dataclass(frozen=True, eq=False)
class Realization:
    """One sampled deployment as seen from the device at the origin.

    Attributes:
        distances: sorted (ascending) array of BS distances.  For
            shadowed hex-grid realizations these are equivalent
            distances ``S**(-1/alpha) * d`` so that sorting by distance
            equals sorting by received power.
        activity: boolean transmit marks, one per BS, derived from
            ``activity_u`` by :func:`marks`.  Fixed for the whole
            detection procedure.
        bands: frequency band index per BS in ``1..K``.
        activity_u: the underlying uniforms behind ``activity``; kept so
            alternative participant counts can reuse the same draws.
    """

    distances: np.ndarray
    activity: np.ndarray
    bands: np.ndarray
    activity_u: np.ndarray = field(repr=False, default=None)

    def __post_init__(self) -> None:
        n = len(self.distances)
        if len(self.activity) != n or len(self.bands) != n:
            raise ValueError("distances, activity and bands must have equal length")
        if self.activity_u is not None and len(self.activity_u) != n:
            raise ValueError("activity_u must match distances length")
        if n and np.any(np.diff(self.distances) < 0.0):
            raise ValueError("distances must be sorted ascending")
        if n and not (self.distances[0] > 0.0):
            raise ValueError("distances must be strictly positive")


def marks(u: np.ndarray, L: int, p: float, q: float) -> np.ndarray:
    """Transmit marks of activity uniforms: ``p`` for the first L BSs, ``q`` beyond."""
    return u < np.where(np.arange(u.shape[-1]) < L, p, q)


def tail_mean(scenario: Scenario, config: SimConfig, reach: np.ndarray) -> np.ndarray:
    """Mean loaded interference beyond each row's window, (rows, 1).

    Past the window's reach (the n-th kept distance, geometric on hex
    rows) the BSs form a Poisson process of density ``lam``, each loaded
    with probability q, so Campbell's theorem gives
    ``integral over r > reach of 2 pi r lam q r**-alpha dr``.  On hex
    rows ``lam`` is the lattice density times ``E[S] = exp(s**2 / 2)``,
    the mean of the log-normal shadowing gain with ``s = sigma_db ln(10)
    / 10``; on Poisson rows it is the effective density.
    """
    alpha, q = scenario.alpha, scenario.q
    if config.deployment == Deployment.HEX:
        s = scenario.sigma_db * math.log(10.0) / 10.0
        lam = hex_grid_density(config.hex_isd) * math.exp(s * s / 2.0)
    else:
        lam = effective_density(scenario.lam, alpha, scenario.sigma_db)
    return (2.0 * math.pi * lam * q / (alpha - 2.0) * reach ** (2.0 - alpha))[:, None]


def mean_i1(r1_hat: float, rl: float, omega: int, scenario: Scenario) -> float:
    """Mean interference from active participants beyond the nearest one.

    Conditioned on the L-th BS distance ``rl``, the nearest active
    participant distance ``r1_hat`` and ``omega`` active participants,
    the remaining ``omega - 1`` actives are uniform on the annulus
    between the two radii; averaging the power law over that annulus
    gives the closed form per unit transmit power.  Returns 0 for ``omega <= 1``.
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
    if rl - r1_hat <= 1e-9 * rl:
        # Removable singularity: the annulus degenerates to the circle.
        return (omega - 1) * rl**-alpha
    num = rl ** (2.0 - alpha) - r1_hat ** (2.0 - alpha)
    den = rl * rl - r1_hat * r1_hat
    return 2.0 * (omega - 1) / (2.0 - alpha) * num / den


def mean_i2(rl: float, scenario: Scenario) -> float:
    """Mean interference from load-q BSs beyond the L-th, given R_L = rl.

    Campbell's theorem over the thinned PPP outside ``rl``, per unit transmit power.
    """
    if not (rl > 0.0 and math.isfinite(rl)):
        raise ValueError(f"rl must be positive and finite, got {rl}")
    alpha = scenario.alpha
    return 2.0 * math.pi * scenario.q * scenario.lam / (alpha - 2.0) * rl ** (2.0 - alpha)


def block_rows(scenario: Scenario, config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Distances and transmit marks of the collector rows, each (realizations, n).

    Row i is the i-th realization of every collector run on ``config``.
    """
    size, shape = simulate._BLOCK, (config.realizations, config.expected_bs)
    distances, active = np.empty(shape), np.empty(shape, dtype=bool)
    for first in range(0, shape[0], size):
        draws = simulate._BlockDraws(config, first // size, min(size, shape[0] - first))
        rows = slice(first, first + draws.rows)
        distances[rows] = draws.distances(scenario)
        active[rows] = marks(draws.activity(), scenario.L, scenario.p, scenario.q)
    return distances, active


def conditional_law_samples(
    scenario: Scenario, config: SimConfig, outer_rows: int
) -> dict[str, np.ndarray]:
    """Samples of the conditional laws on the collector rows of ``config``.

    Each row keeps the n nearest BSs of an unbounded Poisson process of
    density ``lam`` (``scenario`` has no shadowing).
    Given R_L and the n-th kept distance R_n, the laws are exact:

    - ``inner``: ``(R_i / R_L)**2`` of the L-1 nearer BSs, pooled; they
      are uniform on the disk, so U(0, 1).
    - ``omega``, ``z``: per row with ``omega >= 1`` active nearer BSs,
      ``omega`` and ``((R_L**2 - r1**2) / R_L**2)**omega`` of the nearest
      active one at r1, which is U(0, 1) for every ``omega``.
    - ``i1``: per row with ``omega >= 2`` and ``r1 >= 0.3 * R_L``, the
      power of the other actives minus ``mean_i1``; mean 0.  The cut
      keeps the residual variance tame and leaves the mean unchanged.

    Over the first ``outer_rows`` rows only:

    - ``outer``: per row, ``(r**2 - R_L**2) / (R_n**2 - R_L**2)`` of the
      kept BSs strictly between R_L and R_n; they are uniform on that
      annulus, so U(0, 1).
    - ``i2``: per row, the power of the active kept BSs beyond R_L plus
      the Campbell mean (:func:`tail_mean`) of the process beyond R_n,
      minus ``mean_i2(R_L)``; mean 0.
    """
    L, alpha = scenario.L, scenario.alpha
    d, active = block_rows(scenario, config)
    near, rl, rn = d[:, : L - 1], d[:, L - 1], d[:, -1]
    inner = (near / rl[:, None]) ** 2
    omega = np.count_nonzero(active[:, : L - 1], axis=1)
    r1 = np.where(active[:, : L - 1], near, np.inf).min(axis=1)
    heard = omega >= 1
    z = ((rl * rl - r1 * r1) / (rl * rl))[heard] ** omega[heard]
    near_power = np.sum(near**-alpha, axis=1, where=active[:, : L - 1])
    rows = np.flatnonzero((omega >= 2) & (r1 >= 0.3 * rl))
    i1 = np.array([
        near_power[i] - r1[i] ** -alpha - mean_i1(r1[i], rl[i], int(omega[i]), scenario)
        for i in rows
    ])
    d, active, rl, rn = (a[:outer_rows] for a in (d, active, rl, rn))
    rl2, rn2 = rl[:, None] ** 2, rn[:, None] ** 2
    outer = (d[:, L:-1] ** 2 - rl2) / (rn2 - rl2)
    far = np.sum(d[:, L:] ** -alpha, axis=1, where=active[:, L:])
    i2 = far + tail_mean(scenario, config, rn)[:, 0] - np.array(
        [mean_i2(r, scenario) for r in rl]
    )
    return {
        "inner": inner.ravel(), "omega": omega[heard], "z": z, "i1": i1,
        "outer": outer, "i2": i2,
    }
