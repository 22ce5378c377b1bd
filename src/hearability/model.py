"""Network model primitives: scenario parameters, distance laws, SINR.

A device at the origin observes base stations (BSs) deployed as a
homogeneous Poisson point process of density ``lam`` per unit area, and
attempts to detect the ``L`` nearest ones ("participants") for
positioning.  While BS ``k <= L`` is being detected, every other
participant stays silent with probability ``1 - p`` (coordinated muting)
and every BS beyond the L-th transmits with probability ``q`` (ambient
load).  Detection succeeds when the SINR, boosted by a processing gain
``gamma``, clears the demodulation threshold ``beta``, i.e. when
``SINR >= beta / gamma``.

Distances are indexed from the device outward: ``R_1 <= R_2 <= ...``.
Exact distance ties are broken by generation order, which is almost
surely irrelevant for the continuous distributions used here.

All randomness lives in :mod:`hearability.simulate`; this module is
purely deterministic.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Scenario",
    "ShadowingSpec",
    "effective_density",
    "hex_grid_density",
    "pdf_rl",
    "pmf_omega",
    "cdf_r1_given_rl_omega",
    "cdf_ratio_x",
    "pdf_ratio_x",
]


@dataclass(frozen=True)
class ShadowingSpec:
    """Log-normal shadowing description.

    ``sigma_db`` is the shadowing standard deviation in dB; at 0 the
    channel has pure power-law path loss.
    """

    sigma_db: float = 0.0

    def __post_init__(self) -> None:
        if not (self.sigma_db >= 0.0 and math.isfinite(self.sigma_db)):
            raise ValueError(f"sigma_db must be nonnegative, got {self.sigma_db}")


@dataclass(frozen=True)
class Scenario:
    """Complete parameter set for one network configuration.

    Attributes:
        lam: BS density per unit area (> 0).
        alpha: path loss exponent (> 2, so interference sums converge).
        p: probability that a participant other than the one being
            detected transmits (0 muted network, 1 no coordination).
        q: probability that a BS beyond the L-th transmits.
        beta: demodulation SINR threshold, linear scale (> 0).
        gamma: processing gain applied before demodulation, linear (> 0).
        L: number of nearest BSs the device must detect (>= 1).
        K: number of frequency bands under reuse (>= 1, 1 = universal).
        noise_sigma2: thermal noise power in units of the common BS
            transmit power: a BS at distance d is received at d**-alpha.
    """

    lam: float
    alpha: float
    p: float
    q: float
    beta: float
    gamma: float
    L: int
    K: int = 1
    noise_sigma2: float = 0.0

    def __post_init__(self) -> None:
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not (self.alpha > 2.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must exceed 2, got {self.alpha}")
        for name in ("p", "q"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not isinstance(self.L, (int, np.integer)) or self.L < 1:
            raise ValueError(f"L must be a positive integer, got {self.L!r}")
        if not isinstance(self.K, (int, np.integer)) or self.K < 1:
            raise ValueError(f"K must be a positive integer, got {self.K!r}")
        if not (self.noise_sigma2 >= 0.0 and math.isfinite(self.noise_sigma2)):
            raise ValueError(
                f"noise_sigma2 must be nonnegative, got {self.noise_sigma2}"
            )

    @property
    def bg_ratio(self) -> float:
        """Post-gain detection threshold beta / gamma on linear scale."""
        return self.beta / self.gamma

    def replace(self, **changes) -> "Scenario":
        """Copy of the scenario with the given fields replaced."""
        return dataclasses.replace(self, **changes)


def effective_density(lam: float, alpha: float, shadow: ShadowingSpec) -> float:
    """BS density of the shadowing-free network equivalent to a shadowed one.

    Independent log-normal shadowing on every link preserves the Poisson
    law of the propagation process up to a density scaling by the
    fractional moment ``E[S**(2/alpha)]``, so analytic results carry
    over with ``lam`` replaced by this value.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"lam must be positive, got {lam}")
    if not (alpha > 2.0):
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    sigma_n = shadow.sigma_db * math.log(10.0) / 10.0
    return lam * math.exp(((2.0 / alpha) * sigma_n) ** 2 / 2.0)


def hex_grid_density(isd: float) -> float:
    """Site density of a triangular lattice with intersite distance ``isd``."""
    if not (isd > 0.0 and math.isfinite(isd)):
        raise ValueError(f"isd must be positive, got {isd}")
    return 2.0 / (math.sqrt(3.0) * isd * isd)


def pdf_rl(r, L: int, lam: float):
    """Density of the distance to the L-th nearest BS of a PPP.

    Computed in log space so large ``L`` cannot overflow the factorial.
    Accepts a scalar or array of strictly positive distances.
    """
    if not isinstance(L, (int, np.integer)) or L < 1:
        raise ValueError(f"L must be a positive integer, got {L!r}")
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"lam must be positive, got {lam}")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0):
        raise ValueError("r must be strictly positive")
    s = lam * math.pi * r_arr * r_arr
    log_pdf = -s + L * np.log(s) + math.log(2.0) - np.log(r_arr) - math.lgamma(L)
    out = np.exp(log_pdf)
    return float(out) if np.isscalar(r) else out


def pmf_omega(omega: int, L: int, p: float) -> float:
    """P(Omega = omega): binomial count of active interfering participants.

    While one of the ``L`` participants is being detected, each of the
    other ``L - 1`` transmits independently with probability ``p``.
    """
    if not isinstance(L, (int, np.integer)) or L < 1:
        raise ValueError(f"L must be a positive integer, got {L!r}")
    if not isinstance(omega, (int, np.integer)):
        raise ValueError(f"omega must be an integer, got {omega!r}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    n = L - 1
    if omega < 0 or omega > n:
        return 0.0
    # Exact binomial coefficient; powers of the edge cases 0**0 -> 1.
    return float(math.comb(n, omega) * p**omega * (1.0 - p) ** (n - omega))


def cdf_r1_given_rl_omega(r, rl: float, omega: int):
    """CDF of the closest active participant distance given R_L and Omega.

    Conditioned on ``R_L = rl`` and ``Omega = omega >= 1`` active
    interferers among the first ``L - 1`` BSs, those interferers are
    uniform on the disk of radius ``rl``, so the minimum distance obeys
    ``1 - ((rl^2 - r^2)/rl^2)**omega`` on ``[0, rl]``.
    """
    if not isinstance(omega, (int, np.integer)) or omega < 1:
        raise ValueError(f"omega must be a positive integer, got {omega!r}")
    if not (rl > 0.0 and math.isfinite(rl)):
        raise ValueError(f"rl must be positive, got {rl}")
    r_arr = np.asarray(r, dtype=float)
    if np.any((r_arr < 0.0) | (r_arr > rl)):
        raise ValueError("r must lie in [0, rl]")
    out = 1.0 - ((rl * rl - r_arr * r_arr) / (rl * rl)) ** omega
    return float(out) if np.isscalar(r) else out


def cdf_ratio_x(x, omega: int):
    """CDF of X = R_L / closest-active distance, given Omega = omega.

    The ratio is scale free: ``P(X <= x) = (1 - x**-2)**omega`` for
    ``x >= 1``.
    """
    if not isinstance(omega, (int, np.integer)) or omega < 1:
        raise ValueError(f"omega must be a positive integer, got {omega!r}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 1.0):
        raise ValueError("x must be >= 1")
    out = (1.0 - x_arr**-2.0) ** omega
    return float(out) if np.isscalar(x) else out


def pdf_ratio_x(x, omega: int):
    """Density of X = R_L / closest-active distance, given Omega = omega."""
    if not isinstance(omega, (int, np.integer)) or omega < 1:
        raise ValueError(f"omega must be a positive integer, got {omega!r}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 1.0):
        raise ValueError("x must be >= 1")
    out = 2.0 * omega * x_arr**-3.0 * (1.0 - x_arr**-2.0) ** (omega - 1)
    return float(out) if np.isscalar(x) else out
