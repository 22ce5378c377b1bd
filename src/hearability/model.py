"""Network model primitives: scenario parameters, densities, the law of Omega.

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
    "effective_density",
    "hex_grid_density",
    "pmf_omega",
]


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
        sigma_db: log-normal shadowing standard deviation in dB (0 is
            pure power-law path loss).  Poisson sampling folds it into
            the effective density; hex sampling draws it per link.
            Poisson P_L does not depend on it, so the analytic
            evaluators do not read it.
    """

    lam: float
    alpha: float
    p: float
    q: float
    beta: float
    gamma: float
    L: int
    K: int = 1
    sigma_db: float = 0.0

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
        _check_sigma_db(self.sigma_db)

    @property
    def bg_ratio(self) -> float:
        """Post-gain detection threshold beta / gamma on linear scale."""
        return self.beta / self.gamma

    def replace(self, **changes) -> "Scenario":
        """Copy of the scenario with the given fields replaced."""
        return dataclasses.replace(self, **changes)


def _check_sigma_db(sigma_db: float) -> None:
    if not (sigma_db >= 0.0 and math.isfinite(sigma_db)):
        raise ValueError(f"sigma_db must be nonnegative, got {sigma_db}")


def effective_density(lam: float, alpha: float, sigma_db: float) -> float:
    """BS density of the shadowing-free network equivalent to a shadowed one.

    Independent log-normal shadowing on every link preserves the Poisson
    law of the propagation process up to a density scaling by the
    fractional moment ``E[S**(2/alpha)]``, so analytic results carry
    over with ``lam`` replaced by this value.  ``sigma_db`` is the
    shadowing standard deviation in dB.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"lam must be positive, got {lam}")
    if not (alpha > 2.0):
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    _check_sigma_db(sigma_db)
    sigma_n = sigma_db * math.log(10.0) / 10.0
    try:
        density = lam * math.exp(((2.0 / alpha) * sigma_n) ** 2 / 2.0)
    except OverflowError:
        density = math.inf
    if math.isinf(density):
        raise ValueError(f"sigma_db={sigma_db} overflows the effective density")
    return density


def hex_grid_density(isd: float) -> float:
    """Site density of a triangular lattice with intersite distance ``isd``."""
    density = 2.0 / (math.sqrt(3.0) * isd * isd) if isd * isd > 0.0 else 0.0
    if not (isd > 0.0 and 0.0 < density < math.inf):
        raise ValueError(f"isd must be positive with a finite site density, got {isd}")
    return density


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
