"""Hearability of base stations for positioning in Poisson cellular networks.

The package answers one question in several ways: with what probability
can a device receive at least L base stations well enough to localize?

Modules
-------
``model``     scenario and shadowing containers, densities, the law of Omega.
``analytic``  closed-form bounds and integral approximations of P_L.
``reuse``     P_L under K-fold frequency reuse via a counting recursion.
``simulate``  Monte Carlo ground truth on Poisson and hex deployments.
``e911``      TDOA location fixes and FCC E911 accuracy compliance.
``numerics``  adaptive quadrature, root finding, Poisson/Erlang helpers.
``parallel``  chunked process-pool map shared by the collectors.
``cli``       sweep-to-CSV command line front end and figure recipes.
"""

from .analytic import (
    Method,
    evaluate_grid,
    mean_i1,
    mean_i2,
    min_processing_gain,
)
from .e911 import (
    E911Config,
    collect_trials,
    default_scenario,
    fcc_compliance,
    ranging_stddev,
)
from .model import (
    Scenario,
    ShadowingSpec,
    effective_density,
    hex_grid_density,
    pmf_omega,
)
from .numerics import (
    NonConvergenceError,
    QuadratureSpec,
    erlang_quantile,
    integrate_lockstep,
    poisson_cdf,
)
from .reuse import ReuseQuery, pl_with_reuse_grid
from .simulate import (
    Deployment,
    McEstimate,
    SimConfig,
    collect_margins,
    collect_reuse_margins,
    collect_upsilon,
    exceedance_curve,
)

__version__ = "0.1.0"

__all__ = [
    "Method",
    "evaluate_grid",
    "mean_i1",
    "mean_i2",
    "min_processing_gain",
    "E911Config",
    "collect_trials",
    "default_scenario",
    "fcc_compliance",
    "ranging_stddev",
    "Scenario",
    "ShadowingSpec",
    "effective_density",
    "hex_grid_density",
    "pmf_omega",
    "NonConvergenceError",
    "QuadratureSpec",
    "erlang_quantile",
    "integrate_lockstep",
    "poisson_cdf",
    "ReuseQuery",
    "pl_with_reuse_grid",
    "Deployment",
    "McEstimate",
    "SimConfig",
    "collect_margins",
    "collect_reuse_margins",
    "collect_upsilon",
    "exceedance_curve",
    "__version__",
]
