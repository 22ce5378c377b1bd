"""Hearability of base stations for positioning in Poisson cellular networks.

The package answers one question in several ways: with what probability
can a device receive at least L base stations well enough to localize?

Modules
-------
``model``     the scenario (shadowing included), densities, the law of Omega.
``analytic``  closed-form bounds and integral approximations of P_L.
``reuse``     P_L under K-fold frequency reuse via a counting recursion.
``simulate``  Monte Carlo ground truth on Poisson and hex deployments.
``e911``      TDOA location fixes and FCC E911 accuracy compliance.
``numerics``  adaptive quadrature, root finding, Poisson/Erlang helpers.
``parallel``  chunked process-pool map shared by the collectors.
``cli``       sweep-to-CSV command line front end and figure recipes.

``import hearability`` loads none of them.  Each name in ``__all__`` is
imported from its module on first access (PEP 562), so a process loads
only the layers it uses: a CLI run of ``analytic`` never loads ``e911``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Exported name -> the module that defines it.
_EXPORTS = {
    "Method": "analytic",
    "evaluate_grid": "analytic",
    "min_processing_gain": "analytic",
    "E911Config": "e911",
    "collect_trials": "e911",
    "default_scenario": "e911",
    "fcc_compliance": "e911",
    "ranging_stddev": "e911",
    "Scenario": "model",
    "effective_density": "model",
    "hex_grid_density": "model",
    "pmf_omega": "model",
    "Estimate": "numerics",
    "NonConvergenceError": "numerics",
    "QuadratureSpec": "numerics",
    "erlang_quantile": "numerics",
    "integrate_lockstep": "numerics",
    "poisson_cdf": "numerics",
    "pl_with_reuse_grid": "reuse",
    "SimConfig": "simulate",
    "collect_margins": "simulate",
    "collect_reuse_margins": "simulate",
    "collect_upsilon": "simulate",
    "exceedance_curve": "simulate",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
