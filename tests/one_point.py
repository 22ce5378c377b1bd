"""One-point calls of the grid evaluators, for tests that check one scenario.

The library evaluates a beta/gamma grid or a family of reuse scenarios in
one call, and one scenario is a grid of one point.  A test that checks
one point reads entry 0 of such a call, with a failure raised.
"""

from hearability.analytic import Method, evaluate_grid
from hearability.numerics import DEFAULT_QUADRATURE, NonConvergenceError
from hearability.reuse import pl_with_reuse_grid


def value_or_raise(value):
    """A grid entry as a value, or its :class:`NonConvergenceError` raised."""
    if isinstance(value, NonConvergenceError):
        raise value
    return value


def pl(method, scenario, quad=DEFAULT_QUADRATURE) -> float:
    """P_L of one scenario by the evaluator tagged ``method``."""
    return value_or_raise(evaluate_grid(method, [scenario], quad)[0])


def pl_reuse(scenario, base_method=Method.SINGLE_INTEGRAL_ALPHA4) -> float:
    """P_L of one scenario across its K bands, per-band levels by ``base_method``."""
    return value_or_raise(pl_with_reuse_grid([scenario], base_method)[0])
