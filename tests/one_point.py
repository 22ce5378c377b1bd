"""One-point calls of the grid evaluators, for tests that check one scenario.

The library evaluates one scenario, or a family of reuse scenarios, over
a grid of beta/gamma levels in one call, and one level is a grid of one
point.  A test that checks one scenario passes its own ``beta/gamma`` as
the one level and reads that entry, with a failure raised.
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
    [value] = evaluate_grid(method, scenario, [scenario.beta / scenario.gamma], quad)
    return value_or_raise(value)


def pl_reuse(scenario, base_method=Method.SINGLE_INTEGRAL_ALPHA4) -> float:
    """P_L of one scenario across its K bands, per-band levels by ``base_method``."""
    [[value]] = pl_with_reuse_grid(
        [scenario], [scenario.beta / scenario.gamma], base_method
    )
    return value_or_raise(value)
