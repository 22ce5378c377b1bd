"""One-point calls of the grid evaluators, for tests that check one scenario.

The library evaluates one scenario, or a family of reuse scenarios, over
a grid of beta/gamma levels in one call, and one level is a grid of one
point.  A test that checks one scenario at one ``beta/gamma`` level passes
it as the one level and reads that entry, with a failure raised.
"""

from hearability.analytic import Method, evaluate_grid
from hearability.numerics import DEFAULT_QUADRATURE, NonConvergenceError
from hearability.reuse import pl_with_reuse_grid


def value_or_raise(value):
    """A grid entry as a value, or its :class:`NonConvergenceError` raised."""
    if isinstance(value, NonConvergenceError):
        raise value
    return value


def pl(method, scenario, level, quad=DEFAULT_QUADRATURE) -> float:
    """P_L of one scenario at one beta/gamma level by the evaluator tagged ``method``."""
    [value] = evaluate_grid(method, scenario, [level], quad)
    return value_or_raise(value)


def pl_reuse(scenario, level, base_method=Method.SINGLE_INTEGRAL_ALPHA4) -> float:
    """P_L of one scenario across its K bands at one level, per band by ``base_method``."""
    [[value]] = pl_with_reuse_grid([scenario], [level], base_method)
    return value_or_raise(value)
