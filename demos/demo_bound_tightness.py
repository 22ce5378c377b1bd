"""Quantifies how far the closed-form upper bound sits from truth.

The bound drops the far-field interference beyond the L-th base station
and treats every near interferer at its worst-case position, so it can
only overestimate P_L.  This script measures the horizontal (dB) gap
between the bound and Monte Carlo truth at several reliability levels
and locates the minimum processing gain the bound certifies.
"""

import numpy as np

from hearability.analytic import Method, evaluate_grid, min_processing_gain
from hearability.model import Scenario
from hearability.simulate import SimConfig, collect_margins

SCEN = Scenario(lam=1.0, alpha=4.0, p=1.0, q=1.0, beta=1.0, gamma=1.0, L=4)


def crossing_db(values: np.ndarray, grid_db: np.ndarray, target: float) -> float:
    return float(np.interp(target, values[::-1], grid_db[::-1]))


def main() -> None:
    print("=" * 72)
    print(" Upper bound tightness  (L=4, alpha=4, p=q=1)")
    print("=" * 72)

    grid = np.arange(-20.0, 0.5, 0.5)
    [margins] = collect_margins([SCEN], SimConfig(realizations=20000, seed=0))
    mc = np.array(
        [np.mean(margins[:, 0] >= 10.0 ** (g / 10.0)) for g in grid]
    )
    bound = np.array(evaluate_grid(Method.UPPER_BOUND, SCEN, 10.0 ** (grid / 10.0)))

    print(f"\n{'P_L':>6} {'mc at [dB]':>11} {'bound at [dB]':>14} {'gap [dB]':>9}")
    print("-" * 44)
    for target in (0.2, 0.4, 0.6, 0.75, 0.9):
        at_mc = crossing_db(mc, grid, target)
        at_bound = crossing_db(bound, grid, target)
        print(f"{target:>6.2f} {at_mc:>11.2f} {at_bound:>14.2f} "
              f"{abs(at_bound - at_mc):>9.2f}")

    print("\n The gap shrinks toward the high-reliability regime (P_L > 0.75),")
    print(" which is where systems are designed to operate.")

    print("\n Minimum processing gain the bound certifies for P_L = 0.8:")
    print(f"{'L':>4} {'gain x beta':>12} {'gain [dB]':>10}")
    print("-" * 28)
    for l in (2, 3, 4, 5, 6):
        gain = min_processing_gain(0.8, l, 4.0, 1.0)
        print(f"{l:>4} {gain:>12.2f} {10*np.log10(gain):>10.2f}")


if __name__ == "__main__":
    main()
