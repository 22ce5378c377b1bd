"""Hearability curve walk-through: every evaluator against Monte Carlo truth.

Sweeps the detection threshold beta/gamma for L=4, alpha=4, p=q=1 and
prints the closed-form bound, the near-field closed form, the
single-integral approximation, and the joint-SINR Monte Carlo estimate
side by side.  The -16 dB row is the anchor: a TDOA system needing
-6 dB post-processing SINR with 10 dB of processing gain localizes
only about half the time under universal reuse.
"""

import numpy as np

from hearability.analytic import Method, evaluate_grid
from hearability.model import Scenario
from hearability.simulate import SimConfig, collect_margins

SCEN = Scenario(lam=1.0, alpha=4.0, p=1.0, q=1.0, beta=1.0, gamma=1.0, L=4)
REALIZATIONS = 20000
SEED = 0


def main() -> None:
    print("=" * 72)
    print(" P_L versus beta/gamma  (L=4, alpha=4, p=q=1)")
    print("=" * 72)
    print(f" Monte Carlo: {REALIZATIONS} realizations, joint SINR truth, seed {SEED}")
    print()

    [margins] = collect_margins([SCEN], SimConfig(realizations=REALIZATIONS, seed=SEED))
    grid = np.arange(-20.0, 0.5, 2.0)
    levels = 10.0 ** (grid / 10.0)
    bound, nearfield, alpha4 = (
        evaluate_grid(method, SCEN, levels)
        for method in (Method.UPPER_BOUND, Method.NEAR_FIELD_ALPHA4,
                       Method.SINGLE_INTEGRAL_ALPHA4)
    )
    header = f"{'bg [dB]':>8} {'bound':>9} {'nearfield':>10} {'alpha4':>9} {'mc':>9} {'stderr':>8}"
    print(header)
    print("-" * len(header))
    for i, (g, level) in enumerate(zip(grid, levels)):
        mc = float(np.mean(margins[:, 0] >= level))
        se = float(np.sqrt(mc * (1.0 - mc) / REALIZATIONS))
        mark = "  <- anchor" if g == -16.0 else ""
        print(
            f"{g:>8.0f} {bound[i]:>9.4f} {nearfield[i]:>10.4f} {alpha4[i]:>9.4f} "
            f"{mc:>9.4f} {se:>8.4f}{mark}"
        )

    anchor = 10.0 ** -1.6
    mc = float(np.mean(margins[:, 0] >= anchor))
    [analytic] = evaluate_grid(Method.SINGLE_INTEGRAL_ALPHA4, SCEN, [anchor])
    print()
    print(f" Anchor check: mc={mc:.4f}, alpha4={analytic:.4f} "
          f"(difference {abs(mc - analytic):.4f})")
    print(" The single-integral curve tracks truth across the whole sweep;")
    print(" the bound is tight above P_L ~ 0.75 and loosens below it.")


if __name__ == "__main__":
    main()
