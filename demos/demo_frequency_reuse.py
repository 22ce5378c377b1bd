"""Frequency reuse: the recursion over per-band detection counts vs truth.

Random band assignment splits the network into K independent thinned
deployments; a device needs its per-band detection counts to sum to L.
The recursion composes any single-network evaluator into the reuse
probability.  Monte Carlo rows simulate the bands directly.
"""

import numpy as np

from hearability.analytic import Method
from hearability.model import Scenario
from hearability.reuse import pl_with_reuse_grid
from hearability.simulate import SimConfig, collect_reuse_margins, exceedance_curve

BASE = Scenario(lam=1.0, alpha=4.0, p=1.0, q=1.0, beta=1.0, gamma=1.0, L=4)
GRID = np.arange(-20.0, 0.5, 2.0)
KS = (1, 3, 6)


def main() -> None:
    print("=" * 72)
    print(" Frequency reuse  (L=4, alpha=4, p=q=1)")
    print("=" * 72)
    print(" rec = recursion over per-band counts, mc = band-level simulation\n")

    scenarios = [BASE.replace(K=K) for K in KS]
    levels = 10.0 ** (GRID / 10.0)
    # One call for every K: the per-band table is evaluated once per level.
    recursion = pl_with_reuse_grid(scenarios, levels, Method.SINGLE_INTEGRAL_ALPHA4)
    # One family collection draws each Monte Carlo block once for all K.
    margins = collect_reuse_margins(scenarios, SimConfig(realizations=10000, seed=0))
    columns = {
        K: (recursion[k], [e.value for e in exceedance_curve(margins[k], levels)])
        for k, K in enumerate(KS)
    }

    header = f"{'bg [dB]':>8}" + "".join(
        f"{f'K={K} rec':>10}{f'K={K} mc':>9}" for K in KS
    )
    print(header)
    print("-" * len(header))
    for i, g in enumerate(GRID):
        row = f"{g:>8.0f}"
        for K in KS:
            rec, mc = columns[K]
            row += f"{rec[i]:>10.4f}{mc[i]:>9.4f}"
        print(row)

    print("\n Reuse turns an unusable universal-reuse operating point into a")
    print(" workable one: at -10 dB the K=1 network localizes 12% of the")
    print(" time, K=6 nearly always.")
    print(" Caveat: at high thresholds (right end) the recursion inherits the")
    print(" relative tail error of the per-band approximation, so rec and mc")
    print(" separate there even though both are tiny on the curve scale.")


if __name__ == "__main__":
    main()
