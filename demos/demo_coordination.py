"""Shows what base-station coordination (muting) buys for hearability.

The activity factor p is the probability that a participating base
station fails to blank its transmission while others are detected.
Sweeping p from 1 (no coordination) to 0 (perfect muting) shifts the
P_L curve left; the p=0 limit admits a closed form driven only by the
far-field load q.
"""

import numpy as np

from hearability.analytic import Method, evaluate_grid
from hearability.model import Scenario

BASE = Scenario(lam=1.0, alpha=4.0, p=1.0, q=1.0, beta=1.0, gamma=1.0, L=4)


def main() -> None:
    print("=" * 72)
    print(" Coordination sweep  (L=4, alpha=4, q=1)")
    print("=" * 72)
    print(" Values are P_L from the general single-integral approximation;")
    print(" the last column is the perfect-coordination closed form (p=0).\n")

    ps = (1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0)
    header = f"{'bg [dB]':>8}" + "".join(f"{f'p={p:.2f}':>10}" for p in ps)
    header += f"{'closed p=0':>12}"
    print(header)
    print("-" * len(header))
    grid = np.arange(-20.0, 0.5, 2.0)
    levels = 10.0 ** (grid / 10.0)
    # One grid evaluation per column; the closed form needs no p.
    columns = [
        evaluate_grid(Method.SINGLE_INTEGRAL_GENERAL, BASE.replace(p=p), levels)
        for p in ps
    ] + [evaluate_grid(Method.PERFECT_COORD, BASE, levels)]
    for i, g in enumerate(grid):
        row = f"{g:>8.0f}" + "".join(f"{col[i]:>10.4f}" for col in columns[:-1])
        print(row + f"{columns[-1][i]:>12.4f}")

    print("\n Muting the three nearer participants (p: 1 -> 0) is worth a few dB,")
    print(" but the far-field load q still caps performance: even at p=0 the")
    print(" curve is set by the residual network interference.")
    g = -10.0
    for q in (1.0, 0.5, 0.25):
        [value] = evaluate_grid(
            Method.PERFECT_COORD, BASE.replace(q=q), [10.0 ** (g / 10.0)]
        )
        print(f"   p=0, q={q:>4.2f} at {g:.0f} dB: P_4 = {value:.4f}")


if __name__ == "__main__":
    main()
