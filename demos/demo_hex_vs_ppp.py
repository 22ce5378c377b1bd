"""Hex-grid deployments look Poisson once shadowing is strong enough.

Compares the hearability distribution P(Upsilon >= L) between a
hexagonal-lattice deployment (with lognormal shadowing folded into
equivalent distances) and the Poisson model (shadowing-invariant).
The Kolmogorov-Smirnov distance between the two curves shrinks as the
shadowing standard deviation grows, and frequency reuse closes the gap
further.
"""

import numpy as np

from hearability.model import Scenario
from hearability.simulate import (
    Deployment,
    SimConfig,
    collect_upsilon,
    exceedance_curve,
)

BASE = Scenario(lam=1.0, alpha=4.0, p=1.0, q=1.0, beta=0.1, gamma=1.0, L=1)
L_VALUES = np.arange(1, 17)
N = 10000
SIGMAS = (4.0, 8.0, 12.0)


def curves(family: list[Scenario], sim: SimConfig) -> list[np.ndarray]:
    """P(Upsilon >= L) over L_VALUES for each scenario of one family."""
    return [
        np.array([e.value for e in exceedance_curve(upsilon, L_VALUES)])
        for upsilon in collect_upsilon(family, sim)
    ]


def main() -> None:
    print("=" * 72)
    print(" Hex grid versus Poisson  (beta/gamma = -10 dB, alpha=4, p=q=1)")
    print("=" * 72)

    sim = SimConfig(realizations=N, seed=0)
    hex_sim = sim.replace(deployment=Deployment.HEX)
    [ppp] = curves([BASE], sim)
    # Shadowing is a scenario input, so the three sigmas are one hex family
    # that draws each block's lattice geometry and normals once.
    hex_curves = dict(zip(SIGMAS, curves([BASE.replace(sigma_db=s) for s in SIGMAS],
                                         hex_sim)))

    print(f"\n{'L':>4} {'ppp':>8}" + "".join(
        f"{f'hex s={s:.0f}':>10}" for s in SIGMAS))
    print("-" * 44)
    for i, l in enumerate(L_VALUES):
        row = f"{l:>4} {ppp[i]:>8.4f}"
        for sigma in SIGMAS:
            row += f"{hex_curves[sigma][i]:>10.4f}"
        print(row)

    print(f"\n{'sigma [dB]':>11} {'KS distance to PPP':>20}")
    print("-" * 33)
    for sigma in SIGMAS:
        ks = float(np.max(np.abs(hex_curves[sigma] - ppp)))
        print(f"{sigma:>11.0f} {ks:>20.4f}")

    reuse = BASE.replace(K=6)
    [ppp6] = curves([reuse], sim)
    [hex6] = curves([reuse.replace(sigma_db=8.0)], hex_sim)
    print(f"\n With K=6 and sigma=8 dB the curves differ by at most "
          f"{np.max(np.abs(hex6[:10] - ppp6[:10])):.4f} for L <= 10,")
    print(" so Poisson analysis stands in for the planned grid in the regime")
    print(" where positioning actually operates.")


if __name__ == "__main__":
    main()
