"""Validates the conditional geometry the integral approximations rest on.

Given the L-th nearest distance, the nearer points form a uniform
binomial process on the disk; given the count of active ones, the
dominant (closest active) distance has a known power-law CDF; between
the L-th and the last kept distance the points are uniform on the
annulus.  The two conditional interference means close the loop.  All
five are checked on the block rows that every Monte Carlo collector
draws.
"""

import sys
from pathlib import Path

import numpy as np
from scipy import stats

from hearability import simulate
from hearability.model import Scenario
from hearability.simulate import SimConfig

# The closed-form conditional means live with the test suite's oracles.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from sampling_oracle import mean_i1, mean_i2  # noqa: E402

SCEN = Scenario(lam=1.0, alpha=4.0, p=2.0 / 3.0, q=1.0, beta=1.0, gamma=1.0, L=4)
DRAWS = 20000


def main() -> None:
    print("=" * 72)
    print(f" Conditional-law validation on {DRAWS} Poisson realizations")
    print("=" * 72)

    # Each collector row keeps the 48 BSs nearest the device.
    cfg = SimConfig(realizations=DRAWS, seed=0, expected_bs=48)
    L, alpha = SCEN.L, SCEN.alpha
    draws = simulate._BlockDraws(cfg, 0, DRAWS)
    r, u = draws.distances(SCEN), draws.activity()
    rl, rn = r[:, L - 1], r[:, -1]
    inner_u = ((r[:, : L - 1] / rl[:, None]) ** 2).ravel()
    z_vals, i1_res = [], []
    for row, marks in zip(r, u[:, : L - 1] < SCEN.p):
        omega = int(marks.sum())
        if omega >= 1:
            active = row[: L - 1][marks]
            r1, r_l = float(active.min()), row[L - 1]
            z_vals.append(((r_l * r_l - r1 * r1) / (r_l * r_l)) ** omega)
            if omega >= 2 and r1 >= 0.3 * r_l:
                i1_res.append(
                    np.sum(active**-alpha) - r1**-alpha
                    - mean_i1(r1, r_l, omega, SCEN)
                )
    # Outer laws on the first 2000 rows, with w = R_n the last kept distance.
    m = 2000
    rl2, rn2 = rl[:m, None] ** 2, rn[:m, None] ** 2
    outer_u = ((r[:m, L:-1] ** 2 - rl2) / (rn2 - rl2)).ravel()
    far = np.sum(r[:m, L:] ** -alpha, axis=1, where=u[:m, L:] < SCEN.q)
    tail = 2 * np.pi * SCEN.q * SCEN.lam / (alpha - 2) * rn[:m] ** (2 - alpha)
    i2_res = far + tail - np.array([mean_i2(x, SCEN) for x in rl[:m]])
    z_vals = np.asarray(z_vals)
    i1_res = np.asarray(i1_res)

    print(f"\n{'check':<38} {'n':>7} {'statistic':>12} {'verdict':>8}")
    print("-" * 68)
    rows = [
        ("disk uniformity (scaled r^2)", inner_u.size,
         f"KS p={stats.kstest(inner_u, 'uniform').pvalue:.3f}"),
        ("dominant-distance CDF transform", z_vals.size,
         f"KS p={stats.kstest(z_vals, 'uniform').pvalue:.3f}"),
        ("annulus uniformity beyond L-th", outer_u.size,
         f"KS p={stats.kstest(outer_u, 'uniform').pvalue:.3f}"),
        ("near-interference mean residual", i1_res.size,
         f"z={abs(i1_res.mean()) / (i1_res.std(ddof=1) / np.sqrt(i1_res.size)):.2f}"),
        ("far-interference mean residual", i2_res.size,
         f"z={abs(i2_res.mean()) / (i2_res.std(ddof=1) / np.sqrt(i2_res.size)):.2f}"),
    ]
    for name, n, stat in rows:
        verdict = "ok"
        if stat.startswith("KS"):
            verdict = "ok" if float(stat.split("=")[1]) >= 0.01 else "FAIL"
        else:
            verdict = "ok" if float(stat.split("=")[1]) <= 3.0 else "FAIL"
        print(f"{name:<38} {n:>7} {stat:>12} {verdict:>8}")

    print("\n The far-interference check adds the Campbell mean")
    print(" 2*pi*q*lam/(alpha-2) * R_n^(2-alpha) of the base stations beyond")
    print(" the last kept distance R_n before comparing, since each row keeps")
    print(" only the nearest ones.")


if __name__ == "__main__":
    main()
