"""End-to-end positioning accuracy versus the number of hearable stations.

Runs the full TDOA pipeline (detection at a pre-processing SINR floor,
ranging noise from the bandwidth-dependent bound, exponential NLOS bias,
clock jitter, two-stage weighted least squares with a Gauss-Newton
polish) and tabulates accuracy percentiles against the FCC E911 mandate
of 50 m at 67% and 150 m at 90%.
"""

import numpy as np

from hearability.e911 import (
    MIN_TRIALS,
    E911Config,
    collect_trials,
    fcc_compliance,
)

TRIALS = 4000
SEED = 1


def main() -> None:
    cfg = E911Config(trials=TRIALS)

    print("=" * 72)
    print(" E911 compliance versus minimum hearability")
    print("=" * 72)
    print(f" pre-processing SINR floor: {10*np.log10(cfg.pre_sinr_threshold):.0f} dB, "
          f"bandwidth {cfg.bandwidth/1e6:.0f} MHz, clock {cfg.clock_std*1e9:.0f} ns,")
    print(f" NLOS mean {cfg.nlos_mean:.0f} m, alpha {cfg.alpha}, "
          f"shadowing {cfg.shadow_sigma_db:.0f} dB, {TRIALS} trials, seed {SEED}")

    print(f"\n{'L >=':>5} {'p67 [m]':>9} {'p90 [m]':>9} {'no-fix rate':>12} "
          f"{'FCC (50/150)':>13}")
    print("-" * 52)
    for row in fcc_compliance(cfg, seed=SEED):
        verdict = "pass" if row.passes else "fail"
        print(f"{row.min_hearability:>5} {row.p67_m:>9.1f} {row.p90_m:>9.1f} "
              f"{row.no_fix_rate:>12.3f} {verdict:>13}")

    print("\n Demanding more hearable stations sharpens the fixes that remain")
    print(" but discards ever more trials as no-fix: accuracy and availability")
    print(" pull in opposite directions, which is exactly the hearability")
    print(" problem interference mitigation has to solve.")

    noiseless = E911Config(bandwidth=np.inf, clock_std=0.0, nlos_mean=0.0)
    # Errors of the fixes among the first 50 trials (NaN without a fix).
    errors = collect_trials(noiseless.replace(trials=MIN_TRIALS), seed=SEED)[:50, 1]
    errors = errors[np.isfinite(errors)]
    print(f"\n Sanity: with all noise sources off, {len(errors)} fixes recover the")
    print(f" device to within {max(errors):.1e} m (solver is exact on clean data).")


if __name__ == "__main__":
    main()
