"""Regenerate the benchmark's reference outputs in ``perfbench/refs``.

Run from the root of a checkout, at the commit whose outputs become the
reference:

    python3 perfbench/make_refs.py

It writes every workload's CSVs for the default seed and the held-out
seed (``check.REF_SEEDS``) under ``refs/<workload>/seed-<n>/`` and the
E911 row expectations to ``refs/e911_expected.json``.

E911 rows are percentiles of heavy-tailed position errors, which have no
plug-in standard error.  Their sampling spread is measured instead: the
E911 trials are run at ``SPREAD_SEEDS`` further seeds, each compliance
row's statistic is recomputed, and a row's expectation is the mean over
those runs with tolerance ``5 * sd * sqrt(1 + 1/len(SPREAD_SEEDS))``.
Five rather than four standard deviations, because ``sd`` is itself an
estimate.  Rates get at least one trial's worth (1/trials).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

import check
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
SPREAD_SEEDS = range(1000, 1030)
E911_SIGMAS = 5.0


def write_references(cli) -> None:
    for workload in workloads.WORKLOADS:
        for seed in check.REF_SEEDS:
            outdir = check.ref_dir(workload, seed)
            shutil.rmtree(outdir, ignore_errors=True)
            outdir.mkdir(parents=True)
            for _, argv in workloads.commands(workload, seed, outdir):
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(argv)
            for script in outdir.glob("plot_*.py"):
                script.unlink()
            print(f"wrote {outdir}")


def _row_stats(trials, cfg) -> dict[tuple[int, str], float]:
    """The compliance-table statistics of ``fcc_compliance`` for one trial set."""
    out = {}
    for l_min in cfg.min_hearability_grid:
        errors = trials[trials[:, 0] >= l_min, 1]
        errors = errors[np.isfinite(errors)]
        if len(errors) == 0:
            raise RuntimeError(f"no fixes at min hearability {l_min}; raise the trial count")
        out[(l_min, "E911_P67_M")] = float(np.percentile(errors, 67.0))
        out[(l_min, "E911_P90_M")] = float(np.percentile(errors, 90.0))
        out[(l_min, "E911_NoFixRate")] = 1.0 - len(errors) / cfg.trials
    return out


def e911_expected() -> dict[str, dict]:
    from hearability.e911 import E911Config, collect_trials

    cfg = E911Config(trials=workloads.E911_TRIALS)
    ref = check.parse_csv(
        (check.ref_dir("e911", check.DEFAULT_SEED) / "e911_w1.csv").read_text()
    )
    keys = {(int(k[1]), k[7]): k for k in ref.rows}
    # The recomputed statistics must reproduce the CLI's rows.
    base = _row_stats(collect_trials(cfg, None, check.DEFAULT_SEED, 2), cfg)
    for stat_key, value in base.items():
        if f"{value:.9g}" != f"{ref.rows[keys[stat_key]][0]:.9g}":
            raise RuntimeError(f"E911 trials do not reproduce the reference row {stat_key}")

    samples: dict[tuple[int, str], list[float]] = {k: [] for k in base}
    for seed in SPREAD_SEEDS:
        for k, v in _row_stats(collect_trials(cfg, None, seed, 2), cfg).items():
            samples[k].append(v)
    out = {}
    for stat_key, values in samples.items():
        tol = E911_SIGMAS * statistics.stdev(values) * math.sqrt(1.0 + 1.0 / len(values))
        if stat_key[1] == "E911_NoFixRate":
            tol = max(tol, 1.0 / cfg.trials)
        out["/".join(keys[stat_key])] = {"mean": statistics.fmean(values), "tol": tol}
    return out


def main() -> int:
    sys.path.insert(0, str(SRC))
    import hearability.cli as cli

    write_references(cli)
    path = check.REFS / "e911_expected.json"
    path.write_text(json.dumps(e911_expected(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
