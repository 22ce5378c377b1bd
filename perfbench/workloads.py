"""The benchmark's workloads: the CLI commands each one runs.

Every workload is a list of ``(csv_name, argv)`` pairs.  ``argv`` is
passed unchanged to ``hearability.cli.main`` and always carries the
workload seed as ``--seed`` and ``--no-timestamp``, so one seed gives
byte-identical CSVs.  Sizes are fixed here, not taken from the CLI
defaults, so a later change of a default cannot change the benchmark.
See README.md for why each workload was chosen.
"""

from __future__ import annotations

from pathlib import Path

WORKLOADS = ("analytic", "montecarlo", "e911")

# p = 2/3 exactly as fig4 builds it (repr of 2.0 / 3.0).
_TWO_THIRDS = repr(2.0 / 3.0)
_GRID = ["--bg-start-db", "-20", "--bg-stop-db", "0", "--bg-step-db", "1"]

# Monte Carlo sample sizes; the correctness check scales with them.
MC_REALIZATIONS = {"fig8": 1000, "fig9": 1000, "fig11": 500, "hexgrid": 500}
E911_TRIALS = 4000


def _analytic() -> list[tuple[str, list[str]]]:
    cmds = []
    for alpha in ("3", "3.5", "4", "4.5"):
        cmds.append((
            f"fig4_alpha{alpha}.csv",
            ["analytic", "--methods", "DoubleIntegral,SingleIntegralGeneral",
             "--alpha", alpha, "--p", _TWO_THIRDS, "--l", "4", *_GRID],
        ))
    for tag, p in (("0", "0"), ("1_3", repr(1.0 / 3.0)), ("2_3", _TWO_THIRDS), ("1", "1")):
        cmds.append((
            f"closed_p{tag}.csv",
            ["analytic", "--methods",
             "UpperBound,PerfectCoord,SingleIntegralAlpha4,NearFieldAlpha4",
             "--alpha", "4", "--p", p, "--l", "4", *_GRID],
        ))
    for l in ("4", "8"):
        cmds.append((
            f"reuse_l{l}.csv",
            ["reuse", "--k-list", "1,3,6", "--l", l, "--alpha", "4", *_GRID],
        ))
    cmds.append(("fig5.csv", ["figure", "fig5"]))
    cmds.append(("fig6.csv", ["figure", "fig6"]))
    return cmds


def _montecarlo() -> list[tuple[str, list[str]]]:
    n = {name: str(size) for name, size in MC_REALIZATIONS.items()}
    return [
        (f"{fig}.csv", ["figure", fig, "--realizations", n[fig], "--workers", "1"])
        for fig in ("fig8", "fig9", "fig11")
    ] + [(
        "hexgrid.csv",
        ["hexgrid", "--p", "0.5", "--q", "0.75",
         "--realizations", n["hexgrid"], "--workers", "1"],
    )]


def _e911() -> list[tuple[str, list[str]]]:
    return [
        (f"e911_w{w}.csv", ["e911", "--trials", str(E911_TRIALS), "--workers", str(w)])
        for w in (1, 2)
    ]


_BUILDERS = {"analytic": _analytic, "montecarlo": _montecarlo, "e911": _e911}


def commands(workload: str, seed: int, outdir: Path) -> list[tuple[str, list[str]]]:
    """The workload's ``(csv_name, argv)`` pairs writing into ``outdir``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return [
        (name, [*argv, "--seed", str(seed), "--no-timestamp", "--out", str(Path(outdir) / name)])
        for name, argv in _BUILDERS[workload]()
    ]
