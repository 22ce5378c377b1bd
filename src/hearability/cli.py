"""Command-line front end: parameter sweeps to CSV, figure recipes.

Subcommands
-----------
``analytic``   closed-form/integral P_L curves over a beta/gamma grid.
``simulate``   Monte Carlo P_L curves (optionally alongside analytic).
``reuse``      P_L under frequency reuse, recursion and/or Monte Carlo.
``hexgrid``    hex-grid vs Poisson hearability distributions.
``e911``       FCC E911 compliance table versus minimum hearability.
``figure``     canned recipes (fig2..fig11) reproducing the study plots,
               each emitting a CSV plus a standalone plot script.

Only ``e911`` and ``figure fig2`` import the E911 layer, when they run;
the other commands never load it.

Every sweep writes one CSV with the fixed column set
``beta_over_gamma_db, L, p, q, alpha, K, lambda, method, value, stderr``
(each row's ``Estimate``; an empty stderr states no error), rows sorted,
floats at 9 significant digits.  Re-running a command with the same
configuration and seed produces a byte-identical file apart from a
leading timestamp comment, which ``--no-timestamp`` suppresses.

One table (``_COMMANDS``) lists each subcommand's parameters.  Every
parameter is both a key of the flat ``key = value`` file read by
``--config`` and the flag ``--key`` (``_`` written as ``-``).  A value
resolves as the flag, then the config file, then the default; the seed
tries ``HEARABILITY_SEED`` before its default of 0.  An unknown or
repeated config key, or a malformed value, aborts the run with an
``error:`` line naming the key.  dB-valued inputs use keys/flags suffixed
``_db`` and are converted at this boundary; the library below works on
linear scale only, so a level whose linear value overflows or underflows
a float is malformed.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .analytic import Method, evaluate_grid, min_processing_gain
from .model import Scenario, hex_grid_density
from .numerics import Estimate, NonConvergenceError
from .reuse import pl_with_reuse_grid
from .simulate import (
    Deployment,
    SimConfig,
    check_upsilon_cap,
    collect_margins,
    collect_reuse_margins,
    collect_upsilon,
    exceedance_curve,
)

if TYPE_CHECKING:
    from .e911 import E911Config

__all__ = ["run_sweeps", "run_figure", "main"]

CSV_COLUMNS = (
    "beta_over_gamma_db",
    "L",
    "p",
    "q",
    "alpha",
    "K",
    "lambda",
    "method",
    "value",
    "stderr",
)

_ANALYTIC_TAGS = {m.value for m in Method}
_MC_TAGS = {"MonteCarloJoint", "MonteCarloLastBs", "MonteCarloReuse"}
# The tags that read the reuse factor K; the others model one band.
_REUSE_TAGS = {"ReuseRecursion", "MonteCarloReuse"}
_SWEEP_TAGS = _ANALYTIC_TAGS | _MC_TAGS | _REUSE_TAGS


@dataclass(frozen=True)
class Row:
    """One CSV row: its key columns and the estimate it prints."""

    bg_db: float
    L: int
    p: float
    q: float
    alpha: float
    K: int
    lam: float
    method: str
    est: Estimate

    def sort_key(self):
        return (self.method, self.L, self.p, self.q, self.alpha, self.K, self.bg_db)


def _known(tag: str) -> str:
    """``tag``, if it names a sweep method."""
    if tag not in _SWEEP_TAGS:
        raise ValueError(
            f"unknown method {tag!r}; valid: {', '.join(sorted(_SWEEP_TAGS))}"
        )
    return tag


def _row(scen: Scenario, bg_db: float, tag: str, value) -> Row:
    """The row of ``scen`` at ``bg_db``: an estimate, a value or a failure."""
    if isinstance(value, NonConvergenceError):
        # A reuse failure carries one band's P_n, not the reuse P_L.
        value = Estimate(
            math.nan if tag == "ReuseRecursion" else value.best_estimate,
            comment=f"nonconvergence method={tag} bg_db={bg_db:.9g} "
            f"residual={value.error_estimate:.3e}",
        )
    elif not isinstance(value, Estimate):
        value = Estimate(value)
    return Row(bg_db, scen.L, scen.p, scen.q, scen.alpha, scen.K, scen.lam, tag, value)


def run_sweeps(
    scenarios: Sequence[Scenario],
    grid_db: Sequence[float],
    methods: Sequence[str],
    sim: SimConfig,
    workers: int = 1,
    base_method: Method = Method.SINGLE_INTEGRAL_ALPHA4,
) -> list[Row]:
    """Every scenario's rows over the beta/gamma grid ``grid_db``, in scenario order.

    The scenarios are one family, which every tag evaluates over one
    level grid: one Monte Carlo collection draws each block once for
    every scenario, and one per-band table by ``base_method`` gives the
    ``ReuseRecursion`` rows, so with that tag the scenarios must share
    L, alpha, p and q.  Each scenario gets the rows it gets in a sweep
    of its own.
    """
    if not grid_db:
        raise ValueError("grid_db must not be empty")
    scenarios = list(scenarios)
    for tag in methods:
        _known(tag)
    for scen in scenarios:
        for tag in methods:
            if scen.K != 1 and tag not in _REUSE_TAGS:
                raise ValueError(
                    f"{tag} models one band and would ignore K={scen.K}; "
                    f"K != 1 needs {' or '.join(sorted(_REUSE_TAGS))}"
                )
    levels = [10.0 ** (g / 10.0) for g in grid_db]
    values: dict[str, list] = {}  # tag -> per scenario, its values over the grid
    if {"MonteCarloJoint", "MonteCarloLastBs"} & set(methods):
        family = collect_margins(scenarios, sim, workers)
        for col, tag in enumerate(("MonteCarloJoint", "MonteCarloLastBs")):
            if tag in methods:
                values[tag] = [exceedance_curve(m[:, col], levels) for m in family]
    if "MonteCarloReuse" in methods:
        family = collect_reuse_margins(scenarios, sim, workers)
        values["MonteCarloReuse"] = [exceedance_curve(m, levels) for m in family]
    if "ReuseRecursion" in methods:
        values["ReuseRecursion"] = pl_with_reuse_grid(scenarios, levels, base_method)
    for tag in (t for t in methods if t in _ANALYTIC_TAGS):
        values[tag] = [evaluate_grid(Method(tag), scen, levels) for scen in scenarios]
    return [
        _row(scen, g, tag, value)
        for i, scen in enumerate(scenarios)
        for tag in methods
        for g, value in zip(grid_db, values[tag][i])
    ]


def hex_vs_ppp_rows(
    scenario: Scenario,
    sim: SimConfig,
    l_max: int,
    sigmas: tuple[float, ...],
    workers: int = 1,
) -> list[Row]:
    """P(Upsilon >= L) rows for L = 1..l_max, L as the varying column.

    ``sim`` draws the Poisson rows (``MonteCarloPPP``) of ``scenario``;
    each shadowing sigma in dB adds hex-grid rows
    (``MonteCarloHex_s<sigma>``), all from one hex family.
    """
    check_upsilon_cap("l_max", l_max)
    bg_db = 10.0 * math.log10(scenario.bg_ratio)
    l_values = range(1, l_max + 1)
    # Upsilon reads no L; at L = l_max the window is sized and checked for every level.
    top = scenario.replace(L=l_max)
    family = [top.replace(sigma_db=sigma) for sigma in sigmas]
    tags = ["MonteCarloPPP"] + [f"MonteCarloHex_s{sigma:g}" for sigma in sigmas]
    counts = collect_upsilon([top], sim, workers) + collect_upsilon(
        family, sim.replace(deployment=Deployment.HEX), workers
    )
    return [
        _row(scenario.replace(L=l), bg_db, tag, est)
        for tag, upsilon in zip(tags, counts)
        for l, est in zip(l_values, exceedance_curve(upsilon, l_values))
    ]


def e911_rows(cfg: E911Config, seed: int, workers: int = 1) -> list[Row]:
    """Compliance table flattened into the standard schema.

    The minimum hearability occupies the L column; percentiles are in
    meters, the no-fix rate (of every trial) and pass flag in [0, 1].
    """
    from .e911 import default_scenario, fcc_compliance

    scen = default_scenario(cfg)
    bg_db = 10.0 * math.log10(cfg.pre_sinr_threshold)
    return [
        _row(scen.replace(L=entry.min_hearability), bg_db, tag, Estimate(value, n=n))
        for entry in fcc_compliance(cfg, seed, workers)
        for tag, value, n in (
            ("E911_P67_M", entry.p67_m, entry.fixes),
            ("E911_P90_M", entry.p90_m, entry.fixes),
            ("E911_NoFixRate", entry.no_fix_rate, cfg.trials),
            ("E911_Pass", 1.0 if entry.passes else 0.0, entry.fixes),
        )
    ]


def procgain_rows(
    target_pl: float, l_values: tuple[int, ...], alphas: tuple[float, ...]
) -> list[Row]:
    """Minimum processing gain (dB over beta) rows; L or alpha varies.

    Their density column is NaN, which no Scenario carries, so no ``_row``.
    """
    return [
        Row(0.0, int(l), 1.0, 1.0, alpha, 1, math.nan, "ProcGainBound", Estimate(
            10.0 * math.log10(min_processing_gain(target_pl, l, alpha, 1.0))
        ))
        for alpha in alphas
        for l in l_values
    ]


# One CSV row: bg_db, L, p, q, alpha, K, lam, method, value, stderr.  NaN
# (a column that does not apply) formats as "nan".
_ROW_FORMAT = "%.9g,%s,%.9g,%.9g,%.9g,%s,%.9g,%s,%.9g,%s"


def write_csv(rows: list[Row], out: Path, timestamp: bool) -> None:
    """Write sorted rows under the fixed header, replacing ``out`` in place."""
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    if timestamp:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines.append(f"# generated {stamp}")
    lines.append(",".join(CSV_COLUMNS))
    for row in sorted(rows, key=Row.sort_key):
        if row.est.comment:
            lines.append(f"# {row.est.comment}")
        stderr = "" if row.est.stderr is None else "%.9g" % row.est.stderr
        lines.append(_ROW_FORMAT % (
            row.bg_db, row.L, row.p, row.q, row.alpha, row.K, row.lam,
            row.method, row.est.value, stderr,
        ))
    out.write_text("\n".join(lines) + "\n")


_PLOT_TEMPLATE = '''"""Plot {figname} from {csvname} (generated alongside the CSV)."""
import csv
from collections import defaultdict
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

X_COLUMN = {x_col!r}
here = Path(__file__).resolve().parent
rows = []
with open(here / {csvname!r}) as fh:
    for record in csv.DictReader(r for r in fh if not r.startswith("#")):
        rows.append(record)

series = defaultdict(list)
label_cols = [c for c in ("method", "L", "p", "q", "alpha", "K")
              if c != X_COLUMN and len({{r[c] for r in rows}}) > 1]
for r in rows:
    key = r["method"] if not label_cols else " ".join(
        r["method"] if c == "method" else f"{{c}}={{r[c]}}" for c in label_cols
    )
    series[key].append((float(r[X_COLUMN]), float(r["value"])))

fig, ax = plt.subplots(figsize=(7, 5))
for label, pts in sorted(series.items()):
    pts.sort()
    ax.plot([x for x, _ in pts], [y for _, y in pts], marker=".", label=label)
ax.set_xlabel(X_COLUMN)
ax.set_ylabel("value")
ax.set_title({figname!r})
ax.grid(True, alpha=0.3)
ax.legend(fontsize=7)
fig.tight_layout()
fig.savefig(here / "{figname}.png", dpi=150)
print("wrote", here / "{figname}.png")
'''


def write_plot_script(name: str, csv_path: Path, x_col: str) -> Path:
    script = csv_path.with_name(f"plot_{name}.py")
    script.write_text(
        _PLOT_TEMPLATE.format(figname=name, csvname=csv_path.name, x_col=x_col)
    )
    return script


# --- figure recipes --------------------------------------------------------


def _grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """``start, start + step, ...`` up to the last point at or below ``stop``.

    A point within 1e-9 steps past ``stop`` is kept, so grids that divide
    evenly keep their last point despite rounding.
    """
    count = math.floor((stop - start) / step + 1e-9) + 1
    return tuple(round(start + i * step, 9) for i in range(count))


_DENSITY = hex_grid_density(500.0)  # nominal density for sweep figures


def _base() -> Scenario:
    """The recipes' shared scenario: alpha = 4, p = q = 1, L = 4, one band."""
    return Scenario(lam=_DENSITY, alpha=4.0, p=1.0, q=1.0, beta=1.0, gamma=1.0, L=4)


def _sweep_family(step: float, field: str, values: tuple, tags: tuple[str, ...], **fixed):
    """Rows of ``tags`` over beta/gamma from -20 to 0 dB in ``step`` dB steps.

    The family has one scenario per value of ``field``, each on the base
    scenario with ``fixed`` applied.
    """

    def rows(seed: int, size: int, workers: int) -> list[Row]:
        base = _base().replace(**fixed)
        scenarios = [base.replace(**{field: value}) for value in values]
        sim = SimConfig(realizations=size, seed=seed)
        return run_sweeps(scenarios, _grid(-20.0, 0.0, step), tags, sim, workers)

    return rows


def _hex_family(sigmas: tuple[float, ...], K: int):
    """Rows of hex versus Poisson P(Upsilon >= L), L = 1..16, at -10 dB."""

    def rows(seed: int, size: int, workers: int) -> list[Row]:
        scen = _base().replace(beta=10.0 ** (-1.0), L=1, K=K)
        return hex_vs_ppp_rows(scen, SimConfig(realizations=size, seed=seed), 16, sigmas, workers)

    return rows


def _e911_table(seed: int, size: int, workers: int) -> list[Row]:
    """Rows of the default E911 compliance table over ``size`` trials."""
    from .e911 import E911Config

    return e911_rows(E911Config(trials=size), seed, workers)


_BG = "beta_over_gamma_db"
# name -> (x column, default sample size, or None for a recipe that draws
# no sample, and rows(seed, size, workers)).
_FIGURES = {
    "fig2": ("L", 4000, _e911_table),
    "fig3": (_BG, 20000, _sweep_family(0.5, "L", (4,), (
        "UpperBound", "NearFieldAlpha4", "SingleIntegralAlpha4", "MonteCarloJoint"))),
    "fig4": (_BG, 20000, _sweep_family(1.0, "alpha", (3.0, 3.5, 4.0, 4.5), (
        "DoubleIntegral", "SingleIntegralGeneral", "MonteCarloJoint"), p=2.0 / 3.0)),
    "fig5": ("L", None, lambda *_: procgain_rows(0.8, (2, 3, 4, 5, 6, 7), (4.0,))),
    "fig6": ("alpha", None, lambda *_: procgain_rows(0.8, (4,), _grid(2.5, 6.0, 0.25))),
    "fig7": (_BG, 20000, _sweep_family(0.5, "p", (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0), (
        "SingleIntegralAlpha4", "MonteCarloJoint"))),
    "fig8": (_BG, 20000, _sweep_family(0.5, "L", (2, 4, 6, 8), (
        "SingleIntegralAlpha4", "MonteCarloJoint"), p=0.5, q=0.75)),
    "fig9": (_BG, 10000, _sweep_family(1.0, "K", (1, 3, 6), (
        "ReuseRecursion", "MonteCarloReuse"))),
    "fig10": ("L", 10000, _hex_family((4.0, 8.0, 12.0), 1)),
    "fig11": ("L", 10000, _hex_family((8.0,), 6)),
}


def run_figure(
    name: str,
    seed: int = 0,
    realizations: int | None = None,
    workers: int = 1,
    out: Path | None = None,
    timestamp: bool = True,
) -> Path:
    """Build a canned figure dataset; returns the CSV path.

    ``realizations`` of None runs the recipe's own sample size.
    """
    if name not in _FIGURES:
        raise ValueError(
            f"unknown figure {name!r}; valid: {', '.join(sorted(_FIGURES))}"
        )
    x_col, size, rows = _FIGURES[name]
    if realizations is not None:
        if size is None:
            raise ValueError(f"realizations: {name} draws no Monte Carlo sample")
        least = 1
        if name == "fig2":  # fig2 runs ``realizations`` E911 trials
            from .e911 import MIN_TRIALS

            least = MIN_TRIALS
        if realizations < least:
            raise ValueError(
                f"realizations must be >= {least} for {name}, got {realizations}"
            )
        size = realizations
    csv_path = Path(out) if out is not None else Path(f"{name}.csv")
    write_csv(rows(seed, size, workers), csv_path, timestamp)
    write_plot_script(name, csv_path, x_col)
    return csv_path


# --- configuration plumbing ------------------------------------------------


def read_config(path: Path) -> dict[str, str]:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
        out[key] = value
    return out


def _distinct(values: tuple) -> tuple:
    """``values``; an entry given twice would write its rows twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{value} is listed twice")
    return values


def _int_list(text: str) -> tuple[int, ...]:
    values = tuple(int(t) for t in text.split(",") if t.strip())
    if not values:
        raise ValueError("empty list")
    if min(values) < 1:
        raise ValueError(f"entries must be positive integers, got {min(values)}")
    return _distinct(values)


def _methods(text: str) -> tuple[str, ...]:
    tags = tuple(_known(t.strip()) for t in text.split(",") if t.strip())
    if not tags:
        raise ValueError("empty methods list")
    return _distinct(tags)


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be a positive integer, got {value}")
    return value


def _db(text: str) -> float:
    """A level in dB whose linear value ``10 ** (db / 10)`` is a positive float."""
    value = float(text)
    try:
        linear = 10.0 ** (value / 10.0)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ValueError(f"must be a level between about -3230 and 3080 dB, got {value}")
    return value


def _bit(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


# Each subcommand's parameters as key -> (converter, default, help).  Every
# key is both a config-file key and the flag --key (with '_' as '-'); both
# sources go through the same converter.
_COMMON = {
    "seed": (int, 0, "master RNG seed (else HEARABILITY_SEED, else 0)"),
    "workers": (_count, 1, "parallel row spans, run by at most one process per CPU"),
}
_MONTE_CARLO = {
    "realizations": (int, 10000, "Monte Carlo sample size"),
    "expected_bs": (
        int, None,
        "BSs kept per Monte Carlo deployment, the interference beyond them entering "
        "as its mean (default: max(250, 10*L) Poisson, 1000 hex)",
    ),
}
_NETWORK = {
    "alpha": (float, 4.0, "path loss exponent"),
    "p": (float, 1.0, "participant activity"),
    "q": (float, 1.0, "background activity"),
}
_SWEEP_GRID = {
    "l": (int, 4, "required BS count L"),
    "lam": (float, _DENSITY, "BS density"),
    "bg_start_db": (_db, -20.0, "first beta/gamma grid point in dB"),
    "bg_stop_db": (_db, 0.0, "last beta/gamma grid point in dB"),
    "bg_step_db": (float, 1.0, "beta/gamma grid step in dB"),
    "base_method": (
        Method, Method.SINGLE_INTEGRAL_ALPHA4, "per-band evaluator of ReuseRecursion"
    ),
}
_K = {"k": (int, 1, "frequency reuse factor")}
_MAX_GRID_POINTS = 10_000  # beta/gamma points per sweep; the recipes use at most 41


def _out(default: str | None) -> dict:
    return {"out": (Path, default and Path(default), "output CSV path")}


def _sim(v: dict) -> SimConfig:
    return SimConfig(
        realizations=v["realizations"], seed=v["seed"], expected_bs=v["expected_bs"]
    )


def _run_grid(
    v: dict, k_values: tuple[int, ...], methods: tuple[str, ...]
) -> list[Row]:
    """The sweep of the family ``k_values`` over the resolved grid ``v``."""
    start, stop, step = v["bg_start_db"], v["bg_stop_db"], v["bg_step_db"]
    if not math.isfinite(step):
        raise ValueError(f"bg_step_db: must be finite, got {step}")
    if step <= 0 or stop < start:
        raise ValueError("need bg_step_db > 0 and bg_stop_db >= bg_start_db")
    if (stop - start) / step + 1e-9 >= _MAX_GRID_POINTS:
        raise ValueError(f"bg_step_db: the grid would exceed {_MAX_GRID_POINTS} points")
    if step < 1e-9:  # ``_grid`` rounds its points to 1e-9 dB
        raise ValueError(f"bg_step_db: must be at least 1e-09, the grid's resolution, got {step}")
    # P_L reads beta and gamma only through beta/gamma, which the grid sets.
    scenarios = [
        Scenario(
            lam=v["lam"], alpha=v["alpha"], p=v["p"], q=v["q"], beta=1.0, gamma=1.0,
            L=v["l"], K=K,
        )
        for K in k_values
    ]
    return run_sweeps(
        scenarios, _grid(start, stop, step), methods, _sim(v), v["workers"],
        v["base_method"],
    )


def _sweep(v: dict) -> list[Row]:
    return _run_grid(v, (v["k"],), v["methods"])


def _reuse(v: dict) -> list[Row]:
    methods = ("ReuseRecursion", "MonteCarloReuse") if v["mc"] else ("ReuseRecursion",)
    return _run_grid(v, v["k_list"], methods)


def _hexgrid(v: dict) -> list[Row]:
    scen = Scenario(
        lam=hex_grid_density(v["isd"]), alpha=v["alpha"], p=v["p"], q=v["q"],
        beta=10.0 ** (v["bg_db"] / 10.0), gamma=1.0, L=1, K=v["k"],
    )
    sim = _sim(v).replace(hex_isd=v["isd"])
    return hex_vs_ppp_rows(scen, sim, v["l_max"], (v["sigma_db"],), v["workers"])


def _e911(v: dict) -> list[Row]:
    from .e911 import E911Config

    econfig = E911Config(
        trials=v["trials"],
        processing_gain_db=v["gain_db"],
        pre_sinr_threshold=10.0 ** (v["pre_sinr_db"] / 10.0),
        min_hearability_grid=v["grid"],
        alpha=v["alpha"],
        shadow_sigma_db=v["sigma_db"],
        hex_isd=v["isd"],
        bandwidth=v["bandwidth"],
        clock_std=v["clock_std"],
        nlos_mean=v["nlos_mean"],
        max_bs_per_fix=v["max_bs"],
    )
    return e911_rows(econfig, v["seed"], v["workers"])


_SWEEP = {**_COMMON, **_MONTE_CARLO, **_NETWORK, **_K, **_SWEEP_GRID}
_ANALYTIC_METHODS = (
    "UpperBound", "PerfectCoord", "SingleIntegralAlpha4", "NearFieldAlpha4"
)

# name -> (help, rows runner, parameters); ``figure`` runs ``run_figure``.
_COMMANDS = {
    "analytic": ("closed-form and integral P_L curves", _sweep, {
        **_SWEEP, **_out("analytic.csv"),
        "methods": (_methods, _ANALYTIC_METHODS, "comma-separated method tags"),
    }),
    "simulate": ("Monte Carlo P_L curves", _sweep, {
        **_SWEEP, **_out("simulate.csv"),
        "methods": (_methods, ("MonteCarloJoint",), "comma-separated method tags"),
    }),
    "reuse": ("P_L under frequency reuse", _reuse, {
        **_COMMON, **_MONTE_CARLO, **_NETWORK, **_SWEEP_GRID, **_out("reuse.csv"),
        "k_list": (_int_list, (1, 3, 6), "comma-separated reuse factors K"),
        "mc": (_bit, False, "1 (or a bare --mc) adds Monte Carlo rows"),
    }),
    "hexgrid": ("hex-grid vs Poisson hearability", _hexgrid, {
        **_COMMON, **_MONTE_CARLO, **_NETWORK, **_K, **_out("hexgrid.csv"),
        "isd": (float, 500.0, "hex intersite distance"),
        "sigma_db": (float, 8.0, "hex shadowing sigma in dB (0 disables)"),
        "bg_db": (_db, -10.0, "beta/gamma in dB"),
        "l_max": (_count, 16, "largest L"),
    }),
    "e911": ("FCC E911 compliance table", _e911, {
        **_COMMON, **_out("e911.csv"),
        "trials": (int, 4000, "positioning trials"),
        "gain_db": (_db, 8.0, "processing gain in dB"),
        "pre_sinr_db": (_db, -13.0, "detection threshold beta/gamma in dB"),
        "alpha": (float, 3.76, "path loss exponent"),
        "sigma_db": (float, 8.0, "shadowing sigma in dB"),
        "isd": (float, 500.0, "equivalent hex intersite distance"),
        "grid": (_int_list, (4, 5, 6, 7, 8), "comma-separated minimum hearabilities"),
        "max_bs": (int, None, "cap on BSs per fix (default: all heard)"),
        "bandwidth": (float, 1e7, "positioning bandwidth in Hz"),
        "clock_std": (float, 1e-7, "BS clock error std in s"),
        "nlos_mean": (float, 30.0, "mean NLOS range bias in m"),
    }),
    "figure": ("canned figure datasets", None, {
        **_COMMON, **_out(None),
        "realizations": (int, None, "Monte Carlo sample size (default: the recipe's)"),
    }),
}


def _lookup(key: str, param: tuple, args, cfg: dict[str, str]):
    """Flag, then config file, then (seed only) HEARABILITY_SEED, then default."""
    convert, default, _ = param
    raw = getattr(args, key, None)
    if raw is None:
        raw = cfg.get(key)
    if raw is None and key == "seed":
        raw = os.environ.get("HEARABILITY_SEED")
    if raw is None:
        return default
    try:
        return convert(raw)
    except ValueError as err:
        raise SystemExit(f"error: {key}: {err}") from None


def _resolve(params: dict, args, cfg: dict[str, str], source: str) -> dict:
    """Every parameter's value; config keys outside the table abort the run."""
    unknown = set(cfg) - set(params)
    if unknown:
        raise SystemExit(
            f"error: unknown config key(s) in {source}: "
            f"{', '.join(sorted(unknown))}; allowed: {', '.join(sorted(params))}"
        )
    return {key: _lookup(key, param, args, cfg) for key, param in params.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hearability",
        description="Base-station hearability probabilities and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, _, params) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext, allow_abbrev=False)
        if name == "figure":
            cmd.add_argument("name", choices=sorted(_FIGURES))
        cmd.add_argument("--config", type=Path, help="flat key = value config file")
        cmd.add_argument(
            "--no-timestamp", action="store_true",
            help="omit the generation-time comment for byte-identical re-runs",
        )
        for key, (convert, _, text) in params.items():
            # Values stay strings here: the resolver converts flag and
            # config values alike.
            bare = {"nargs": "?", "const": "1"} if convert is _bit else {}
            cmd.add_argument("--" + key.replace("_", "-"), dest=key, help=text, **bare)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first :func:`main` call of a process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    _, rows, params = _COMMANDS[args.command]
    try:
        cfg = read_config(args.config) if args.config else {}
        v = _resolve(params, args, cfg, str(args.config))
        if args.command == "figure":
            out = run_figure(
                args.name, v["seed"], v["realizations"], v["workers"], v["out"],
                not args.no_timestamp,
            )
        else:
            out = v["out"]
            write_csv(rows(v), out, not args.no_timestamp)
    except (ValueError, OSError) as err:
        # Values the library rejects and files that cannot be read or
        # written end the run with a message, not a traceback.
        raise SystemExit(f"error: {err}") from None
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
