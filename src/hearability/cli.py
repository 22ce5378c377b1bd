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

Every sweep writes one CSV with the fixed column set
``beta_over_gamma_db, L, p, q, alpha, K, lambda, method, value, stderr``
(stderr empty for deterministic methods), rows sorted, floats at 9
significant digits.  Re-running a command with the same configuration
and seed produces a byte-identical file apart from a leading timestamp
comment, which ``--no-timestamp`` suppresses.

Configuration may come from a flat ``key = value`` file (``--config``);
command-line flags override file values.  The master seed resolves as
``--seed``, then the config file, then ``HEARABILITY_SEED``, then 0.
dB-valued inputs use keys/flags suffixed ``_db`` and are converted at
this boundary; the library below works on linear scale only.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .analytic import Method, evaluate, min_processing_gain
from .e911 import E911Config, default_scenario, fcc_compliance
from .model import Scenario, ShadowingSpec, hex_grid_density
from .numerics import NonConvergenceError, QuadratureSpec
from .reuse import ReuseQuery, pl_with_reuse
from .simulate import (
    Deployment,
    McEstimate,
    SimConfig,
    TruthMode,
    collect_margins,
    hearability_curve,
    reuse_success_curve,
)

__all__ = ["SweepSpec", "run_sweep", "run_figure", "main"]

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

_ANALYTIC_TAGS = {m.value for m in Method} - {Method.PROC_GAIN_BOUND.value}
_MC_TAGS = {"MonteCarloJoint", "MonteCarloLastBs", "MonteCarloReuse"}


@dataclass(frozen=True)
class Row:
    """One CSV row plus an optional flag comment emitted above it."""

    bg_db: float
    L: int
    p: float
    q: float
    alpha: float
    K: int
    lam: float
    method: str
    value: float
    stderr: float | None = None
    comment: str | None = None

    def sort_key(self):
        return (self.method, self.L, self.p, self.q, self.alpha, self.K, self.bg_db)


@dataclass(frozen=True)
class SweepSpec:
    """A resolved sweep request: scenario family, grid, methods, controls."""

    scenario: Scenario
    grid_db: tuple[float, ...]
    methods: tuple[str, ...]
    sim: SimConfig
    workers: int = 1
    base_method: Method = Method.SINGLE_INTEGRAL_ALPHA4
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self) -> None:
        if not self.grid_db:
            raise ValueError("grid_db must not be empty")
        known = _ANALYTIC_TAGS | _MC_TAGS | {"ReuseRecursion"}
        for tag in self.methods:
            if tag not in known:
                raise ValueError(
                    f"unknown method {tag!r}; valid: {', '.join(sorted(known))}"
                )


def _at_threshold(scenario: Scenario, bg_db: float) -> Scenario:
    """Scenario with beta set so beta/gamma equals the grid point."""
    return scenario.replace(beta=scenario.gamma * 10.0 ** (bg_db / 10.0))


def run_sweep(spec: SweepSpec) -> list[Row]:
    """Evaluate every requested method over the beta/gamma grid."""
    rows: list[Row] = []
    scen = spec.scenario
    thresholds = np.array([10.0 ** (g / 10.0) for g in spec.grid_db])

    def base_row(bg_db: float, method: str, value: float, stderr=None, comment=None):
        return Row(
            bg_db, scen.L, scen.p, scen.q, scen.alpha, scen.K, scen.lam,
            method, value, stderr, comment,
        )

    def nonconvergent(g: float, tag: str, value: float, err) -> Row:
        comment = (
            f"nonconvergence method={tag} bg_db={g:.9g} "
            f"residual={err.error_estimate:.3e}"
        )
        return base_row(g, tag, value, comment=comment)

    for tag in spec.methods:
        if tag in _ANALYTIC_TAGS:
            for g in spec.grid_db:
                point = _at_threshold(scen, g)
                try:
                    rows.append(base_row(g, tag, evaluate(Method(tag), point, spec.quad)))
                except NonConvergenceError as err:
                    rows.append(nonconvergent(g, tag, err.best_estimate, err))
        elif tag == "ReuseRecursion":
            for g in spec.grid_db:
                query = ReuseQuery(_at_threshold(scen, g), spec.base_method, spec.quad)
                try:
                    rows.append(base_row(g, tag, pl_with_reuse(query)))
                except NonConvergenceError as err:
                    # The error carries one band's P_n, not the reuse P_L.
                    rows.append(nonconvergent(g, tag, math.nan, err))
        else:
            if tag == "MonteCarloReuse":
                estimates = reuse_success_curve(scen, spec.sim, thresholds, spec.workers)
            else:  # MonteCarloJoint / MonteCarloLastBs
                margins = collect_margins(scen, spec.sim, spec.workers)
                col = 0 if tag == "MonteCarloJoint" else 1
                estimates = [
                    McEstimate.from_successes(
                        int(np.sum(margins[:, col] >= thr)), spec.sim.realizations
                    )
                    for thr in thresholds
                ]
            for g, est in zip(spec.grid_db, estimates):
                rows.append(base_row(g, tag, est.estimate, est.stderr))
    return rows


def hearability_rows(
    scenario: Scenario,
    sim: SimConfig,
    l_values: tuple[int, ...],
    tag: str,
    workers: int = 1,
) -> list[Row]:
    """P(Upsilon >= L) rows with L as the varying column."""
    bg_db = 10.0 * math.log10(scenario.bg_ratio)
    estimates = hearability_curve(scenario, sim, np.asarray(l_values), workers)
    return [
        Row(
            bg_db, int(l), scenario.p, scenario.q, scenario.alpha, scenario.K,
            scenario.lam, tag, est.estimate, est.stderr,
        )
        for l, est in zip(l_values, estimates)
    ]


def e911_rows(cfg: E911Config, seed: int, workers: int = 1) -> list[Row]:
    """Compliance table flattened into the standard schema.

    The minimum hearability occupies the L column; percentiles are in
    meters, the no-fix rate and pass flag in [0, 1].
    """
    scen = default_scenario(cfg)
    bg_db = 10.0 * math.log10(cfg.pre_sinr_threshold)
    rows = []
    for entry in fcc_compliance(cfg, scen, seed, workers):
        for tag, value in (
            ("E911_P67_M", entry.p67_m),
            ("E911_P90_M", entry.p90_m),
            ("E911_NoFixRate", entry.no_fix_rate),
            ("E911_Pass", 1.0 if entry.passes else 0.0),
        ):
            rows.append(
                Row(
                    bg_db, entry.min_hearability, 1.0, 1.0, cfg.alpha, 1,
                    scen.lam, tag, value,
                )
            )
    return rows


def procgain_rows(
    target_pl: float, l_values: tuple[int, ...], alphas: tuple[float, ...]
) -> list[Row]:
    """Minimum processing gain (dB over beta) rows; L or alpha varies."""
    rows = []
    for alpha in alphas:
        for l in l_values:
            ratio = min_processing_gain(target_pl, l, alpha, 1.0)
            rows.append(
                Row(
                    0.0, int(l), 1.0, 1.0, alpha, 1, math.nan,
                    "ProcGainBound", 10.0 * math.log10(ratio),
                )
            )
    return rows


def _format(value: float) -> str:
    if value != value:  # NaN marks a non-applicable column
        return "nan"
    return f"{value:.9g}"


def write_csv(rows: list[Row], out: Path, timestamp: bool) -> None:
    """Write sorted rows under the fixed header, atomically enough."""
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    if timestamp:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines.append(f"# generated {stamp}")
    lines.append(",".join(CSV_COLUMNS))
    for row in sorted(rows, key=Row.sort_key):
        if row.comment:
            lines.append(f"# {row.comment}")
        stderr = "" if row.stderr is None else _format(row.stderr)
        lines.append(
            ",".join(
                (
                    _format(row.bg_db),
                    str(row.L),
                    _format(row.p),
                    _format(row.q),
                    _format(row.alpha),
                    str(row.K),
                    _format(row.lam),
                    row.method,
                    _format(row.value),
                    stderr,
                )
            )
        )
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
    count = int(round((stop - start) / step)) + 1
    return tuple(round(start + i * step, 9) for i in range(count))


_DENSITY = hex_grid_density(500.0)  # nominal density for sweep figures


def _fig2(seed: int, realizations: int | None, workers: int) -> tuple[list[Row], str]:
    cfg = E911Config(trials=realizations or 4000)
    return e911_rows(cfg, seed, workers), "L"


def _fig3(seed: int, realizations: int | None, workers: int) -> tuple[list[Row], str]:
    scen = Scenario(lam=_DENSITY, alpha=4.0, p=1.0, q=1.0, beta=1.0, gamma=1.0, L=4)
    sim = SimConfig(realizations=realizations or 20000, seed=seed)
    spec = SweepSpec(
        scen, _grid(-20.0, 0.0, 0.5),
        ("UpperBound", "NearFieldAlpha4", "SingleIntegralAlpha4", "MonteCarloJoint"),
        sim, workers,
    )
    return run_sweep(spec), "beta_over_gamma_db"


def _fig4(seed: int, realizations: int | None, workers: int) -> tuple[list[Row], str]:
    rows: list[Row] = []
    sim = SimConfig(realizations=realizations or 20000, seed=seed)
    for alpha in (3.0, 3.5, 4.0, 4.5):
        scen = Scenario(
            lam=_DENSITY, alpha=alpha, p=2.0 / 3.0, q=1.0, beta=1.0, gamma=1.0, L=4
        )
        spec = SweepSpec(
            scen, _grid(-20.0, 0.0, 1.0),
            ("DoubleIntegral", "SingleIntegralGeneral", "MonteCarloJoint"),
            sim, workers,
        )
        rows.extend(run_sweep(spec))
    return rows, "beta_over_gamma_db"


def _fig5(seed: int, realizations: int | None, workers: int) -> tuple[list[Row], str]:
    return procgain_rows(0.8, (2, 3, 4, 5, 6, 7), (4.0,)), "L"


def _fig6(seed: int, realizations: int | None, workers: int) -> tuple[list[Row], str]:
    alphas = tuple(round(2.5 + 0.25 * i, 9) for i in range(15))
    return procgain_rows(0.8, (4,), alphas), "alpha"


def _fig7(seed: int, realizations: int | None, workers: int) -> tuple[list[Row], str]:
    rows: list[Row] = []
    sim = SimConfig(realizations=realizations or 20000, seed=seed)
    for p in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0):
        scen = Scenario(
            lam=_DENSITY, alpha=4.0, p=p, q=1.0, beta=1.0, gamma=1.0, L=4
        )
        spec = SweepSpec(
            scen, _grid(-20.0, 0.0, 0.5),
            ("SingleIntegralAlpha4", "MonteCarloJoint"), sim, workers,
        )
        rows.extend(run_sweep(spec))
    return rows, "beta_over_gamma_db"


def _fig8(seed: int, realizations: int | None, workers: int) -> tuple[list[Row], str]:
    rows: list[Row] = []
    sim = SimConfig(realizations=realizations or 20000, seed=seed)
    for l in (2, 4, 6, 8):
        scen = Scenario(
            lam=_DENSITY, alpha=4.0, p=0.5, q=0.75, beta=1.0, gamma=1.0, L=l
        )
        spec = SweepSpec(
            scen, _grid(-20.0, 0.0, 0.5),
            ("SingleIntegralAlpha4", "MonteCarloJoint"), sim, workers,
        )
        rows.extend(run_sweep(spec))
    return rows, "beta_over_gamma_db"


def _fig9(seed: int, realizations: int | None, workers: int) -> tuple[list[Row], str]:
    rows: list[Row] = []
    sim = SimConfig(realizations=realizations or 10000, seed=seed)
    for k in (1, 3, 6):
        scen = Scenario(
            lam=_DENSITY, alpha=4.0, p=1.0, q=1.0, beta=1.0, gamma=1.0, L=4, K=k
        )
        spec = SweepSpec(
            scen, _grid(-20.0, 0.0, 1.0),
            ("ReuseRecursion", "MonteCarloReuse"), sim, workers,
        )
        rows.extend(run_sweep(spec))
    return rows, "beta_over_gamma_db"


def _hex_vs_ppp(
    seed: int, realizations: int | None, workers: int,
    sigmas: tuple[float, ...], K: int,
) -> list[Row]:
    bg = 10.0 ** (-1.0)  # -10 dB detection threshold
    l_values = tuple(range(1, 17))
    n = realizations or 10000
    scen = Scenario(
        lam=_DENSITY, alpha=4.0, p=1.0, q=1.0, beta=bg, gamma=1.0, L=1, K=K
    )
    rows = hearability_rows(
        scen, SimConfig(realizations=n, seed=seed), l_values, "MonteCarloPPP", workers
    )
    for sigma in sigmas:
        sim = SimConfig(
            realizations=n, seed=seed, deployment=Deployment.HEX,
            shadow=ShadowingSpec(sigma, enabled=True),
        )
        rows.extend(
            hearability_rows(
                scen, sim, l_values, f"MonteCarloHex_s{sigma:g}", workers
            )
        )
    return rows


def _fig10(seed: int, realizations: int | None, workers: int) -> tuple[list[Row], str]:
    return _hex_vs_ppp(seed, realizations, workers, (4.0, 8.0, 12.0), 1), "L"


def _fig11(seed: int, realizations: int | None, workers: int) -> tuple[list[Row], str]:
    return _hex_vs_ppp(seed, realizations, workers, (8.0,), 6), "L"


_FIGURES = {
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
}


def run_figure(
    name: str,
    seed: int = 0,
    realizations: int | None = None,
    workers: int = 1,
    out: Path | None = None,
    timestamp: bool = True,
) -> Path:
    """Build a canned figure dataset; returns the CSV path."""
    if name not in _FIGURES:
        raise ValueError(
            f"unknown figure {name!r}; valid: {', '.join(sorted(_FIGURES))}"
        )
    rows, x_col = _FIGURES[name](seed, realizations, workers)
    csv_path = Path(out) if out is not None else Path(f"{name}.csv")
    write_csv(rows, csv_path, timestamp)
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
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


class _Settings:
    """Merged view of config file and flags with typo checking."""

    def __init__(self, cfg: dict[str, str], allowed: set[str], source: str):
        unknown = set(cfg) - allowed
        if unknown:
            raise SystemExit(
                f"error: unknown config key(s) in {source}: "
                f"{', '.join(sorted(unknown))}; allowed: {', '.join(sorted(allowed))}"
            )
        self.cfg = cfg

    def get(self, key: str, flag_value, default, convert):
        if flag_value is not None:
            return flag_value
        if key in self.cfg:
            return convert(self.cfg[key])
        return default


def _resolve_seed(args, cfg: dict[str, str]) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in cfg:
        return int(cfg["seed"])
    env = os.environ.get("HEARABILITY_SEED")
    if env is not None:
        return int(env)
    return 0


_COMMON_KEYS = {"seed", "out", "workers", "realizations"}
_SCENARIO_KEYS = {"l", "alpha", "p", "q", "k", "lam", "gamma_db"}
_GRID_KEYS = {"bg_start_db", "bg_stop_db", "bg_step_db"}


def _add_common(parser: argparse.ArgumentParser, realizations: bool = True) -> None:
    parser.add_argument("--config", type=Path, help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="master RNG seed")
    parser.add_argument("--out", type=Path, help="output CSV path")
    parser.add_argument(
        "--no-timestamp", action="store_true",
        help="omit the generation-time comment for byte-identical re-runs",
    )
    parser.add_argument("--workers", type=int, default=1, help="process count")
    if realizations:
        parser.add_argument("--realizations", type=int, help="Monte Carlo sample size")


def _add_scenario(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--l", type=int, default=None, help="required BS count L")
    parser.add_argument("--alpha", type=float, default=None, help="path loss exponent")
    parser.add_argument("--p", type=float, default=None, help="participant activity")
    parser.add_argument("--q", type=float, default=None, help="background activity")
    parser.add_argument("--k", type=int, default=None, help="frequency reuse factor")
    parser.add_argument("--lam", type=float, default=None, help="BS density")
    parser.add_argument(
        "--gamma-db", type=float, default=None, help="processing gain in dB"
    )
    parser.add_argument("--bg-start-db", type=float, default=None)
    parser.add_argument("--bg-stop-db", type=float, default=None)
    parser.add_argument("--bg-step-db", type=float, default=None)


def _scenario_from(settings: _Settings, args) -> tuple[Scenario, tuple[float, ...]]:
    l = settings.get("l", args.l, 4, int)
    alpha = settings.get("alpha", args.alpha, 4.0, float)
    p = settings.get("p", args.p, 1.0, float)
    q = settings.get("q", args.q, 1.0, float)
    k = settings.get("k", args.k, 1, int)
    lam = settings.get("lam", args.lam, _DENSITY, float)
    gamma_db = settings.get("gamma_db", args.gamma_db, 0.0, float)
    gamma = 10.0 ** (gamma_db / 10.0)
    start = settings.get("bg_start_db", args.bg_start_db, -20.0, float)
    stop = settings.get("bg_stop_db", args.bg_stop_db, 0.0, float)
    step = settings.get("bg_step_db", args.bg_step_db, 1.0, float)
    if step <= 0 or stop < start:
        raise SystemExit("error: need bg_step_db > 0 and bg_stop_db >= bg_start_db")
    scen = Scenario(lam=lam, alpha=alpha, p=p, q=q, beta=gamma, gamma=gamma, L=l, K=k)
    return scen, _grid(start, stop, step)


def _parse_methods(text: str, allowed: set[str]) -> tuple[str, ...]:
    tags = tuple(t.strip() for t in text.split(",") if t.strip())
    for tag in tags:
        if tag not in allowed:
            raise SystemExit(
                f"error: unknown method {tag!r}; valid: {', '.join(sorted(allowed))}"
            )
    if not tags:
        raise SystemExit("error: empty methods list")
    return tags


def _cmd_sweep(args, default_methods: str, default_out: str) -> int:
    cfg = read_config(args.config) if args.config else {}
    allowed = _COMMON_KEYS | _SCENARIO_KEYS | _GRID_KEYS | {
        "methods", "expected_bs", "truth_mode", "base_method",
    }
    settings = _Settings(cfg, allowed, str(args.config))
    scen, grid = _scenario_from(settings, args)
    seed = _resolve_seed(args, cfg)
    workers = settings.get("workers", args.workers if args.workers != 1 else None, 1, int)
    realizations = settings.get("realizations", args.realizations, 10000, int)
    expected = settings.get("expected_bs", args.expected_bs, 1000, int)
    methods = _parse_methods(
        settings.get("methods", args.methods, default_methods, str),
        _ANALYTIC_TAGS | _MC_TAGS | {"ReuseRecursion"},
    )
    base = Method(settings.get("base_method", args.base_method,
                               Method.SINGLE_INTEGRAL_ALPHA4.value, str))
    sim = SimConfig(realizations=realizations, seed=seed, expected_bs=expected)
    spec = SweepSpec(scen, grid, methods, sim, workers, base)
    out = settings.get("out", args.out, Path(default_out), Path)
    write_csv(run_sweep(spec), out, not args.no_timestamp)
    print(f"wrote {out}")
    return 0


def _cmd_reuse(args) -> int:
    cfg = read_config(args.config) if args.config else {}
    allowed = _COMMON_KEYS | _SCENARIO_KEYS | _GRID_KEYS | {
        "k_list", "base_method", "mc", "expected_bs",
    }
    settings = _Settings(cfg, allowed, str(args.config))
    scen, grid = _scenario_from(settings, args)
    seed = _resolve_seed(args, cfg)
    workers = settings.get("workers", args.workers if args.workers != 1 else None, 1, int)
    realizations = settings.get("realizations", args.realizations, 10000, int)
    k_list = settings.get(
        "k_list", args.k_list, "1,3,6",
        lambda s: s,
    )
    ks = tuple(int(t) for t in str(k_list).split(",") if t.strip())
    base = Method(settings.get("base_method", args.base_method,
                               Method.SINGLE_INTEGRAL_ALPHA4.value, str))
    with_mc = args.mc or settings.get("mc", None, "0", str) == "1"
    rows: list[Row] = []
    for k in ks:
        scen_k = scen.replace(K=k)
        methods = ("ReuseRecursion", "MonteCarloReuse") if with_mc else ("ReuseRecursion",)
        sim = SimConfig(realizations=realizations, seed=seed)
        rows.extend(run_sweep(SweepSpec(scen_k, grid, methods, sim, workers, base)))
    out = settings.get("out", args.out, Path("reuse.csv"), Path)
    write_csv(rows, out, not args.no_timestamp)
    print(f"wrote {out}")
    return 0


def _cmd_hexgrid(args) -> int:
    cfg = read_config(args.config) if args.config else {}
    allowed = _COMMON_KEYS | {
        "alpha", "p", "q", "k", "isd", "sigma_db", "bg_db", "l_max", "expected_bs",
    }
    settings = _Settings(cfg, allowed, str(args.config))
    seed = _resolve_seed(args, cfg)
    workers = settings.get("workers", args.workers if args.workers != 1 else None, 1, int)
    realizations = settings.get("realizations", args.realizations, 10000, int)
    alpha = settings.get("alpha", args.alpha, 4.0, float)
    p = settings.get("p", args.p, 1.0, float)
    q = settings.get("q", args.q, 1.0, float)
    k = settings.get("k", args.k, 1, int)
    isd = settings.get("isd", args.isd, 500.0, float)
    sigma = settings.get("sigma_db", args.sigma_db, 8.0, float)
    bg_db = settings.get("bg_db", args.bg_db, -10.0, float)
    l_max = settings.get("l_max", args.l_max, 16, int)
    expected = settings.get("expected_bs", args.expected_bs, 1000, int)
    bg = 10.0 ** (bg_db / 10.0)
    scen = Scenario(
        lam=hex_grid_density(isd), alpha=alpha, p=p, q=q, beta=bg, gamma=1.0,
        L=1, K=k,
    )
    l_values = tuple(range(1, l_max + 1))
    rows = hearability_rows(
        scen,
        SimConfig(realizations=realizations, seed=seed, expected_bs=expected),
        l_values, "MonteCarloPPP", workers,
    )
    sim_hex = SimConfig(
        realizations=realizations, seed=seed, expected_bs=expected,
        deployment=Deployment.HEX, hex_isd=isd,
        shadow=ShadowingSpec(sigma, enabled=sigma > 0.0),
    )
    rows.extend(
        hearability_rows(scen, sim_hex, l_values, f"MonteCarloHex_s{sigma:g}", workers)
    )
    out = settings.get("out", args.out, Path("hexgrid.csv"), Path)
    write_csv(rows, out, not args.no_timestamp)
    print(f"wrote {out}")
    return 0


def _cmd_e911(args) -> int:
    cfg = read_config(args.config) if args.config else {}
    allowed = _COMMON_KEYS | {
        "trials", "gain_db", "bandwidth", "clock_std", "nlos_mean",
        "pre_sinr_db", "alpha", "sigma_db", "isd", "grid", "max_bs",
    }
    settings = _Settings(cfg, allowed, str(args.config))
    seed = _resolve_seed(args, cfg)
    workers = settings.get("workers", args.workers if args.workers != 1 else None, 1, int)
    trials = settings.get("trials", args.trials, 4000, int)
    gain_db = settings.get("gain_db", args.gain_db, 8.0, float)
    pre_db = settings.get("pre_sinr_db", args.pre_sinr_db, -13.0, float)
    grid_text = settings.get("grid", args.grid, "4,5,6,7,8", str)
    grid = tuple(int(t) for t in grid_text.split(",") if t.strip())
    econfig = E911Config(
        trials=trials,
        processing_gain_db=gain_db,
        pre_sinr_threshold=10.0 ** (pre_db / 10.0),
        min_hearability_grid=grid,
        alpha=settings.get("alpha", args.alpha, 3.76, float),
        shadow_sigma_db=settings.get("sigma_db", args.sigma_db, 8.0, float),
        hex_isd=settings.get("isd", args.isd, 500.0, float),
        bandwidth=settings.get("bandwidth", None, 1e7, float),
        clock_std=settings.get("clock_std", None, 1e-7, float),
        nlos_mean=settings.get("nlos_mean", None, 30.0, float),
        max_bs_per_fix=settings.get("max_bs", args.max_bs, None, int),
    )
    rows = e911_rows(econfig, seed, workers)
    out = settings.get("out", args.out, Path("e911.csv"), Path)
    write_csv(rows, out, not args.no_timestamp)
    print(f"wrote {out}")
    return 0


def _cmd_figure(args) -> int:
    cfg = read_config(args.config) if args.config else {}
    settings = _Settings(cfg, _COMMON_KEYS, str(args.config))
    seed = _resolve_seed(args, cfg)
    workers = settings.get("workers", args.workers if args.workers != 1 else None, 1, int)
    realizations = settings.get("realizations", args.realizations, None, int)
    out = settings.get("out", args.out, None, Path)
    path = run_figure(
        args.name, seed, realizations, workers, out, not args.no_timestamp
    )
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hearability",
        description="Base-station hearability probabilities and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, default_methods, default_out, helptext in (
        (
            "analytic",
            "UpperBound,PerfectCoord,SingleIntegralAlpha4,NearFieldAlpha4",
            "analytic.csv",
            "closed-form and integral P_L curves",
        ),
        (
            "simulate",
            "MonteCarloJoint",
            "simulate.csv",
            "Monte Carlo P_L curves",
        ),
    ):
        cmd = sub.add_parser(name, help=helptext)
        _add_common(cmd)
        _add_scenario(cmd)
        cmd.add_argument("--methods", type=str, default=None)
        cmd.add_argument("--expected-bs", type=int, default=None)
        cmd.add_argument("--base-method", type=str, default=None)
        cmd.set_defaults(
            func=lambda a, m=default_methods, o=default_out: _cmd_sweep(a, m, o)
        )

    reuse_cmd = sub.add_parser("reuse", help="P_L under frequency reuse")
    _add_common(reuse_cmd)
    _add_scenario(reuse_cmd)
    reuse_cmd.add_argument("--k-list", type=str, default=None)
    reuse_cmd.add_argument("--base-method", type=str, default=None)
    reuse_cmd.add_argument("--mc", action="store_true", help="add Monte Carlo rows")
    reuse_cmd.set_defaults(func=_cmd_reuse)

    hex_cmd = sub.add_parser("hexgrid", help="hex-grid vs Poisson hearability")
    _add_common(hex_cmd)
    hex_cmd.add_argument("--alpha", type=float, default=None)
    hex_cmd.add_argument("--p", type=float, default=None)
    hex_cmd.add_argument("--q", type=float, default=None)
    hex_cmd.add_argument("--k", type=int, default=None)
    hex_cmd.add_argument("--isd", type=float, default=None)
    hex_cmd.add_argument("--sigma-db", type=float, default=None)
    hex_cmd.add_argument("--bg-db", type=float, default=None)
    hex_cmd.add_argument("--l-max", type=int, default=None)
    hex_cmd.add_argument("--expected-bs", type=int, default=None)
    hex_cmd.set_defaults(func=_cmd_hexgrid)

    e911_cmd = sub.add_parser("e911", help="FCC E911 compliance table")
    _add_common(e911_cmd, realizations=False)
    e911_cmd.add_argument("--trials", type=int, default=None)
    e911_cmd.add_argument("--gain-db", type=float, default=None)
    e911_cmd.add_argument("--pre-sinr-db", type=float, default=None)
    e911_cmd.add_argument("--alpha", type=float, default=None)
    e911_cmd.add_argument("--sigma-db", type=float, default=None)
    e911_cmd.add_argument("--isd", type=float, default=None)
    e911_cmd.add_argument("--grid", type=str, default=None)
    e911_cmd.add_argument("--max-bs", type=int, default=None)
    e911_cmd.set_defaults(func=_cmd_e911)

    fig_cmd = sub.add_parser("figure", help="canned figure datasets")
    fig_cmd.add_argument("name", choices=sorted(_FIGURES))
    _add_common(fig_cmd)
    fig_cmd.set_defaults(func=_cmd_figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
