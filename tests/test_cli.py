"""Unit tests for the command line interface and CSV artifacts."""

import argparse
import functools
import hashlib
import importlib.util
import inspect
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from quadrature_oracle import oracle_pl_alpha4, oracle_pl_double_integral

import hearability
import hearability.cli as cli
from hearability.cli import (
    CSV_COLUMNS,
    Row,
    _COMMANDS,
    _COMMON,
    _grid,
    _lookup,
    _resolve,
    build_parser,
    e911_rows,
    hex_vs_ppp_rows,
    main,
    procgain_rows,
    read_config,
    run_figure,
    run_sweeps,
    write_csv,
)
from hearability import reuse
from hearability.analytic import Method, evaluate_grid
from hearability.model import Scenario
from hearability.numerics import Estimate, NonConvergenceError, QuadratureSpec
from hearability.reuse import _failure_by_convolution
from hearability.simulate import SimConfig

HEADER = ",".join(CSV_COLUMNS)

_SWEEP_KEYS = {
    "seed": "11", "workers": "1", "realizations": "300", "expected_bs": "100",
    "alpha": "4", "p": "1", "q": "1", "k": "2", "l": "3", "lam": "2",
    "bg_start_db": "-16", "bg_stop_db": "-15", "bg_step_db": "1",
    "base_method": "UpperBound",
}

# Every parameter of each subcommand except ``out``, mostly off its
# default, with the positional arguments that precede them.  At k = 2 a
# sweep takes only the tags that read K.
EVERY_KEY = {
    "analytic": ([], {**_SWEEP_KEYS, "methods": "ReuseRecursion"}),
    "simulate": ([], {**_SWEEP_KEYS, "methods": "MonteCarloReuse,ReuseRecursion"}),
    "reuse": ([], {
        **{k: v for k, v in _SWEEP_KEYS.items() if k != "k"},
        "k_list": "1,2", "mc": "1",
    }),
    "hexgrid": ([], {
        "seed": "2", "workers": "1", "realizations": "200", "expected_bs": "100",
        "alpha": "3.5", "p": "0.5", "q": "0.75", "k": "2", "isd": "400",
        "sigma_db": "4", "bg_db": "-8", "l_max": "3",
    }),
    "e911": ([], {
        "seed": "1", "workers": "1", "trials": "200", "gain_db": "6",
        "pre_sinr_db": "-12", "alpha": "3.5", "sigma_db": "6", "isd": "400",
        "grid": "4,5", "max_bs": "6", "bandwidth": "2e7", "clock_std": "5e-8",
        "nlos_mean": "20",
    }),
    "figure": (["fig2"], {"seed": "3", "workers": "1", "realizations": "200"}),
}


def flag(key):
    return "--" + key.replace("_", "-")


def use_quadrature(monkeypatch, quad: QuadratureSpec) -> None:
    """Run the sweep's analytic and per-band reuse grids under ``quad``."""
    grid = functools.partial(evaluate_grid, quad=quad)
    monkeypatch.setattr(cli, "evaluate_grid", grid)
    monkeypatch.setattr(reuse, "evaluate_grid", grid)


def lines_of(path):
    return path.read_text().splitlines()


def data_lines(path):
    return [l for l in lines_of(path) if not l.startswith("#")]


def checkout_console_script():
    """Command and environment that run ``[project.scripts] hearability``
    from this checkout the way pip's generated script runs it.

    The spec is read from the ``pyproject.toml`` next to ``tests/``; the
    parent directory of the imported ``hearability`` package is put first
    on ``PYTHONPATH`` so the fresh interpreter imports the same code.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["hearability"]
    module, _, attr = spec.partition(":")
    code = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    package_root = str(Path(hearability.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return [sys.executable, "-c", code], env


class TestReadConfig:
    def test_parses_flat_pairs(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# a comment\n"
            "seed = 7\n"
            "alpha=3.5   # trailing note\n"
            "\n"
            "methods = UpperBound,MonteCarloJoint\n"
        )
        parsed = read_config(cfg)
        assert parsed == {
            "seed": "7",
            "alpha": "3.5",
            "methods": "UpperBound,MonteCarloJoint",
        }

    def test_rejects_bare_token(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\nbogus line\n")
        with pytest.raises(ValueError, match="run.cfg:2"):
            read_config(cfg)

    def test_unknown_key_aborts_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seeed = 7\n")
        with pytest.raises(SystemExit, match="seeed"):
            main(
                ["analytic", "--config", str(cfg), "--out",
                 str(tmp_path / "x.csv")]
            )


class TestSeedResolution:
    def _args(self, seed=None):
        return argparse.Namespace(seed=seed)

    def test_flag_beats_all(self, monkeypatch):
        monkeypatch.setenv("HEARABILITY_SEED", "5")
        assert _lookup("seed", _COMMON["seed"], self._args(seed=9), {"seed": "3"}) == 9

    def test_config_beats_environment(self, monkeypatch):
        monkeypatch.setenv("HEARABILITY_SEED", "5")
        assert _lookup("seed", _COMMON["seed"], self._args(), {"seed": "3"}) == 3

    def test_environment_beats_default(self, monkeypatch):
        monkeypatch.setenv("HEARABILITY_SEED", "5")
        assert _lookup("seed", _COMMON["seed"], self._args(), {}) == 5

    def test_default_zero(self, monkeypatch):
        monkeypatch.delenv("HEARABILITY_SEED", raising=False)
        assert _lookup("seed", _COMMON["seed"], self._args(), {}) == 0

    def test_environment_drives_cli(self, tmp_path, monkeypatch):
        args = [
            "simulate", "--realizations", "300", "--expected-bs", "100",
            "--bg-start-db", "-16", "--bg-stop-db", "-15", "--bg-step-db", "1",
            "--no-timestamp",
        ]
        monkeypatch.setenv("HEARABILITY_SEED", "123")
        a = tmp_path / "env.csv"
        assert main(args + ["--out", str(a)]) == 0
        monkeypatch.delenv("HEARABILITY_SEED")
        b = tmp_path / "flag.csv"
        assert main(args + ["--seed", "123", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCsvContract:
    def test_header_and_sorting(self, tmp_path):
        rows = [
            Row(-10.0, 4, 1.0, 1.0, 4.0, 1, 1.0, "UpperBound", Estimate(0.5)),
            Row(-12.0, 4, 1.0, 1.0, 4.0, 1, 1.0, "UpperBound", Estimate(0.4)),
            Row(-12.0, 4, 1.0, 1.0, 4.0, 1, 1.0, "MonteCarloJoint", Estimate(0.39, 0.01)),
        ]
        out = tmp_path / "t.csv"
        write_csv(rows, out, timestamp=False)
        content = lines_of(out)
        assert content[0] == HEADER
        # Method groups stay together, then ascending threshold.
        assert content[1].startswith("-12,4,") and "MonteCarloJoint" in content[1]
        assert content[2].startswith("-12,") and "UpperBound" in content[2]
        assert content[3].startswith("-10,") and "UpperBound" in content[3]
        assert content[1].endswith(",0.39,0.01")
        assert content[2].endswith(",0.4,")  # empty stderr for analytic rows

    def test_timestamp_toggle(self, tmp_path):
        rows = [Row(-10.0, 4, 1.0, 1.0, 4.0, 1, 1.0, "UpperBound", Estimate(0.5))]
        stamped = tmp_path / "a.csv"
        write_csv(rows, stamped, timestamp=True)
        assert lines_of(stamped)[0].startswith("# generated ")
        assert lines_of(stamped)[1] == HEADER
        bare = tmp_path / "b.csv"
        write_csv(rows, bare, timestamp=False)
        assert lines_of(bare)[0] == HEADER

    def test_nine_digit_float_format(self, tmp_path):
        rows = [
            Row(-10.0, 4, 1.0 / 3.0, 1.0, 4.0, 1, 1.0, "UpperBound",
                Estimate(0.123456789123456789))
        ]
        out = tmp_path / "t.csv"
        write_csv(rows, out, timestamp=False)
        line = lines_of(out)[1]
        assert "0.333333333" in line and "0.123456789" in line

    @pytest.mark.parametrize("value", [
        math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
        2.2250738585072014e-308 / 3.0, 1e300, 123456789.5, 1.0 / 3.0,
    ])
    def test_row_format_matches_per_field_join(self, tmp_path, value):
        # One format string per row writes the bytes of a join over
        # f"{v:.9g}" per float field (with NaN spelled "nan").
        def field(v):
            return "nan" if v != v else f"{v:.9g}"

        rows = [
            Row(value, 4, value, value, value, 3, value, "UpperBound", Estimate(value, value)),
            Row(value, 7, 0.5, value, 4.0, 1, value, "DoubleIntegral", Estimate(value)),
        ]
        out = tmp_path / "t.csv"
        write_csv(rows, out, timestamp=False)
        expected = [
            ",".join((
                field(r.bg_db), str(r.L), field(r.p), field(r.q), field(r.alpha),
                str(r.K), field(r.lam), r.method, field(r.est.value),
                "" if r.est.stderr is None else field(r.est.stderr),
            ))
            for r in sorted(rows, key=Row.sort_key)
        ]
        assert lines_of(out)[1:] == expected

    def test_nan_columns_render_as_nan(self, tmp_path):
        out = tmp_path / "t.csv"
        write_csv(procgain_rows(0.8, (2,), (4.0,)), out, timestamp=False)
        fields = lines_of(out)[1].split(",")
        assert fields[CSV_COLUMNS.index("lambda")] == "nan"
        assert fields[CSV_COLUMNS.index("method")] == "ProcGainBound"

    def test_nonconvergence_rows_carry_comment(self, tmp_path, monkeypatch):
        scen = Scenario(
            lam=1.0, alpha=3.5, p=2.0 / 3.0, q=1.0, beta=1.0, gamma=1.0, L=4
        )
        # One halving per panel leaves the error estimate near 4e-10, six
        # orders above the 1e-15 relative target, so this cannot converge
        # whatever the last bits of the arithmetic.
        use_quadrature(
            monkeypatch, QuadratureSpec(rel_tol=1e-15, abs_tol=1e-18, max_depth=1)
        )
        rows = run_sweeps(
            [scen], (-10.0,), ("DoubleIntegral",), SimConfig(realizations=100, seed=0)
        )
        assert rows[0].est.comment and "nonconvergence" in rows[0].est.comment
        assert 0.0 <= rows[0].est.value <= 1.0  # best estimate still reported
        out = tmp_path / "t.csv"
        write_csv(rows, out, timestamp=False)
        content = lines_of(out)
        assert any(l.startswith("# nonconvergence") for l in content)
        # The whole file, comment row included, as recorded.
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "c25acdc9640dacc83b549212750d48424dd8dd645060d3c3f0ea003b47f6dfd6"
        )

    def test_reuse_nonconvergence_is_flagged_not_raised(self, tmp_path, monkeypatch):
        scen = Scenario(
            lam=1.0, alpha=3.5, p=1.0, q=1.0, beta=1.0, gamma=1.0, L=4, K=3
        )
        # As above: one halving leaves the per-band error estimate orders
        # of magnitude above the 1e-15 relative target.
        use_quadrature(
            monkeypatch, QuadratureSpec(rel_tol=1e-15, abs_tol=1e-18, max_depth=1)
        )
        rows = run_sweeps(
            [scen], (-10.0, -9.0), ("ReuseRecursion",),
            SimConfig(realizations=100, seed=0), base_method=Method.DOUBLE_INTEGRAL,
        )
        assert len(rows) == 2
        for row in rows:
            assert row.est.comment.startswith("nonconvergence method=ReuseRecursion")
            assert np.isnan(row.est.value)  # no P_L estimate survives the failure
        out = tmp_path / "r.csv"
        write_csv(rows, out, timestamp=False)
        assert sum(l.startswith("# nonconvergence") for l in lines_of(out)) == 2
        # The whole file, NaN values and empty stderr included, as recorded.
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "4941570c9349d91033260fe94c9e528a73f6365a5e7faff4b7918a5d61e5cdac"
        )


ORACLES = {
    Method.DOUBLE_INTEGRAL: oracle_pl_double_integral,
    Method.SINGLE_INTEGRAL_ALPHA4: oracle_pl_alpha4,
}


def oracle_reuse(scen: Scenario, base_method: Method, quad: QuadratureSpec) -> float:
    """Reuse P_L from scalar-oracle per-band levels."""
    oracle = ORACLES[base_method]
    band = scen.replace(K=1, lam=scen.lam / scen.K)
    levels = [1.0]
    levels += [oracle(band.replace(L=n), quad) for n in range(1, scen.L + 1)]
    e = np.maximum(np.diff(-np.asarray(levels))[: scen.L], 0.0)
    return min(1.0, max(0.0, 1.0 - _failure_by_convolution(e, scen.K, scen.L)))


def per_point_rows(
    scen: Scenario, grid_db, methods, quad: QuadratureSpec
) -> list[Row]:
    """The sweep evaluated one point at a time by the scalar oracles."""
    rows = []
    for tag in methods:
        for g in grid_db:
            point = scen.replace(beta=scen.gamma * 10.0 ** (g / 10.0))
            comment = None
            try:
                if tag == "ReuseRecursion":
                    value = oracle_reuse(point, Method.SINGLE_INTEGRAL_ALPHA4, quad)
                else:
                    value = ORACLES[Method(tag)](point, quad)
            except NonConvergenceError as err:
                value = math.nan if tag == "ReuseRecursion" else err.best_estimate
                comment = (
                    f"nonconvergence method={tag} bg_db={g:.9g} "
                    f"residual={err.error_estimate:.3e}"
                )
            rows.append(Row(
                g, scen.L, scen.p, scen.q, scen.alpha, scen.K, scen.lam,
                tag, Estimate(value, comment=comment),
            ))
    return rows


class TestGridSweep:
    @pytest.mark.parametrize(
        "scen,methods",
        [
            (Scenario(lam=2.0, alpha=3.5, p=2.0 / 3.0, q=1.0, beta=1.0, gamma=1.0, L=6),
             ("DoubleIntegral",)),
            (Scenario(lam=2.0, alpha=4.0, p=2.0 / 3.0, q=1.0, beta=1.0, gamma=1.0, L=6),
             ("SingleIntegralAlpha4",)),
            (Scenario(lam=2.0, alpha=4.0, p=1.0, q=1.0, beta=1.0, gamma=1.0, L=6, K=3),
             ("ReuseRecursion",)),
        ],
    )
    def test_depth_one_sweep_matches_per_point_bytes(
        self, tmp_path, monkeypatch, scen, methods
    ):
        # One halving per panel: some grid points fail, the rest converge.
        quad, grid_db = QuadratureSpec(max_depth=1), _grid(-20.0, 0.0, 1.0)
        use_quadrature(monkeypatch, quad)
        rows = run_sweeps([scen], grid_db, methods, SimConfig(realizations=100, seed=0))
        flagged = [r for r in rows if r.est.comment]
        assert 0 < len(flagged) < len(rows)
        write_csv(rows, tmp_path / "grid.csv", timestamp=False)
        points = per_point_rows(scen, grid_db, methods, quad)
        write_csv(points, tmp_path / "points.csv", timestamp=False)
        got = (tmp_path / "grid.csv").read_bytes()
        assert got == (tmp_path / "points.csv").read_bytes()
        assert got.count(b"\n# nonconvergence") == len(flagged)


def _family(monkeypatch, run) -> tuple[list[Scenario], dict]:
    """The scenarios and the shared controls ``run()`` hands to ``run_sweeps``."""
    calls = []
    signature = inspect.signature(run_sweeps)

    def capture(*args, **kwargs):
        calls.append(dict(signature.bind(*args, **kwargs).arguments))
        return []

    with monkeypatch.context() as patch:
        patch.setattr(cli, "run_sweeps", capture)
        run()
    [controls] = calls
    return list(controls.pop("scenarios")), controls


def _figure_family(monkeypatch, name: str, realizations: int):
    """The family a figure recipe hands to ``run_sweeps``."""
    _, _, rows = cli._FIGURES[name]
    return _family(monkeypatch, lambda: rows(3, realizations, 1))


def _reuse_family(monkeypatch, tmp_path, *flags: str):
    """The family ``hearability reuse`` hands to ``run_sweeps``."""
    return _family(monkeypatch, lambda: main(
        ["reuse", *flags, "--out", str(tmp_path / "x.csv"), "--no-timestamp"]
    ))


class TestRunSweeps:
    @pytest.mark.parametrize("name", ["fig8", "fig9"])
    def test_family_rows_match_one_sweep_per_spec(self, monkeypatch, name):
        scenarios, controls = _figure_family(monkeypatch, name, 40)
        assert len(scenarios) > 1
        alone = [row for s in scenarios for row in run_sweeps([s], **controls)]
        assert run_sweeps(scenarios, **controls) == alone

    @pytest.mark.parametrize(
        "flags",
        [
            ["--k-list", "1,3,6"],
            ["--k-list", "6,1,3", "--l", "6", "--alpha", "3",
             "--base-method", "DoubleIntegral"],
            ["--k-list", "1,3,6", "--mc", "--realizations", "40"],
        ],
        ids=["recursion", "double-integral", "with-mc"],
    )
    def test_reuse_rows_match_one_sweep_per_spec(self, monkeypatch, tmp_path, flags):
        scenarios, controls = _reuse_family(monkeypatch, tmp_path, *flags)
        assert sorted(s.K for s in scenarios) == [1, 3, 6]
        base = "DoubleIntegral" if "DoubleIntegral" in flags else "SingleIntegralAlpha4"
        assert controls["base_method"] == Method(base)
        alone = [row for s in scenarios for row in run_sweeps([s], **controls)]
        assert run_sweeps(scenarios, **controls) == alone

    @pytest.mark.parametrize(
        "argv,scenarios,reuse_levels",
        [
            (["analytic"], 1, 0),
            (["analytic", "--methods", "ReuseRecursion,UpperBound,DoubleIntegral"], 1, 4),
            (["reuse", "--k-list", "1,3,6", "--mc", "--realizations", "40"], 3, 4),
        ],
        ids=["analytic", "analytic-reuse", "reuse-mc"],
    )
    def test_a_sweep_builds_no_scenario_per_grid_point(
        self, monkeypatch, tmp_path, argv, scenarios, reuse_levels
    ):
        # A 21-point sweep evaluates each tag over one level grid: only the
        # family and the reuse recursion's one band per level n are built.
        built = []
        check = Scenario.__post_init__
        monkeypatch.setattr(
            Scenario, "__post_init__", lambda self: built.append(self) or check(self)
        )
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out), "--no-timestamp"]) == 0
        assert len(data_lines(out)) > 21
        assert len(built) <= scenarios + reuse_levels

    def test_reuse_recursion_specs_share_one_table(self, monkeypatch):
        scenarios, controls = _figure_family(monkeypatch, "fig9", 40)
        controls["methods"] = ("ReuseRecursion",)
        for change in ({"L": 5}, {"alpha": 4.5, "p": 0.5, "q": 0.5}):
            other = scenarios[0].replace(**change)
            with pytest.raises(ValueError, match="share"):
                run_sweeps([*scenarios, other], **controls)

    def test_unknown_tag_is_rejected_for_any_family(self):
        sim = SimConfig(realizations=40, seed=0)
        for scenarios in ([], [Scenario(lam=2.0, alpha=4.0, p=1.0, q=1.0, beta=1.0, gamma=1.0, L=4)]):
            with pytest.raises(ValueError, match="^unknown method 'Bogus'; valid: "):
                run_sweeps(scenarios, (-10.0,), ("Bogus",), sim)

    @pytest.mark.parametrize(
        "tag", ["UpperBound", "DoubleIntegral", "MonteCarloJoint", "MonteCarloLastBs"]
    )
    def test_only_reuse_tags_take_k(self, tag):
        # The other tags model one band: at K = 3 they would write rows
        # labelled K=3 holding the K=1 values.
        scen = Scenario(lam=2.0, alpha=4.0, p=1.0, q=1.0, beta=1.0, gamma=1.0, L=4, K=3)
        sim = SimConfig(realizations=40, seed=0)
        with pytest.raises(ValueError, match=f"^{tag} models one band"):
            run_sweeps([scen], (-10.0,), ("ReuseRecursion", tag), sim)
        tags = ("ReuseRecursion", "MonteCarloReuse")
        rows = run_sweeps([scen], (-10.0,), tags, sim)
        assert [(row.method, row.K) for row in rows] == [(t, 3) for t in tags]
        one_band = run_sweeps([scen.replace(K=1)], (-10.0,), (tag,), sim)
        assert [row.method for row in one_band] == [tag]


class TestSubcommands:
    def test_analytic_sweep(self, tmp_path):
        out = tmp_path / "an.csv"
        rc = main(
            ["analytic", "--bg-start-db", "-16", "--bg-stop-db", "-14",
             "--bg-step-db", "1", "--out", str(out), "--no-timestamp"]
        )
        assert rc == 0
        content = data_lines(out)
        assert content[0] == HEADER
        # Four default methods over three grid points.
        assert len(content) == 1 + 4 * 3
        values = [float(l.split(",")[CSV_COLUMNS.index("value")]) for l in content[1:]]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_simulate_worker_invariance(self, tmp_path):
        base = [
            "simulate", "--seed", "3", "--realizations", "400",
            "--expected-bs", "100", "--bg-start-db", "-16",
            "--bg-stop-db", "-14", "--bg-step-db", "1", "--no-timestamp",
        ]
        a = tmp_path / "w1.csv"
        b = tmp_path / "w2.csv"
        assert main(base + ["--workers", "1", "--out", str(a)]) == 0
        assert main(base + ["--workers", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reuse_recursion_rows(self, tmp_path):
        out = tmp_path / "re.csv"
        rc = main(
            ["reuse", "--k-list", "1,3", "--bg-start-db", "-12",
             "--bg-stop-db", "-10", "--bg-step-db", "1",
             "--out", str(out), "--no-timestamp"]
        )
        assert rc == 0
        content = data_lines(out)
        assert len(content) == 1 + 2 * 3
        k_col = CSV_COLUMNS.index("K")
        assert {l.split(",")[k_col] for l in content[1:]} == {"1", "3"}

    def test_hexgrid_rows(self, tmp_path):
        out = tmp_path / "hex.csv"
        rc = main(
            ["hexgrid", "--realizations", "200", "--l-max", "4",
             "--expected-bs", "100", "--seed", "2",
             "--out", str(out), "--no-timestamp"]
        )
        assert rc == 0
        content = data_lines(out)
        # PPP plus one hex flavor, L = 1..4 each.
        assert len(content) == 1 + 2 * 4
        methods = {l.split(",")[CSV_COLUMNS.index("method")] for l in content[1:]}
        assert methods == {"MonteCarloPPP", "MonteCarloHex_s8"}

    def test_levels_above_the_cap_are_rejected(self):
        # Counts stop at the cap, so P(Upsilon >= cap + 1) would read 0.
        scen = Scenario(lam=1.0, alpha=4.0, p=1.0, q=1.0, beta=0.1, gamma=1.0, L=1)
        sim = SimConfig(realizations=16, seed=23, expected_bs=320)
        assert len(hex_vs_ppp_rows(scen, sim, 32, ())) == 32
        with pytest.raises(ValueError, match="l_max=33 exceeds UPSILON_CAP=32"):
            hex_vs_ppp_rows(scen, sim, 33, ())

    def test_hex_rows_of_every_sigma_come_from_one_family(self, monkeypatch):
        # One Poisson and one hex collection answer every sigma, with the
        # rows of one call per sigma.
        scen = Scenario(lam=1.0, alpha=4.0, p=0.5, q=0.75, beta=0.1, gamma=1.0, L=1)
        sim = SimConfig(realizations=2 * 16 + 5, seed=29, expected_bs=100)
        sigmas = (4.0, 8.0, 12.0)
        alone = [hex_vs_ppp_rows(scen, sim, 6, (sigma,)) for sigma in sigmas]
        calls = []
        collect = cli.collect_upsilon

        def counting(family, config, workers=1):
            calls.append(len(family))
            return collect(family, config, workers)

        monkeypatch.setattr(cli, "collect_upsilon", counting)
        rows = hex_vs_ppp_rows(scen, sim, 6, sigmas)
        assert calls == [1, 3]
        # Each single-sigma call returns 6 Poisson rows, then its 6 hex rows.
        assert rows == alone[0] + alone[1][6:] + alone[2][6:]
        tags = {r.method for r in rows}
        assert len({tuple(r.est.value for r in rows if r.method == t) for t in tags}) == 4

    def test_e911_rows(self, tmp_path):
        out = tmp_path / "e911.csv"
        rc = main(
            ["e911", "--trials", "200", "--grid", "4,5", "--seed", "1",
             "--out", str(out), "--no-timestamp"]
        )
        assert rc == 0
        content = data_lines(out)
        assert len(content) == 1 + 2 * 4
        methods = {l.split(",")[CSV_COLUMNS.index("method")] for l in content[1:]}
        assert methods == {"E911_P67_M", "E911_P90_M", "E911_NoFixRate", "E911_Pass"}
        l_col = CSV_COLUMNS.index("L")
        assert {l.split(",")[l_col] for l in content[1:]} == {"4", "5"}

    def test_records_carry_their_sample_size(self):
        # Monte Carlo and hex rows are shares of the realizations; an
        # analytic row samples nothing.
        scen = Scenario(lam=1.0, alpha=4.0, p=1.0, q=1.0, beta=0.1, gamma=1.0, L=2)
        sim = SimConfig(realizations=40, seed=3, expected_bs=100)
        tags = ("MonteCarloJoint", "MonteCarloLastBs", "UpperBound")
        rows = run_sweeps([scen], (-10.0, -5.0), tags, sim) + hex_vs_ppp_rows(scen, sim, 4, (8.0,))
        assert len(rows) == 3 * 2 + 2 * 4
        for row in rows:
            assert row.est.n == (None if row.method == "UpperBound" else 40)

    def test_e911_records_carry_their_sample_size(self):
        # Percentiles and the pass flag are over the row's fixes, the
        # no-fix rate over every trial.
        from hearability.e911 import E911Config, fcc_compliance

        cfg = E911Config(trials=200, min_hearability_grid=(4, 5))
        fixes = {e.min_hearability: e.fixes for e in fcc_compliance(cfg, seed=1)}
        assert 0 < fixes[5] < fixes[4] < cfg.trials
        rows = e911_rows(cfg, seed=1)
        assert len(rows) == 2 * 4
        for row in rows:
            assert row.est.n == (cfg.trials if row.method == "E911_NoFixRate" else fixes[row.L])
            assert row.est.stderr is None

    def test_figure_deterministic_and_plot_script(self, tmp_path):
        out = tmp_path / "fig5.csv"
        rc = main(["figure", "fig5", "--out", str(out), "--no-timestamp"])
        assert rc == 0
        first = out.read_bytes()
        assert main(["figure", "fig5", "--out", str(out), "--no-timestamp"]) == 0
        assert out.read_bytes() == first
        script = tmp_path / "plot_fig5.py"
        assert script.exists()
        pytest.importorskip("matplotlib")
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "fig5.png").exists()

    @pytest.mark.parametrize(
        "name, size",
        [("fig2", 4000), ("fig3", 20000), ("fig4", 20000), ("fig5", None), ("fig6", None),
         ("fig7", 20000), ("fig8", 20000), ("fig9", 10000), ("fig10", 10000),
         ("fig11", 10000)],
    )
    def test_figure_default_sample_size(self, monkeypatch, tmp_path, name, size):
        # Spies stand in for the three row builders that draw samples, so
        # the recipe draws none; fig5 and fig6 reach none of them.
        seen = []

        def spy(at):
            return lambda *args: seen.append(args[at]) or []

        monkeypatch.setattr(cli, "run_sweeps", spy(3))
        monkeypatch.setattr(cli, "hex_vs_ppp_rows", spy(1))
        monkeypatch.setattr(cli, "e911_rows", spy(0))
        run_figure(name, seed=5, out=tmp_path / f"{name}.csv", timestamp=False)
        if size is None:
            assert seen == []
        elif name == "fig2":
            from hearability.e911 import E911Config

            assert seen == [E911Config(trials=size)]
        else:
            assert seen == [SimConfig(realizations=size, seed=5)]

    def test_e911_defaults_are_the_config_defaults(self, monkeypatch, tmp_path):
        # The subcommand restates every E911Config default; a spy stands in
        # for the row builder, so no trial runs.
        from hearability.e911 import E911Config

        seen = []
        monkeypatch.setattr(cli, "e911_rows", lambda cfg, *args: seen.append(cfg) or [])
        assert main(["e911", "--out", str(tmp_path / "e911.csv")]) == 0
        assert seen == [E911Config()]

    def test_unknown_figure_name(self):
        with pytest.raises(ValueError, match="unknown figure"):
            run_figure("fig1")
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown method"):
            main(
                ["analytic", "--methods", "Bogus", "--out",
                 str(tmp_path / "x.csv")]
            )

    def test_bad_grid_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="bg_step_db"):
            main(
                ["analytic", "--bg-start-db", "0", "--bg-stop-db", "-5",
                 "--out", str(tmp_path / "x.csv")]
            )

    def test_grid_stops_at_the_last_point_within_stop(self, tmp_path):
        # A step that does not divide the range stops short of stop; one
        # that does keeps stop although (stop - start) / step rounds low.
        assert _grid(-20.0, 0.0, 3.0) == (-20.0, -17.0, -14.0, -11.0, -8.0, -5.0, -2.0)
        assert (0.3 - 0.0) / 0.1 < 3.0 and _grid(0.0, 0.3, 0.1) == (0.0, 0.1, 0.2, 0.3)
        out = tmp_path / "x.csv"
        main(["analytic", "--bg-step-db", "3", "--methods", "UpperBound",
              "--out", str(out), "--no-timestamp"])
        x = [float(line.split(",")[0]) for line in data_lines(out)[1:]]
        assert max(x) == -2.0 and len(x) == 7

    def test_config_file_drives_sweep(self, tmp_path):
        # A config file holding every key gives the bytes of the same
        # values passed as flags, for every subcommand.
        for command, (positional, keys) in EVERY_KEY.items():
            out_cfg = tmp_path / f"{command}_cfg.csv"
            cfg = tmp_path / f"{command}.cfg"
            cfg.write_text(
                "".join(f"{k} = {v}\n" for k, v in keys.items()) + f"out = {out_cfg}\n"
            )
            head = [command, *positional, "--no-timestamp"]
            assert main(head + ["--config", str(cfg)]) == 0
            out_flags = tmp_path / f"{command}_flags.csv"
            flags = [s for k, v in keys.items() for s in (flag(k), v)]
            assert main(head + flags + ["--out", str(out_flags)]) == 0
            assert out_cfg.read_bytes() == out_flags.read_bytes(), command

    @pytest.mark.parametrize(
        "key, value",
        [("alpha", "3.5"), ("p", "0.5"), ("q", "0.5"), ("l", "3"), ("lam", "2"),
         ("bg_start_db", "-10.5"), ("bg_stop_db", "-8"), ("bg_step_db", "0.5")],
    )
    def test_every_scenario_and_grid_key_moves_the_csv(self, tmp_path, key, value):
        # A key that leaves the bytes alone would be accepted and then ignored.
        base = ["analytic", "--methods", "UpperBound,PerfectCoord", "--no-timestamp",
                "--bg-start-db", "-10", "--bg-stop-db", "-9", "--bg-step-db", "1"]
        default, changed = tmp_path / "default.csv", tmp_path / "changed.csv"
        assert main(base + ["--out", str(default)]) == 0
        assert len(data_lines(default)) == 1 + 2 * 2  # two tags at two points
        assert main(base + [flag(key), value, "--out", str(changed)]) == 0
        assert changed.read_bytes() != default.read_bytes()

    @pytest.mark.parametrize("workload", ["analytic", "montecarlo", "e911"])
    def test_benchmark_argv_parses_and_resolves(self, tmp_path, workload):
        # The benchmark runs these argv through ``main``; a renamed flag,
        # command or figure would end its runs with an argument error.
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        argvs = [argv for _, argv in workloads.commands(workload, 0, tmp_path)]
        assert argvs
        for argv in argvs:
            args = build_parser().parse_args(argv)
            _resolve(_COMMANDS[args.command][2], args, {}, "no config")

    @pytest.mark.parametrize("command", sorted(EVERY_KEY))
    def test_flags_are_exactly_the_config_keys(self, command):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        actions = subparsers.choices[command]._actions
        options = {s for a in actions for s in a.option_strings}
        positional, keys = EVERY_KEY[command]
        assert options == {"-h", "--help", "--config", "--no-timestamp", "--out"} | {
            flag(k) for k in keys
        }
        assert [a.dest for a in actions if not a.option_strings] == (
            ["name"] if positional else []
        )

    def test_explicit_workers_flag_beats_config(self, tmp_path, monkeypatch):
        seen = []

        def fake_collect(scenarios, sim, workers):
            seen.append(workers)
            return [np.zeros((sim.realizations, 2)) for _ in scenarios]

        monkeypatch.setattr(cli, "collect_margins", fake_collect)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 2\n")
        argv = [
            "simulate", "--config", str(cfg), "--realizations", "50",
            "--bg-start-db", "-10", "--bg-stop-db", "-10",
            "--out", str(tmp_path / "x.csv"), "--no-timestamp",
        ]
        assert main(argv) == 0
        assert main(argv + ["--workers", "1"]) == 0
        assert seen == [2, 1]

    def test_reuse_passes_expected_bs(self, tmp_path, monkeypatch):
        seen = []

        def fake_collect(scenarios, sim, workers):
            seen.append(sim.expected_bs)
            return [np.zeros(sim.realizations) for _ in scenarios]

        monkeypatch.setattr(cli, "collect_reuse_margins", fake_collect)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("expected_bs = 50\n")
        argv = [
            "reuse", "--mc", "--k-list", "3", "--realizations", "50",
            "--bg-start-db", "-10", "--bg-stop-db", "-10",
            "--out", str(tmp_path / "x.csv"), "--no-timestamp",
        ]
        assert main(argv + ["--config", str(cfg)]) == 0
        assert main(argv + ["--expected-bs", "5000"]) == 0
        assert seen == [50, 5000]

    @pytest.mark.parametrize(
        "command, config, flags, message",
        [
            (
                "simulate", "truth_mode = last_bs_only", [],
                "unknown config key.*: truth_mode;",
            ),
            ("e911", "realizations = 100", [], "unknown config key.*: realizations;"),
            ("analytic", "alpha = four", [], "^error: alpha: "),
            ("reuse", "mc = true", [], "^error: mc: "),
            ("reuse", None, ["--k-list", "1,x"], "^error: k_list: "),
            # A repeated entry would write its rows twice.
            (
                "reuse", None, ["--k-list", "1,1,3"],
                "^error: k_list: 1 is listed twice",
            ),
            ("reuse", "k_list = 3,6,3", [], "^error: k_list: 3 is listed twice"),
            ("e911", None, ["--grid", "4,4,5"], "^error: grid: 4 is listed twice"),
            (
                "analytic", None, ["--methods", "UpperBound,UpperBound"],
                "^error: methods: UpperBound is listed twice",
            ),
            (
                "reuse", None, ["--k-list", "0"],
                "^error: k_list: entries must be positive",
            ),
            ("e911", None, ["--grid", "4,x"], "^error: grid: "),
            ("reuse", None, ["--base-method", "Bogus"], "^error: base_method: "),
            (
                "reuse", None, ["--base-method", "ProcGainBound"],
                "^error: base_method: 'ProcGainBound' is not a valid Method",
            ),
            # Tags that model one band would write K=3 rows of the K=1 values.
            ("analytic", None, ["--k", "3"], "^error: UpperBound models one band"),
            (
                "simulate", None, ["--k", "3", "--realizations", "500"],
                "^error: MonteCarloJoint models one band",
            ),
            # Values the table accepts but the library rejects.
            ("reuse", None, ["--p", "0.5"], "^error: .*requires p = q; got p=0.5"),
            (
                "reuse", None, ["--p", "0.5", "--q", "0.75", "--mc"],
                "^error: .*requires p = q; got p=0.5, q=0.75",
            ),
            ("reuse", None, ["--alpha", "3.5"], "^error: .*requires alpha = 4"),
            ("simulate", None, ["--realizations", "0"], "^error: realizations must be"),
            (
                "figure", None, ["fig3", "--realizations", "0"],
                "^error: realizations must be",
            ),
            ("e911", None, ["--trials", "50"], "^error: trials must be"),
            # A figure rejects a sample size it cannot use under its own name.
            ("figure", None, ["fig5", "--realizations", "7"], "^error: realizations: fig5"),
            ("figure", "realizations = 7", ["fig6"], "^error: realizations: fig6"),
            (
                "figure", None, ["fig2", "--realizations", "50"],
                "^error: realizations must be >= 100 for fig2, got 50",
            ),
            (
                "figure", "realizations = 50", ["fig2"],
                "^error: realizations must be >= 100 for fig2, got 50",
            ),
            ("analytic", None, ["--config", "nofile.cfg"], "^error: .*nofile.cfg"),
            # Levels above the Upsilon cap would print 0 instead of P_L.
            (
                "hexgrid", None,
                ["--bg-db", "-40", "--sigma-db", "0", "--l-max", "40",
                 "--realizations", "200"],
                "^error: l_max=40 exceeds UPSILON_CAP=32",
            ),
            # The window is checked against l_max, not the L = 1 it sweeps from.
            (
                "hexgrid", None, ["--expected-bs", "100", "--l-max", "16"],
                "^error: expected_bs=100 is too small for L=16",
            ),
            (
                "reuse", None,
                ["--l", "33", "--mc", "--k-list", "1", "--bg-start-db", "-40",
                 "--bg-stop-db", "-40", "--realizations", "200"],
                "^error: L=33 exceeds UPSILON_CAP=32",
            ),
            # P_L reads beta and gamma only through the grid's beta/gamma,
            # so a processing gain would be accepted and then ignored.
            *(
                (command, None, ["--gamma-db", "1"],
                 "error: unrecognized arguments: --gamma-db 1")
                for command in ("analytic", "simulate", "reuse")
            ),
            *(
                (command, "gamma_db = 1", [], "^error: unknown config key.*: gamma_db;")
                for command in ("analytic", "simulate", "reuse")
            ),
            # Grids that cannot be built, or only after a very long time.
            ("analytic", None, ["--bg-stop-db", "inf"], "^error: bg_stop_db: must be"),
            ("analytic", None, ["--bg-start-db", "nan"], "^error: bg_start_db: must be"),
            ("reuse", "bg_step_db = inf", [], "^error: bg_step_db: must be finite"),
            (
                "analytic", None, ["--bg-step-db", "1e-300"],
                "^error: bg_step_db: the grid would exceed 10000 points",
            ),
            (
                "simulate", None,
                ["--bg-start-db", "-3000", "--bg-stop-db", "3000", "--bg-step-db", "0.5"],
                "^error: bg_step_db: the grid would exceed 10000 points",
            ),
            # Points 1e-10 dB apart would round onto 2 keys of the 1e-9 dB grid.
            (
                "analytic", None,
                ["--methods", "UpperBound", "--bg-start-db", "0", "--bg-stop-db", "1e-9",
                 "--bg-step-db", "1e-10"],
                "^error: bg_step_db: must be at least 1e-09, the grid's resolution, got 1e-10$",
            ),
            # Counts below one would run one worker or write no rows.
            ("simulate", None, ["--workers", "0"], "^error: workers: must be a positive"),
            ("simulate", None, ["--workers", "-5"], "^error: workers: must be a"),
            ("e911", None, ["--workers", "0"], "^error: workers: must be a positive"),
            ("figure", "workers = 0", ["fig5"], "^error: workers: must be a positive"),
            ("hexgrid", None, ["--l-max", "0"], "^error: l_max: must be a positive"),
            # dB levels whose linear value is not a positive float.
            (
                "analytic", None, ["--bg-start-db", "4000", "--bg-stop-db", "4000"],
                "^error: bg_start_db: must be a level",
            ),
            ("hexgrid", None, ["--bg-db", "5000"], "^error: bg_db: must be a level"),
            ("hexgrid", "bg_db = -5000", [], "^error: bg_db: must be a level"),
            ("e911", None, ["--pre-sinr-db", "5000"], "^error: pre_sinr_db: must be a level"),
            ("e911", None, ["--gain-db", "5000"], "^error: gain_db: must be a level"),
            # Settings the E911 model cannot honour in floating point.
            ("e911", None, ["--sigma-db", "5000"], "^error: sigma_db=5000.0 overflows"),
            ("e911", None, ["--bandwidth", "1e200"], "^error: bandwidth must be"),
            (
                "e911", None, ["--pre-sinr-db", "3080"],
                r"^error: pre_sinr_threshold=1e\+308 and processing_gain_db=8.0 give",
            ),
            (
                "e911", None, ["--gain-db", "3080", "--trials", "100"],
                "^error: processing_gain_db=3080.0 and bandwidth=10000000.0 overflow",
            ),
            (
                "hexgrid", None,
                ["--sigma-db", "5000", "--realizations", "100", "--l-max", "4"],
                "^error: sigma_db=5000.0 shadows a BS distance",
            ),
            (
                "hexgrid", None,
                ["--sigma-db", "200", "--realizations", "100", "--l-max", "4"],
                "^error: sigma_db=200.0 overflows the mean shadowing gain",
            ),
            (
                "hexgrid", None, ["--sigma-db", "-1"],
                "^error: sigma_db must be nonnegative, got -1.0$",
            ),
            # Densities whose received powers underflow or overflow would
            # pass every SINR test; lattices whose density is 0 or inf.
            *(
                (
                    "simulate", None,
                    ["--lam", lam, "--realizations", "200", "--bg-start-db", "-10",
                     "--bg-stop-db", "-10", "--methods", "MonteCarloJoint,MonteCarloLastBs"],
                    f"^error: density {re.escape(lam)} puts received powers at alpha=4 outside",
                )
                for lam in ("1e-200", "1e+280")
            ),
            (
                "hexgrid", None, ["--isd", "1e140", "--l-max", "4", "--realizations", "16"],
                "^error: density 1.1547e-280 puts received powers at alpha=4 outside",
            ),
            (
                "e911", None, ["--isd", "1e140", "--trials", "100"],
                "^error: density 1.86613e-280 puts received powers at alpha=3.76 outside",
            ),
            ("hexgrid", None, ["--isd", "1e-200"], "^error: isd must be positive with a"),
            *(
                ("e911", None, ["--isd", isd], f"^error: hex_isd must .*, got {re.escape(isd)}$")
                for isd in ("1e-200", "1e+200")
            ),
            # A repeated key would silently keep its last value.
            (
                "analytic", "alpha = 3\nalpha = 4", [],
                r"^error: .*run\.cfg:2: key 'alpha' given twice$",
            ),
        ],
        ids=[
            "truth_mode", "realizations", "alpha", "mc", "k_list",
            "k_list_repeat", "k_list_repeat_config", "grid_repeat", "methods_repeat",
            "k_list_zero", "grid", "base_method", "base_method_gain_bound",
            "analytic_k", "simulate_k",
            "reuse_p_not_q", "reuse_mc_p_not_q", "reuse_alpha", "realizations_zero",
            "figure_realizations_zero", "e911_trials",
            "fig5_realizations_flag", "fig6_realizations_config",
            "fig2_realizations_flag", "fig2_realizations_config",
            "missing_config", "hexgrid_l_max_above_cap", "hexgrid_window_below_l_max",
            "reuse_l_above_cap",
            "analytic_gamma_db", "simulate_gamma_db", "reuse_gamma_db",
            "analytic_gamma_db_config", "simulate_gamma_db_config",
            "reuse_gamma_db_config", "bg_stop_db_inf", "bg_start_db_nan",
            "bg_step_db_inf_config", "bg_step_db_tiny", "grid_too_long",
            "bg_step_db_below_resolution",
            "simulate_workers_zero", "simulate_workers_negative", "e911_workers_zero",
            "figure_workers_zero_config", "hexgrid_l_max_zero",
            "bg_start_db_overflow", "bg_db_overflow", "bg_db_underflow_config",
            "pre_sinr_db_overflow", "gain_db_overflow", "sigma_db_overflow",
            "bandwidth_overflow", "beta_overflow", "gain_db_crlb_overflow", "hexgrid_sigma_db_overflow",
            "hexgrid_shadow_gain_overflow", "hexgrid_sigma_db_negative",
            "simulate_lam_underflow", "simulate_lam_overflow", "hexgrid_isd_underflow",
            "e911_isd_underflow", "hexgrid_isd_tiny", "e911_isd_tiny", "e911_isd_huge",
            "config_key_twice",
        ],
    )
    def test_bad_input_exits_naming_the_key(
        self, tmp_path, capsys, command, config, flags, message
    ):
        out = tmp_path / "x.csv"
        argv = [command, *flags, "--out", str(out)]
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config + "\n")
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as stop:
            main(argv)
        # The run's own errors are the exit message; argparse prints its
        # usage error and exits with status 2.
        text = stop.value.code
        if not isinstance(text, str):
            assert text == 2
            text = capsys.readouterr().err
        assert re.search(message, text, re.MULTILINE), text
        assert not out.exists()

    def test_hex_shadow_overflow_exits_without_a_warning(self, tmp_path):
        # The overflow is caught and named, not leaked as a RuntimeWarning.
        out = tmp_path / "x.csv"
        argv = ["hexgrid", "--sigma-db", "5000", "--realizations", "100", "--l-max", "4",
                "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit, match="^error: sigma_db=5000.0 shadows a BS"):
                main(argv)
        assert not out.exists()

    def test_power_overflow_exits_without_a_warning(self, tmp_path):
        # As above: d ** -alpha overflows, and the check names the density.
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit, match=r"^error: density 1e\+280 puts received"):
                main(["simulate", "--lam", "1e280", "--realizations", "16", "--out", str(out)])
        assert not out.exists()

    def test_e911_threshold_below_the_window_exits_naming_the_key(self, tmp_path):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit, match=r"^error: pre_sinr_db=-40 \(pre_sinr_threshold="
                           r"0\.0001\) lets a trial detect every BS of its 250-BS"):
            main(["e911", "--pre-sinr-db", "-40", "--seed", "6", "--trials", "320",
                  "--out", str(out)])
        assert not out.exists()

    def test_installed_entry_point(self, tmp_path):
        # The console command runs from the checkout's declaration, and
        # also as an installed script wherever one is on PATH.
        commands = {"checkout": checkout_console_script()}
        installed = shutil.which("hearability")
        if installed is not None:
            commands["installed"] = ([installed], None)
        for label, (command, env) in commands.items():
            out = tmp_path / f"ep_{label}.csv"
            proc = subprocess.run(
                command + [
                    "analytic", "--bg-start-db", "-10",
                    "--bg-stop-db", "-10", "--bg-step-db", "1",
                    "--out", str(out), "--no-timestamp",
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            assert out.exists()
