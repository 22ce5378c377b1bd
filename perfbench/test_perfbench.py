"""Self-tests of the benchmark: span arithmetic, checker, invariance, contract.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import calibrate
import check
import run
import tracer
import workloads

REPO = Path(__file__).resolve().parent.parent


def span(name, start, end, parent=-1, detail=None):
    return (name, start, end, parent, detail)


# --- span arithmetic -------------------------------------------------------------


def test_union_length_merges_overlaps():
    assert tracer.union_length([]) == 0.0
    assert tracer.union_length([(0, 1), (2, 3)]) == 2.0
    assert tracer.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert tracer.union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),  # overlaps a: coverage is the union
        span("c", 2.0, 3.0, parent=1),
        span("d", 9.0, 12.0, parent=0),  # sticks out: clipped to the parent
    ]
    assert tracer.self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_layer_coverage_counts_only_spans_under_roots():
    spans = [
        span("cli.main", 0.0, 4.0),
        span("analytic.evaluate", 0.5, 2.0, parent=0),
        span("numerics.bisect", 0.6, 1.0, parent=1),
        span("cli.write_csv", 3.0, 3.5, parent=0),
    ]
    assert tracer.layer_coverage(spans) == pytest.approx(2.0)
    metrics = tracer.span_metrics(spans, {}, wall_s=4.0)
    assert metrics["trace.uncovered_share"] == pytest.approx(0.5)
    assert metrics["numerics.bisect_s"] == pytest.approx(0.4)
    assert metrics["cli.write_csv_s"] == pytest.approx(0.5)


def test_recorder_nests_spans_and_counts_errors():
    rec = tracer.Recorder()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return 2 * x

    wrapped_inner = rec.wrap("inner", inner)
    outer = rec.wrap("outer", lambda x: wrapped_inner(x) + 1)
    assert outer(3) == 7
    with pytest.raises(ValueError):
        outer(-1)
    names = [(s[tracer.NAME], s[tracer.PARENT]) for s in rec.spans]
    assert names == [("outer", -1), ("inner", 0), ("outer", -1), ("inner", 2)]
    assert rec.counts["inner.error.ValueError"] == 1
    assert rec.counts["outer.error.ValueError"] == 1


def test_percentile_matches_linear_interpolation():
    assert tracer.percentile([], 50) == 0.0
    assert tracer.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert tracer.percentile(list(range(101)), 99) == 99.0


# --- checker -----------------------------------------------------------------------


def _ref_text(workload: str, name: str) -> str:
    return (check.ref_dir(workload, check.DEFAULT_SEED) / name).read_text()


def _replace_value(text: str, method: str, new_value) -> tuple[str, tuple]:
    """Replace the value of the first row of ``method``; returns text and key."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) == 10 and cells[7] == method and 0.1 < float(cells[8]) < 0.9:
            value, se = float(cells[8]), float(cells[9]) if cells[9] else 0.0
            cells[8] = f"{new_value(value, se):.9g}"
            lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n", tuple(cells[:8])
    raise AssertionError(f"no {method} row to perturb")


def test_reference_passes_its_own_check():
    for workload, name in (("analytic", "fig4_alpha4.csv"), ("montecarlo", "fig8.csv")):
        ref = check.parse_csv(_ref_text(workload, name))
        result = check.check_rows(ref, ref, {})
        assert result.failed == 0 and result.attempted == len(ref.rows)


def test_checker_rejects_perturbed_analytic_value():
    text = _ref_text("analytic", "fig4_alpha4.csv")
    ref = check.parse_csv(text)
    bad, _ = _replace_value(text, "DoubleIntegral", lambda v, se: v + 5e-9)
    assert check.check_rows(check.parse_csv(bad), ref, {}).failed == 1
    # A difference below the last printed digit is not a failure.
    same, _ = _replace_value(text, "DoubleIntegral", lambda v, se: v + 2e-10)
    assert check.check_rows(check.parse_csv(same), ref, {}).failed == 0


def test_analytic_tolerance_follows_printed_precision():
    assert check.analytic_tolerance(0.5) == pytest.approx(1e-9, rel=1e-5)
    assert check.analytic_tolerance(0.001) == pytest.approx(1e-9, rel=1e-5)
    assert check.analytic_tolerance(23.4) == pytest.approx(1e-7, rel=1e-5)


def test_checker_rejects_monte_carlo_value_ten_sigma_off():
    text = _ref_text("montecarlo", "fig8.csv")
    ref = check.parse_csv(text)
    bad, key = _replace_value(text, "MonteCarloJoint", lambda v, se: v + 10 * se)
    result = check.check_rows(check.parse_csv(bad), ref, {})
    assert result.failed == 1 and "/".join(key) in result.reasons[0]
    near, _ = _replace_value(text, "MonteCarloJoint", lambda v, se: v + 2 * se)
    assert check.check_rows(check.parse_csv(near), ref, {}).failed == 0


def test_checker_rejects_nonconvergence_row():
    text = _ref_text("analytic", "fig4_alpha4.csv")
    ref = check.parse_csv(text)
    lines = text.splitlines()
    lines.insert(2, "# nonconvergence method=DoubleIntegral bg_db=-20 residual=1.0e-03")
    got = check.parse_csv("\n".join(lines) + "\n")
    result = check.check_rows(got, ref, {})
    assert result.failed == 1 and "nonconvergence" in result.reasons[0]


def test_checker_counts_missing_and_extra_rows():
    text = _ref_text("analytic", "fig5.csv")
    ref = check.parse_csv(text)
    lines = text.splitlines()
    dropped = check.parse_csv("\n".join(lines[:-1]) + "\n")
    assert check.check_rows(dropped, ref, {}).failed == 1
    extra = lines[-1].replace("ProcGainBound", "UpperBound")
    added = check.parse_csv("\n".join(lines + [extra]) + "\n")
    assert check.check_rows(added, ref, {}).failed == 1


def test_e911_rows_use_recorded_expectation_and_pass_verdict():
    ref = check.parse_csv(_ref_text("e911", "e911_w1.csv"))
    expected = check.load_e911_expected()
    assert check.check_rows(ref, ref, expected).failed == 0
    key = next(k for k in ref.rows if k[7] == "E911_P67_M")
    label = "/".join(key)
    rows = dict(ref.rows)
    rows[key] = (expected[label]["mean"] + 1.01 * expected[label]["tol"], None)
    result = check.check_rows(check.CsvFile(rows=rows), ref, expected)
    assert result.failed >= 1 and label in result.reasons[0]
    rows = dict(ref.rows)
    pass_key = (*key[:7], "E911_Pass")
    rows[pass_key] = (1.0 - rows[pass_key][0], None)
    assert check.check_rows(check.CsvFile(rows=rows), ref, expected).failed == 1


def test_e911_worker_invariance_fails_on_differing_csvs(tmp_path):
    text = _ref_text("e911", "e911_w1.csv")
    assert check.compare_identical(text.encode(), text.encode(), "e911").failed == 0
    changed = text.replace("E911_P67_M,", "E911_P67_M,1", 1)
    assert check.compare_identical(text.encode(), changed.encode(), "e911").failed > 0

    names = [name for name, _ in workloads.commands("e911", 0, tmp_path)]
    for name in names:
        (tmp_path / name).write_text(text)
    ok = check.check_outputs("e911", 0, tmp_path, names, {}, check.load_e911_expected())
    assert ok.result.failed == 0 and ok.csv_identical == ok.csv_compared == 2
    (tmp_path / names[1]).write_text(text.replace("\n", "\n\n", 1))
    bad = check.check_outputs("e911", 0, tmp_path, names, {}, check.load_e911_expected())
    assert bad.result.failed > 0
    assert any("differ between worker counts" in r for r in bad.result.reasons)


def test_failed_command_fails_all_its_rows(tmp_path):
    names = [name for name, _ in workloads.commands("analytic", 3, tmp_path)]
    out = check.check_outputs("analytic", 3, tmp_path, names[:1], {names[0]: "boom"}, {})
    assert out.result.failed == out.result.attempted > 0


# --- workloads, calibration and contract -------------------------------------------


def test_every_command_carries_the_workload_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        for _, argv in workloads.commands(workload, 42, tmp_path):
            assert argv[argv.index("--seed") + 1] == "42"
            assert "--no-timestamp" in argv
    with pytest.raises(ValueError):
        workloads.commands("analytic", -1, tmp_path)


def test_speed_factor_scales_to_nominal():
    assert calibrate.speed_factor([calibrate.NOMINAL_S] * 3) == pytest.approx(1.0)
    assert calibrate.speed_factor([2 * calibrate.NOMINAL_S]) == pytest.approx(0.5)


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
