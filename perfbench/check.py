"""Correctness checks of benchmark CSVs against recorded references.

Rules, by the row's ``method`` column:

* analytic rows (closed forms, integrals, reuse recursion, processing
  gain) must match the reference to 1e-9 absolute, or to one unit in the
  ninth significant digit where the CSV's printed precision is coarser;
* Monte Carlo rows (``MonteCarlo*``) must lie within
  ``4 * sqrt(se**2 + se_ref**2)`` of the default-seed reference, using
  each row's own binomial ``stderr``;
* E911 percentile and no-fix rows must lie within the tolerance of the
  expected value stored in ``refs/e911_expected.json``, both derived by
  ``make_refs.py`` from the spread of independent reference runs; an
  ``E911_Pass`` row must equal the FCC verdict of the same CSV's P67/P90
  rows.

A row also fails when it carries a ``# nonconvergence`` comment, when it
is missing from the CSV, or when the CSV holds a row the reference does
not.  A CSV whose command raised fails all of its reference rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
DEFAULT_SEED = 0
HELD_OUT_SEED = 7
REF_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

ANALYTIC_ABS_TOL = 1e-9
MC_SIGMAS = 4.0
FCC_P67_M = 50.0
FCC_P90_M = 150.0

# Every column except value and stderr identifies a row.
_KEY_COLUMNS = ("beta_over_gamma_db", "L", "p", "q", "alpha", "K", "lambda", "method")


@dataclass
class CsvFile:
    """Parsed benchmark CSV: rows by key, and the keys flagged nonconvergent."""

    rows: dict[tuple[str, ...], tuple[float, float | None]]
    flagged: set[tuple[str, ...]] = field(default_factory=set)
    duplicates: int = 0


@dataclass
class CheckResult:
    """Row counts of one checked CSV and the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str, rows: int = 1) -> None:
        self.failed += rows
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[: max(0, 5 - len(self.reasons))])


def parse_csv(text: str) -> CsvFile:
    """Parse the CLI's CSV format; raises ValueError on a malformed file."""
    lines = text.splitlines()
    out = CsvFile(rows={})
    header_seen = False
    pending_flag = False
    for line in lines:
        if line.startswith("#"):
            if line.startswith("# nonconvergence"):
                pending_flag = True
            continue
        cells = line.split(",")
        if not header_seen:
            if tuple(cells) != (*_KEY_COLUMNS, "value", "stderr"):
                raise ValueError(f"unexpected CSV header {line!r}")
            header_seen = True
            continue
        if len(cells) != 10:
            raise ValueError(f"malformed CSV row {line!r}")
        key = tuple(cells[:8])
        stderr = float(cells[9]) if cells[9] else None
        if key in out.rows:
            out.duplicates += 1
        out.rows[key] = (float(cells[8]), stderr)
        if pending_flag:
            out.flagged.add(key)
            pending_flag = False
    if not header_seen:
        raise ValueError("CSV has no header")
    return out


def kind_of(method: str) -> str:
    if method.startswith("MonteCarlo"):
        return "mc"
    if method.startswith("E911_"):
        return "e911"
    return "analytic"


def analytic_tolerance(ref: float) -> float:
    """1e-9 absolute, widened to one unit in the 9th significant digit."""
    if ref == 0.0 or not math.isfinite(ref):
        return ANALYTIC_ABS_TOL
    last_digit = 10.0 ** (math.floor(math.log10(abs(ref))) - 8)
    return max(ANALYTIC_ABS_TOL, last_digit) * (1.0 + 1e-6)


def _values_close(value: float, ref: float, tol: float) -> bool:
    if math.isnan(value) or math.isnan(ref):
        return math.isnan(value) and math.isnan(ref)
    if math.isinf(value) or math.isinf(ref):
        return value == ref
    return abs(value - ref) <= tol


def _fcc_verdicts(rows: dict) -> dict[tuple[str, ...], float]:
    """Expected E911_Pass value per Pass row key, from that CSV's P67/P90."""
    verdicts = {}
    for key in rows:
        if key[7] != "E911_Pass":
            continue
        p67 = rows.get((*key[:7], "E911_P67_M"))
        p90 = rows.get((*key[:7], "E911_P90_M"))
        if p67 is not None and p90 is not None:
            verdicts[key] = 1.0 if (p67[0] <= FCC_P67_M and p90[0] <= FCC_P90_M) else 0.0
    return verdicts


def check_rows(got: CsvFile, ref: CsvFile, e911: dict[str, dict]) -> CheckResult:
    """Compare one CSV with its reference, row by row.

    ``e911`` maps a row label to its expected ``mean`` and ``tol``.
    """
    result = CheckResult(attempted=len(ref.rows))
    verdicts = _fcc_verdicts(got.rows)
    for key, (ref_value, ref_se) in ref.rows.items():
        label = "/".join(key)
        if key not in got.rows:
            result.fail(f"missing row {label}")
            continue
        if key in got.flagged:
            result.fail(f"nonconvergence flagged on {label}")
            continue
        value, se = got.rows[key]
        kind = kind_of(key[7])
        if kind == "analytic":
            tol = analytic_tolerance(ref_value)
        elif kind == "mc":
            tol = MC_SIGMAS * math.hypot(se or 0.0, ref_se or 0.0)
        elif key[7] == "E911_Pass":
            expected = verdicts.get(key)
            if expected is None or value != expected:
                result.fail(f"{label}: pass flag {value} disagrees with P67/P90 {expected}")
            continue
        else:
            expected = e911.get(label)
            if expected is None:
                result.fail(f"{label}: no E911 expectation recorded")
                continue
            ref_value, tol = expected["mean"], expected["tol"]
        if not _values_close(value, ref_value, tol):
            result.fail(f"{label}: {value!r} vs reference {ref_value!r} (tol {tol:.3g})")
    extra = (len(got.rows) - len(set(got.rows) & set(ref.rows))) + got.duplicates
    if extra:
        result.fail(f"{extra} row(s) not in the reference", rows=extra)
    return result


def compare_identical(a: bytes, b: bytes, label: str) -> CheckResult:
    """Byte-identity of two CSVs (E911 worker-count invariance)."""
    rows = max(1, sum(1 for line in a.splitlines() if line and not line.startswith(b"#")) - 1)
    result = CheckResult(attempted=0)
    if a != b:
        result.fail(f"{label}: CSVs differ between worker counts", rows=rows)
    return result


# --- reference store ------------------------------------------------------------


def ref_dir(workload: str, seed: int) -> Path:
    return REFS / workload / f"seed-{seed}"


def load_e911_expected() -> dict[str, dict]:
    path = REFS / "e911_expected.json"
    return json.loads(path.read_text()) if path.exists() else {}


@dataclass
class OutputCheck:
    """Result of checking all CSVs of one repetition."""

    result: CheckResult
    csv_identical: int
    csv_compared: int
    csv_bytes: int
    rows: int


def check_outputs(
    workload: str,
    seed: int,
    outdir: Path,
    csv_names: list[str],
    errors: dict[str, str],
    e911: dict[str, dict],
) -> OutputCheck:
    """Check every CSV a repetition wrote against the references.

    When a reference for the run's own seed exists, byte identity with
    it is counted in ``csv_identical`` (informational).
    """
    total = CheckResult()
    identical = compared = size = rows = 0
    same_seed = ref_dir(workload, seed)
    for name in csv_names:
        ref_path = ref_dir(workload, DEFAULT_SEED) / name
        ref = parse_csv(ref_path.read_text())
        path = Path(outdir) / name
        if name in errors or not path.exists():
            failed = CheckResult(attempted=len(ref.rows))
            failed.fail(f"{name}: {errors.get(name, 'no CSV written')}", rows=len(ref.rows))
            total.add(failed)
            continue
        data = path.read_bytes()
        size += len(data)
        try:
            got = parse_csv(data.decode())
        except (ValueError, UnicodeDecodeError) as err:
            failed = CheckResult(attempted=len(ref.rows))
            failed.fail(f"{name}: {err}", rows=len(ref.rows))
            total.add(failed)
            continue
        rows += len(got.rows)
        total.add(check_rows(got, ref, e911))
        if (same_seed / name).exists():
            compared += 1
            identical += int((same_seed / name).read_bytes() == data)
        elif all(kind_of(key[7]) == "analytic" for key in ref.rows):
            # Seed-independent CSV: any seed must reproduce the default one.
            compared += 1
            identical += int(ref_path.read_bytes() == data)
    if workload == "e911":
        w1, w2 = (Path(outdir) / n for n in ("e911_w1.csv", "e911_w2.csv"))
        if w1.exists() and w2.exists():
            total.add(compare_identical(w1.read_bytes(), w2.read_bytes(), "e911"))
    return OutputCheck(total, identical, compared, size, rows)
