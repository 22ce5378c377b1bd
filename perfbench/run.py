"""Benchmark of the hearability CLI: fresh-process workloads with checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analytic --seed 0 --seconds 10 --trace 0

Each repetition starts a fresh interpreter (``rep.py``) that imports
``hearability.cli`` from ``src`` and runs the workload's commands, as a
CLI user pays for them.  Repetitions repeat until ``--seconds`` is used
up; every CSV is checked against the references in ``refs``.  Times
are scaled to a nominal host speed with the calibration kernel timed
around each repetition (see ``calibrate.py``); the raw times are printed
alongside.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted`` and ``failed`` (CSV rows) and ``metrics``: the end-to-end
medians with ``--trace 0``, the per-layer metrics of the traced run
with ``--trace 1``.  Earlier lines give every repetition, the quartiles
and sample counts, the fail rate and the environment stamp.

``--workload all`` runs the three workloads in turn and prefixes the
metric names with the workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

E2E = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
CALIBRATED = ("wall_s", "setup_s", "cpu_s")
REP_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed output row)."""


# --- environment ---------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def host_load() -> dict:
    """1-minute load average and cumulative steal ticks, read-only."""
    parts = _read("/proc/stat").split("\n", 1)[0].split()
    steal = int(parts[8]) if len(parts) > 8 and parts[0] == "cpu" else -1
    return {"loadavg": round(os.getloadavg()[0], 2), "steal_ticks": steal}


def environment(numpy_version: str) -> dict:
    model = next(
        (
            line.split(":", 1)[1].strip()
            for line in _read("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        platform.processor() or "unknown",
    )
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


# --- one repetition --------------------------------------------------------------


def _wait_for_group(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until no process of group ``pgid`` is left, at most ``limit_s``."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(job: dict) -> None:
    """Run ``rep.py`` on ``job`` in a fresh interpreter; raise if it fails.

    The repetition gets its own process group, so that on a timeout its
    pool workers are killed with it.
    """
    job["t_spawn"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), json.dumps(job)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        _wait_for_group(proc.pid)
        raise BenchError(f"repetition exceeded {REP_TIMEOUT_S:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"repetition exited with {proc.returncode}:\n{stderr[-3000:]}")


def run_rep(workload: str, seed: int, traced: bool, repdir: Path, e911: dict) -> dict:
    """One fresh-process repetition, checked; returns its record."""
    repdir.mkdir(parents=True)
    commands = workloads.commands(workload, seed, repdir)
    job = {
        "src": str(SRC),
        "traced": traced,
        "commands": commands,
        "result": str(repdir / "result.json"),
        "spans": str(repdir / "spans.json"),
    }
    before = host_load()
    spawn(job)
    after = host_load()
    record = json.loads((repdir / "result.json").read_text())
    record.update(traced=traced, load_before=before, load_after=after)
    factor = calibrate.speed_factor(record["kernel_s"])
    record["factor"] = factor
    record["raw"] = {name: record[name] for name in CALIBRATED}
    for name in CALIBRATED:
        record[name] *= factor
    names = [name for name, _ in commands]
    errors = {c["csv"]: c["error"] for c in record["commands"] if c["error"]}
    outputs = check.check_outputs(workload, seed, repdir, names, errors, e911)
    record["check"] = outputs
    record["digests"] = {
        name: hashlib.sha256((repdir / name).read_bytes()).hexdigest()
        for name in names
        if (repdir / name).exists()
    }
    if traced:
        data = json.loads((repdir / "spans.json").read_text())
        layers = tracer.span_metrics(data["spans"], data["counts"], record["raw"]["wall_s"])
        record["layers"] = {
            name: value * factor if tracer.PER_LAYER[name] in ("s", "ms", "us") else value
            for name, value in layers.items()
        }
    shutil.rmtree(repdir)
    return record


# --- a run -----------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Repetitions until ``seconds`` are used; alternates traced ones if ``trace``."""
    e911 = check.load_e911_expected()
    workdir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    records: list[dict] = []
    try:
        # Untimed warm-up: byte-compiles the package and fills the page cache.
        spawn({"src": str(SRC), "import_only": True})
        start = time.monotonic()
        took = {False: [], True: []}
        while True:
            traced = trace and sum(r["traced"] for r in records) < len(records) / 2
            t0 = time.monotonic()
            records.append(
                run_rep(workload, seed, traced, workdir / f"rep{len(records)}", e911)
            )
            took[traced].append(time.monotonic() - t0)
            nxt = trace and not traced
            elapsed = time.monotonic() - start
            predicted = statistics.median(took[nxt] or took[traced])
            done = any(not r["traced"] for r in records) and (
                not trace or any(r["traced"] for r in records)
            )
            if elapsed + predicted > RUN_LIMIT_S or (done and elapsed + predicted > seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return records


def repeatability(records: list[dict]) -> check.CheckResult:
    """Every repetition of a seed must write the same bytes as the first."""
    result = check.CheckResult()
    first = records[0]["digests"]
    for record in records[1:]:
        for name, digest in record["digests"].items():
            if first.get(name) != digest:
                result.fail(f"{name} differs between repetitions of one seed")
    return result


def summarize(workload: str, seed: int, records: list[dict], trace: bool) -> dict:
    """Print the human-readable report; return the result object."""
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    total = check.CheckResult()
    for record in records:
        total.add(record["check"].result)
    total.add(repeatability(records))

    print(f"== workload {workload}  seed {seed}  repetitions {len(plain)} untraced, "
          f"{len(traced)} traced")
    for i, r in enumerate(records):
        c = r["check"].result
        print(
            f"rep {i} {'traced  ' if r['traced'] else 'untraced'} "
            + " ".join(f"{k}={r[k]:.4f}" for k in E2E)
            + f" raw_wall_s={r['raw']['wall_s']:.4f} speed_factor={r['factor']:.3f}"
            + f" rows={c.attempted} failed={c.failed}"
            + f" load={r['load_before']['loadavg']}->{r['load_after']['loadavg']}"
            + f" steal_ticks={r['load_after']['steal_ticks'] - r['load_before']['steal_ticks']}"
        )
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}  unit  (raw median)")
    e2e = {}
    for name, unit in E2E.items():
        q1, med, q3 = quartiles([r[name] for r in plain])
        e2e[name] = med
        raw = statistics.median(r["raw"].get(name, r[name]) for r in plain)
        print(f"{name:<14}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{len(plain):>4}  {unit:<4}  ({raw:.4f})")
    rate = total.failed / total.attempted if total.attempted else 1.0
    print(f"{'fail_rate':<14}{rate:>12.4f}  ({total.failed}/{total.attempted} rows)  ratio")
    for reason in total.reasons:
        print(f"  FAIL {reason}")
    if any(r["missing_boundaries"] for r in traced):
        print(f"  trace boundaries not found: {traced[0]['missing_boundaries']}")
    print("env " + json.dumps(
        {**environment(records[0]["numpy"]),
         "load_first": records[0]["load_before"], "load_last": records[-1]["load_after"]}
    ))

    if trace:
        metrics = layer_report(workload, plain, traced)
        units = tracer.PER_LAYER
    else:
        metrics, units = e2e, E2E
    return {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def layer_report(workload: str, plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: medians over traced repetitions plus run-level ones."""
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    if workload == "e911":
        out["e911.pool_speedup"] = statistics.median(
            r["commands"][0]["wall_s"] / r["commands"][1]["wall_s"] for r in plain
        )
    else:
        out["e911.pool_speedup"] = 0.0
    last = plain[-1]["check"]
    out["cli.csv_bytes"] = float(last.csv_bytes)
    out["cli.rows"] = float(last.rows)
    out["cli.csv_compared"] = float(last.csv_compared)
    out["cli.csv_identical"] = (
        last.csv_identical / last.csv_compared if last.csv_compared else 0.0
    )
    out["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    for name in tracer.PER_LAYER:
        print(f"layer {name} = {out[name]:.6g} {tracer.PER_LAYER[name]}")
    return {name: out[name] for name in tracer.PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "hearability" / "cli.py").is_file():
        print(f"error: no hearability package under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        if not check.ref_dir(name, check.DEFAULT_SEED).is_dir():
            print(f"error: no reference outputs for workload {name}", file=sys.stderr)
            return 2
    results = {}
    try:
        for name in names:
            records = measure(name, args.seed, args.seconds, bool(args.trace))
            results[name] = summarize(name, args.seed, records, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
