"""One benchmark repetition in a fresh interpreter.

``run.py`` starts this script once per repetition with a JSON job on
the command line.  It imports ``hearability.cli`` from the checkout's
``src`` directory, records how long that took since the parent spawned
it (``setup_s``), then runs the workload's commands through
``hearability.cli.main``, timing the calibration kernel
(``calibrate.py``) between commands, and writes one JSON record: wall
and CPU seconds summed over the commands (excluding start-up, imports
and kernels), peak RSS of this process and its pool workers,
per-command wall times and errors, and the kernel times.
With ``traced`` set, the layer boundaries are wrapped first and the
spans are written next to the record.

Usage: python3 perfbench/rep.py '<job json>'
"""

import json
import resource
import sys
import time


def _usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own, kids


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    import hearability.cli as cli

    setup_s = time.monotonic() - job["t_spawn"]
    if job.get("import_only"):
        return 0

    import contextlib
    import io

    import numpy

    import calibrate

    recorder = None
    missing = []
    main_fn = cli.main
    if job["traced"]:
        import tracer

        recorder = tracer.Recorder()
        missing = tracer.install(recorder)
        main_fn = recorder.wrap(tracer.ROOT_SPAN, cli.main)

    commands = []
    kernels = [calibrate.kernel_seconds()]
    last_kernel = time.perf_counter()
    wall_s = cpu_s = 0.0
    for index, (name, argv) in enumerate(job["commands"]):
        own0, kids0 = _usage()
        t0 = time.perf_counter()
        error = None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                main_fn(argv)
        except (Exception, SystemExit) as err:  # a failed command fails its rows
            error = f"{type(err).__name__}: {err}"
        took = time.perf_counter() - t0
        own1, kids1 = _usage()
        wall_s += took
        cpu_s += (own1.ru_utime - own0.ru_utime) + (own1.ru_stime - own0.ru_stime)
        cpu_s += (kids1.ru_utime - kids0.ru_utime) + (kids1.ru_stime - kids0.ru_stime)
        commands.append({"csv": name, "wall_s": took, "error": error})
        last = index == len(job["commands"]) - 1
        if last or time.perf_counter() - last_kernel >= calibrate.INTERVAL_S:
            kernels.append(calibrate.kernel_seconds())
            last_kernel = time.perf_counter()

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest
        # reaped child, i.e. the largest pool worker.
        "peak_rss_mb": max(own1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "commands": commands,
        "kernel_s": kernels,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "missing_boundaries": missing,
    }
    if recorder is not None:
        with open(job["spans"], "w") as fh:
            json.dump({"spans": recorder.spans, "counts": dict(recorder.counts)}, fh)
    with open(job["result"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
