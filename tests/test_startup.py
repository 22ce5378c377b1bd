"""What a fresh CLI process loads, and that loading it late moves no byte.

``import hearability`` loads no layer, and the sweep commands never load
the E911 layer, the process pool (``concurrent.futures.process`` with
``multiprocessing``) or ``numpy.polynomial``: each is imported where a run
first needs it, and no step loads ``numpy.ma``.  One fresh interpreter
runs the steps below and reports, after each, which of those modules it
has loaded.  Another collects E911 trials, a pool worker's whole job,
without loading ``numpy.ma``, and a third imports the reuse recursion
without loading the Monte Carlo sampler.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import hearability

DEFERRED = (
    "hearability.e911",
    "concurrent.futures.process",
    "multiprocessing",
    "numpy.polynomial",
    "numpy.ma",
)

_PROBE = """
import json
import sys

sys.path.insert(0, sys.argv[1])  # the package under test comes first
deferred, out = sys.argv[2].split(","), sys.argv[3]
seen = {}


def note(step):
    seen[step] = sorted(name for name in deferred if name in sys.modules)


import hearability
note("import hearability")
import hearability.cli
note("import hearability.cli")
hearability.cli.main(["analytic", "--no-timestamp", "--out", out + "/analytic.csv"])
note("analytic")
hearability.cli.main(["figure", "fig5", "--no-timestamp", "--out", out + "/fig5.csv"])
note("figure fig5")
for workers in ("1", "2"):
    hearability.cli.main([
        "e911", "--trials", "200", "--grid", "4,5", "--workers", workers,
        "--no-timestamp", "--out", f"{out}/e911_w{workers}.csv",
    ])
note("e911")
with open(out + "/seen.json", "w") as fh:
    json.dump(seen, fh)
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """The out directory and the deferred modules loaded after each step."""
    out = tmp_path_factory.mktemp("startup")
    package_root = str(Path(hearability.__file__).resolve().parent.parent)
    subprocess.run(
        [sys.executable, "-c", _PROBE, package_root, ",".join(DEFERRED), str(out)],
        cwd=out, check=True, capture_output=True, timeout=300,
    )
    return out, json.loads((out / "seen.json").read_text())


@pytest.mark.parametrize(
    "step", ["import hearability", "import hearability.cli", "analytic", "figure fig5"]
)
def test_sweeps_load_no_e911_pool_or_polynomial(probe, step):
    _, seen = probe
    assert seen[step] == []


def test_e911_loads_its_layer_and_the_pool(probe):
    # The probe does see a deferred module once a run needs it.
    _, seen = probe
    assert {"hearability.e911", "concurrent.futures.process", "multiprocessing"} <= set(
        seen["e911"]
    )


def test_e911_table_loads_no_masked_arrays(probe):
    # The compliance table takes its percentiles from one sort rather than
    # np.percentile, whose np.unique loads numpy.ma.
    _, seen = probe
    assert "numpy.ma" not in seen["e911"]


def test_e911_pool_writes_the_bytes_of_one_worker(probe):
    out, _ = probe
    assert (out / "e911_w2.csv").read_bytes() == (out / "e911_w1.csv").read_bytes()


def test_trial_collection_loads_no_masked_arrays():
    # np.unique loads numpy.ma on its first call; the trial loop finds its
    # used counts without it, so collecting trials (a pool worker's whole
    # job) never pays that import.
    package_root = str(Path(hearability.__file__).resolve().parent.parent)
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from hearability.e911 import E911Config, collect_trials;"
        "table = collect_trials(E911Config(trials=200), seed=3);"
        "print(len(table), 'numpy.ma' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, package_root],
        check=True, capture_output=True, text=True, timeout=300,
    )
    assert done.stdout.split() == ["200", "False"]


def test_reuse_loads_no_sampler():
    # The reuse recursion is analytic: importing it loads no Monte Carlo layer.
    package_root = str(Path(hearability.__file__).resolve().parent.parent)
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import hearability.reuse;"
        "print('hearability.simulate' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, package_root],
        check=True, capture_output=True, text=True, timeout=300,
    )
    assert done.stdout.split() == ["False"]
