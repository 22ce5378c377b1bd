"""Chunks of keyed blocks are a compute unit that never reaches the bits.

The collectors and the E911 trials run their samplers and statistics on
chunks of whole consecutive blocks (``simulate._chunk_rows``), while
every draw stays keyed by its block.  Each result must equal the one
drawn a block at a time, byte for byte, at every worker count, and each
``(seed, block, role)`` stream must be built exactly once.  The rows
(5 blocks and 7 rows) put a short final block in the last chunk, and at
2 and 3 workers the span cuts fall inside what one span runs as a chunk.
"""

import collections
import functools

import numpy as np
import pytest

from hearability import e911, parallel, simulate
from hearability.model import Scenario
from hearability.parallel import map_spans
from hearability.simulate import (
    SimConfig,
    collect_margins,
    collect_reuse_margins,
    collect_upsilon,
)
from test_parallel import _InlinePool

ROWS = 5 * simulate._BLOCK + 7
BLOCKS = set(range(-(-ROWS // simulate._BLOCK)))
SCEN = Scenario(lam=1.0, alpha=4.0, p=1.0, q=1.0, L=4)
UPSILON_AT = functools.partial(collect_upsilon, level=0.02)

# Each deployment: its config fields and its scenarios' sigma_db.  The
# Poisson rows keep the default window (250 BSs); the hex rows keep 100
# sites, as the default 1000 runs one block per chunk.
_DEPLOYMENTS = {
    "ppp": ({}, 0.0),
    "hex-shadow": (dict(hex_isd=1.0, expected_bs=100), 8.0),
}

_CASES = {
    "margins": (collect_margins, [SCEN.replace(p=2.0 / 3.0),
                                  SCEN.replace(p=2.0 / 3.0, alpha=3.5)]),
    "upsilon-p!=q": (UPSILON_AT, [SCEN.replace(K=3, p=0.5, q=0.75)]),
    "upsilon-p=q": (UPSILON_AT, [SCEN.replace(K=3, p=0.6, q=0.6)]),
    "reuse": (collect_reuse_margins, [SCEN.replace(K=6, p=0.6, q=0.6),
                                      SCEN.replace(K=1, p=0.6, q=0.6)]),
}


@pytest.fixture()
def inline_pool(monkeypatch):
    """Spans run in this process, so the stream spy sees every one."""
    monkeypatch.setattr(parallel, "_pool", lambda processes: _InlinePool([], processes))
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 3)


def _one_block_chunks(patch):
    for module in (simulate, e911):
        patch.setattr(module, "_chunk_rows", lambda n, K=1: simulate._BLOCK)


def _spy_streams(monkeypatch) -> collections.Counter:
    """Counts the builds of each ``(seed, block, role)`` stream from now on."""
    built, make = collections.Counter(), simulate.stream

    def spy(seed, index, role):
        built[seed, index, role] += 1
        return make(seed, index, role)

    monkeypatch.setattr(simulate, "stream", spy)
    return built


def _assert_built_once(built: collections.Counter) -> None:
    assert built and max(built.values()) == 1
    for role in {role for _, _, role in built}:
        assert {index for _, index, r in built if r == role} == BLOCKS


def _config(deployment: str) -> tuple[SimConfig, float]:
    extra, sigma_db = _DEPLOYMENTS[deployment]
    return SimConfig(realizations=ROWS, seed=13, **extra), sigma_db


@pytest.mark.parametrize("deployment", sorted(_DEPLOYMENTS))
@pytest.mark.parametrize("case", sorted(_CASES))
def test_cases_run_multi_block_chunks(deployment, case):
    # Guards the case table: a chunk of one block would test nothing.
    config, _ = _config(deployment)
    family = _CASES[case][1]
    config = simulate._with_window(family, config)
    K = max(s.K for s in family)
    assert simulate._chunk_rows(config.expected_bs, K) >= 2 * simulate._BLOCK


@pytest.mark.parametrize("deployment", sorted(_DEPLOYMENTS))
def test_a_chunk_draws_the_rows_of_its_blocks(deployment):
    config, sigma_db = _config(deployment)
    config = config.replace(expected_bs=config.expected_bs or 250)
    scen = SCEN.replace(K=3, p=0.5, sigma_db=sigma_db)
    sizes = [min(simulate._BLOCK, ROWS - first) for first in range(0, ROWS, simulate._BLOCK)]
    chunk = simulate._BlockDraws(config, 2, ROWS)
    blocks = [simulate._BlockDraws(config, 2 + i, rows) for i, rows in enumerate(sizes)]
    for read in (lambda d: d.distances(scen), lambda d: d.reach(scen),
                 lambda d: d.activity(), lambda d: d.labels(3), lambda d: d.tail(scen)):
        want = np.concatenate([read(block) for block in blocks])
        assert read(chunk).tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("deployment", sorted(_DEPLOYMENTS))
@pytest.mark.parametrize("case", sorted(_CASES))
def test_collection_matches_one_block_chunks(monkeypatch, inline_pool, case, deployment,
                                             workers):
    config, sigma_db = _config(deployment)
    collect, family = _CASES[case]
    family = [scen.replace(sigma_db=sigma_db) for scen in family]
    with monkeypatch.context() as patch:
        _one_block_chunks(patch)
        want = [stat.tobytes() for stat in collect(family, config)]
    built = _spy_streams(monkeypatch)
    got = collect(family, config, workers=workers)
    assert [stat.tobytes() for stat in got] == want
    _assert_built_once(built)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_e911_trials_match_one_block_chunks(monkeypatch, inline_pool, workers):
    cfg = e911.E911Config()
    window = e911._trial_window(cfg, 5)[1].expected_bs
    assert e911._chunk_rows(window) >= 2 * simulate._BLOCK  # guards the case
    with monkeypatch.context() as patch:
        _one_block_chunks(patch)
        want = map_spans(e911._trial_span, (cfg, 5), ROWS, 1, simulate._BLOCK)
    built = _spy_streams(monkeypatch)
    got = map_spans(e911._trial_span, (cfg, 5), ROWS, workers, simulate._BLOCK)
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got[:, e911._ERROR]).any()
    _assert_built_once(built)
