"""Byte-identity guard: small figure CSVs against recorded SHA-256 digests.

A recipe's CSV is a function of the code and the seed alone, so a change
that keeps every number keeps these digests.  A deliberate, announced
change of the numbers (a new RNG contract, say) records new digests in
the same change.  The digests were recorded with numpy 2.4 and Python
3.11; each recipe runs in well under a second at this size.  fig2 runs
E911 trials rather than realizations and needs at least 100 of them.
"""

import hashlib

import pytest

from hearability.cli import run_figure

# sha256 of run_figure(name, seed=0, realizations=SIZES.get(name, 16),
# timestamp=False).
DIGESTS = {
    "fig2": "2218242f64a9bbdea3ab1caa6746f55289bb31c1aaf9a824d5419d712d5eed41",
    "fig3": "827ca63f7377653d7bdf16d4b6eacbc9de1fac6c05fa1f05573c1f35d30133c6",
    "fig4": "ba07dc42ab8b4d7724c3ee0034240cb6aefcd61f8a5f37855fd7169bc5f8721e",
    "fig7": "144ee261664c4e6dc0c0bb57faef9e875efa2878e5d0d89019cfe62e9ce227ed",
    "fig8": "83eb1525fba4697f4f3e1701aff6728d22f5df65693caa8f1d6fc08ee9853a51",
    "fig9": "101ec0f2c40bb70b23b4d04d746e1a6b1d2c7d6773ff9f6bcc27abcf995c96ff",
    "fig10": "58ba9a6d3f2372b0d3703fc6bff2290c01b32293934d3f23c767273fe5feb72b",
    "fig11": "e461e89c01583b714138f3998a7cd4d5b37b38622244136639a5d6789df5f66e",
}
SIZES = {"fig2": 100}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_small_figure_bytes_match_the_recorded_digest(tmp_path, name):
    path = run_figure(
        name, seed=0, realizations=SIZES.get(name, 16), out=tmp_path / f"{name}.csv",
        timestamp=False,
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]
