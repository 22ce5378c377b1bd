"""Byte-identity guard: small figure and subcommand CSVs against SHA-256 digests.

A recipe's or a subcommand's CSV is a function of the code and the seed
alone, so a change that keeps every number keeps these digests.  A
deliberate, announced change of the numbers (a new RNG contract, say)
records new digests in the same change.  The digests were recorded with
numpy 2.4 and Python 3.11; each run takes well under a second at this
size.  fig2 runs E911 trials rather than realizations and needs at
least 100 of them; fig5 and fig6 draw no sample, so they run with
``realizations=None``.
"""

import hashlib

import pytest

from hearability.cli import main, run_figure

# sha256 of run_figure(name, seed=0, realizations=SIZES.get(name, 16),
# timestamp=False).
DIGESTS = {
    "fig2": "0e34df104ca23d69409182a5c5769b161cc528d4370000012db0b2027d286cfb",
    "fig3": "9130fe5e9b37517aa08b9d10a4aca6d78aa399035494b274095b0f32e9e0f17d",
    "fig4": "ea8ebeecfd299702448a56577ba3f4624c9afad943b0ec9d5730fe2ad92e58af",
    "fig5": "f69c56f99730e33452347d2706a38f211e1e69c068b439143630ecc034fbab2e",
    "fig6": "424736cf5b18a044a6719d62b74ef6f96aac99215d84f3e720b06abc29e01e21",
    "fig7": "fe886473b37352d97a939b6d79e4a322612493a9d1dc8837ea3ffabd122cfa9c",
    "fig8": "7ee076eddb3b044f58dbc6c853380d840bbd21e49478023fd31499f057779a95",
    "fig9": "ff27d56390191ba7d23b3d8ac6ac3405eed971d037bf62bd196dcea7a1324ac0",
    "fig10": "413db70b021d20446f286fa682ac271bf3c985be7f53b122c3621b07f181a3c7",
    "fig11": "e603fafdbd22e10839a318dac9b69301743e994b9400961d63b6293c1d07bb01",
}
SIZES = {"fig2": 100, "fig5": None, "fig6": None}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_small_figure_bytes_match_the_recorded_digest(tmp_path, name):
    path = run_figure(
        name, seed=0, realizations=SIZES.get(name, 16), out=tmp_path / f"{name}.csv",
        timestamp=False,
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]


# sha256 of the CSV of main([*argv, "--seed", "0", "--no-timestamp", "--out", ...]).
COMMAND_DIGESTS = {
    "analytic": (
        ["analytic"],
        "3df75ad84a876afbae835d6643fd3a96872dfa47514b9fea2aa5bc8a7f684f4b",
    ),
    "analytic-integrals": (
        ["analytic", "--methods", "DoubleIntegral,SingleIntegralGeneral", "--alpha", "3.5",
         "--p", "0.6666666666666666", "--l", "6", "--bg-step-db", "0.5"],
        "a9d2f5d014a549bb9eff57f21685bae443890fd9f7449b4b3492a33a99103def",
    ),
    "simulate": (
        ["simulate", "--methods", "MonteCarloJoint,MonteCarloLastBs,SingleIntegralAlpha4",
         "--realizations", "16"],
        "fc4a85cd63e60730b33a99ed3bb89643d28ff8e6c520d81217f70a5df261c9a8",
    ),
    "reuse": (
        ["reuse", "--mc", "--realizations", "16", "--l", "6"],
        "d3d0dd03af40445ca5f54abadaafe251080eb4d6f22db30280ddd2466681f787",
    ),
    "hexgrid": (
        ["hexgrid", "--p", "0.5", "--q", "0.75", "--realizations", "16"],
        "9b59486cb7c54e8901567787cfe22433a2ad04d3daa1de6970a04d9d267e56b6",
    ),
    "e911": (
        ["e911", "--trials", "100", "--grid", "4,5"],
        "ce0db924d9ad6b1a2809e56cd4c6486ae0a2418adee4fe6e4e9e91491ecd57fc",
    ),
}


@pytest.mark.parametrize("name", sorted(COMMAND_DIGESTS))
def test_small_subcommand_bytes_match_the_recorded_digest(tmp_path, name):
    argv, digest = COMMAND_DIGESTS[name]
    out = tmp_path / f"{name}.csv"
    assert main([*argv, "--seed", "0", "--no-timestamp", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
