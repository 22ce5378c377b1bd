"""Every demo script imports, the fast ones run, and so does README's Python.

Importing a demo runs its imports and module constants only; ``main``
sits behind ``if __name__ == "__main__"``.  The demos whose ``main``
finishes within about a second also run, so a stale library call fails
the suite; ``conditional_laws`` and ``hex_vs_ppp`` only import.
"""

import importlib.util
import re
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"demo_conditional_laws", "demo_hex_vs_ppp"}
FAST = [p for p in DEMOS if p.stem not in SLOW]


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_are_found():
    # An empty glob would leave the parametrized tests below with no cases.
    assert DEMOS
    assert SLOW <= {p.stem for p in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports(path):
    assert callable(_load(path).main)


@pytest.mark.parametrize("path", FAST, ids=[p.stem for p in FAST])
def test_fast_demo_runs(path, capsys, monkeypatch, tmp_path):
    # A demo that leaves artifacts for inspection leaves them in tmp_path.
    monkeypatch.setattr(tempfile, "mkdtemp", lambda **_: str(tmp_path))
    _load(path).main()
    assert capsys.readouterr().out


# A number as printed, and as quoted in a comment, where a trailing
# "..." quotes only its leading digits.
_NUMBER = r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?"


def test_readme_python_blocks_print_what_their_comments_say(capsys):
    readme = ROOT / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert blocks
    namespace = {}
    for block in blocks:  # later blocks reuse the names of earlier ones
        exec(compile(block, str(readme), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    claims = [
        line.split("#", 1)[1]
        for block in blocks for line in block.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert len(printed) == len(claims) > 0
    for out, claim in zip(printed, claims):
        got, quoted = re.findall(_NUMBER, out), re.findall(_NUMBER + r"(?:\.\.\.)?", claim)
        assert len(got) == len(quoted), (out, claim)
        for number, quote in zip(got, quoted):
            if quote.endswith("..."):
                assert number.startswith(quote[:-3]), (out, claim)
            else:
                assert number == quote, (out, claim)
