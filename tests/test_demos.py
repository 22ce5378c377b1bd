"""Every demo script imports, and the fast ones run.

Importing a demo runs its imports and module constants only; ``main``
sits behind ``if __name__ == "__main__"``.  The demos whose ``main``
finishes within about a second also run, so a stale library call fails
the suite; ``conditional_laws`` and ``hex_vs_ppp`` only import.
"""

import importlib.util
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
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
