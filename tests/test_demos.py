"""Every demo script imports: the library names it uses still exist.

Importing a demo runs its imports and module constants only; ``main``
sits behind ``if __name__ == "__main__"``.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    # An empty glob would leave the parametrized test below with no cases.
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
