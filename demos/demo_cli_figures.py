"""Drives the CLI figure recipes and shows the CSV artifact contract.

Each canned figure writes one CSV (fixed column set, deterministic row
order, 9 significant digits) plus a standalone matplotlib script next to
it.  This demo renders the two cheapest recipes into a scratch
directory and prints the resulting artifacts.
"""

import tempfile
from pathlib import Path

from hearability import cli


def show(path: Path, limit: int = 6) -> None:
    lines = path.read_text().splitlines()
    print(f"\n --- {path.name} ({len(lines)} lines) ---")
    for line in lines[:limit]:
        print(f"   {line}")
    if len(lines) > limit:
        print(f"   ... {len(lines) - limit} more rows")


def main() -> None:
    print("=" * 72)
    print(" CLI figure recipes and the CSV contract")
    print("=" * 72)

    scratch = Path(tempfile.mkdtemp(prefix="hearability_demo_"))
    for name in ("fig5", "fig6"):
        out = scratch / f"{name}.csv"
        rc = cli.main(["figure", name, "--out", str(out), "--no-timestamp"])
        assert rc == 0
        show(out)
        print(f"   plot script: {out.with_name(f'plot_{name}.py').name}")

    print("\n Sweeps are reproducible: the same seed and flags give a")
    print(" byte-identical file (enable the timestamp comment to tag runs).")
    print(f" Artifacts left in {scratch} for inspection.")


if __name__ == "__main__":
    main()
