"""Apply every mutant of the ledger to a copy of the tree and run its
tests; report each mutant as killed or survived.

    python3 mutants/run.py [SUBSTRING ...]

Run from the root of a source checkout.  With arguments, only the
mutants whose names contain one of them run.  Each mutant gets a fresh
temporary copy of ``src``, ``tests`` and ``pyproject.toml``, so the
checkout is never edited.  Exits 0 when every mutant that ran is killed,
1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from ledger import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def apply(tree: Path, mutant) -> None:
    path = tree / mutant.file
    text = path.read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        raise SystemExit(f"{mutant.name}: snippet occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def failed_tests(tree: Path, tests) -> set[str]:
    """The node ids among ``tests`` that fail or error in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = set()
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR"):
            failed.add(rest.split(" - ", 1)[0])
    return failed


def run(mutant) -> bool:
    with tempfile.TemporaryDirectory(prefix="apx-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        apply(tree, mutant)
        survivors = set(mutant.tests) - failed_tests(tree, mutant.tests)
    if survivors:
        print(f"SURVIVED  {mutant.name}: passing {sorted(survivors)}")
    else:
        print(f"killed    {mutant.name}")
    return not survivors


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m.name for a in argv)]
    results = [run(m) for m in chosen]
    print(f"{sum(results)} of {len(results)} mutants killed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
