"""Apply every mutant of the ledger to a copy of the tree and run its
tests; report each mutant as killed or survived.

    python3 mutants/run.py [SUBSTRING ...]

Run from the root of a source checkout.  With arguments, only the
mutants whose names contain one of them run.  Each mutant gets a fresh
temporary copy of ``src``, ``tests`` and ``pyproject.toml``, so the
checkout is never edited.  A mutant whose edit stops a test file from
being collected, say because the mutated module no longer imports, is
reported as BROKEN: its tests never ran, so it is neither killed nor
survived.  Exits 0 when every mutant that ran is killed, 1 otherwise.
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


def failed_tests(tree: Path, tests) -> set[str] | None:
    """The node ids among ``tests`` that fail or error in ``tree``, or
    None when pytest could not run them: a test file or ``conftest.py``
    failed to collect, as when the mutated module no longer imports.
    pytest then exits 2 or 4 and names the file, not the test."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        return None
    failed = set()
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR"):
            failed.add(rest.split(" - ", 1)[0])
    return failed


def run(mutant) -> str:
    """Apply ``mutant`` to a fresh copy of the tree and run its tests:
    "killed", "survived" or "broken"."""
    with tempfile.TemporaryDirectory(prefix="apx-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        apply(tree, mutant)
        failed = failed_tests(tree, mutant.tests)
    if failed is None:
        print(f"BROKEN    {mutant.name}: its tests could not be collected")
        return "broken"
    survivors = set(mutant.tests) - failed
    if survivors:
        print(f"SURVIVED  {mutant.name}: passing {sorted(survivors)}")
        return "survived"
    print(f"killed    {mutant.name}")
    return "killed"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m.name for a in argv)]
    results = [run(m) for m in chosen]
    killed, broken = results.count("killed"), results.count("broken")
    print(f"{killed} of {len(results)} mutants killed" + (f", {broken} broken" if broken else ""))
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
