"""The mutation ledger stays applicable: every snippet occurs exactly once
in its file, under src/apx or in a reference module under tests, every
test it names is defined, and every mutated file compiles.  The kill run
itself is ``python3 mutants/run.py``."""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "mutants"))

from ledger import MUTANTS  # noqa: E402


def test_every_snippet_occurs_once_in_its_file():
    assert MUTANTS
    for mutant in MUTANTS:
        assert mutant.file.startswith(("src/apx/", "tests/")), mutant.name
        text = (ROOT / mutant.file).read_text()
        assert text.count(mutant.snippet) == 1, mutant.name
        assert mutant.replacement != mutant.snippet, mutant.name


def test_every_named_test_is_defined():
    for mutant in MUTANTS:
        assert mutant.tests, mutant.name
        for node in mutant.tests:
            path, _, name = node.partition("::")
            function = name.split("[", 1)[0]
            source = (ROOT / path).read_text()
            assert re.search(rf"^def {function}\(", source, re.M), node


def test_every_mutant_compiles():
    # A mutant whose file does not compile would stop its tests from
    # being collected: ``mutants/run.py`` reports it as broken, never as
    # killed, so the ledger holds none.
    for mutant in MUTANTS:
        text = (ROOT / mutant.file).read_text()
        compile(text.replace(mutant.snippet, mutant.replacement), mutant.file, "exec")
