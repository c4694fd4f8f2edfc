"""Each apx module uses only the public names of the others: no module
under src/apx imports an underscore name from another apx module.  And
each exception subtype is told apart somewhere: an except clause under
src/apx names it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "apx"


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "apx":
                found += [
                    f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []


def test_every_exception_subtype_is_caught_by_name():
    # A subtype that no except clause names says no more than a plain
    # ApxError with the same message.
    errors = ast.parse((SRC / "errors.py").read_text())
    subtypes = {n.name for n in errors.body if isinstance(n, ast.ClassDef)} - {"ApxError"}
    caught = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {n.id for n in named if isinstance(n, ast.Name)}
    assert subtypes, "apx.errors defines no subtype"
    assert sorted(subtypes - caught) == []
