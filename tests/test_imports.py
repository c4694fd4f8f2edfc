"""Each apx module uses only the public names of the others: no module
under src/apx imports an underscore name from another apx module."""

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
