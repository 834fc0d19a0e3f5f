"""No control flow in ``assert`` under ``src/``.

``python -O`` strips ``assert`` statements, so a check written as one
silently stops running and the program's behaviour depends on how the
interpreter was started.  Library code raises explicit exceptions.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend(f"{path.relative_to(SRC)}:{node.lineno}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert not found, f"assert statements in src/: {found}"
