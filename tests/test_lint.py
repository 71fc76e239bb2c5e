import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "qadic"


def test_library_code_has_no_assert():
    # an assert vanishes under python -O; library checks raise typed errors
    files = sorted(LIBRARY.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
