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


def test_only_algebra_builds_monomials_from_fields():
    # the (j, r, i, m0) encoding is private to algebra.py; other modules
    # build monomials from words through Monomial.from_word
    found = [f"{path.name}:{node.lineno}" for path in sorted(LIBRARY.glob("*.py"))
             if path.name != "algebra.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Monomial"]
    assert found == []
