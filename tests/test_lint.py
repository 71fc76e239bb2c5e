import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "qadic"
TESTS = Path(__file__).resolve().parent


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


def test_only_algebra_reads_the_coefficient_format():
    # exact coefficients are private to algebra.py: other modules build them
    # through Element.scalar and compare them as elements
    found = [f"{path.name}:{node.lineno}" for path in sorted(LIBRARY.glob("*.py"))
             if path.name != "algebra.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if getattr(node, "id", getattr(node, "name", None)) == "RationalComplex"
             or isinstance(node, ast.Attribute) and node.attr in ("RationalComplex", "re", "im")]
    assert found == []


def _names(node):
    """The class names an exception expression or handler type refers to."""
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in _names(elt)}
    if isinstance(node, ast.Call):
        return _names(node.func)
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def test_every_error_type_is_raised_or_caught():
    # an error class that nothing raises or catches is dead code
    errors = ast.parse((LIBRARY / "errors.py").read_text())
    declared = {node.name for node in errors.body
                if isinstance(node, ast.ClassDef) and node.name != "QadicError"}
    used = set()
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used |= _names(node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used |= _names(node.type)
    assert declared and sorted(declared - used) == []


def test_every_budget_has_a_test():
    # a MAX_* budget that no test names can drift or break unseen
    budgets = [(path.name, target.id) for path in sorted(LIBRARY.glob("*.py"))
               for node in ast.parse(path.read_text()).body if isinstance(node, ast.Assign)
               for target in node.targets
               if isinstance(target, ast.Name) and target.id.startswith("MAX_")]
    tests = "\n".join(path.read_text() for path in sorted(TESTS.rglob("*.py")))
    assert budgets and [f"{name}:{budget}" for name, budget in budgets if budget not in tests] == []


def test_every_definition_is_referenced():
    # a function, method or class that nothing names is dead code
    defined = {(path.name, node.name) for path in sorted(LIBRARY.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    used = set()
    for path in sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    assert defined and sorted(f"{f}:{name}" for f, name in defined if name not in used) == []


def test_no_unused_import():
    # an import that nothing names is left behind by a deletion; a name
    # listed in __all__ is re-exported, so it counts as used
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {elt.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                 for elt in node.value.elts}
        found += [f"{path.name}:{line}:{name}" for name, line in imported.items()
                  if name not in used]
    assert found == []


EXACT_LAYER = ("numbers.py", "algebra.py", "wold.py")


def _imported_names(path):
    """Every dotted part of every module or name an import statement names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            parts = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            names.update(part for dotted in parts for part in dotted.split(".") if part)
    return names


def test_package_init_and_exact_layer_import_no_numeric_code():
    # `import qadic` loads no submodule, and the pure-Python exact layer
    # reaches neither numpy nor the numeric modules
    init = ast.parse((LIBRARY / "__init__.py").read_text())
    assert [node.lineno for node in ast.walk(init)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []
    found = {name: sorted(_imported_names(LIBRARY / name) & {"numpy", "grid", "bimodule", "cli"})
             for name in EXACT_LAYER}
    assert found == dict.fromkeys(EXACT_LAYER, [])


def test_exact_layer_loads_without_numpy():
    code = "import sys, qadic.numbers, qadic.algebra, qadic.wold; print('numpy' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(LIBRARY.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"
