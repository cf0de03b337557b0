"""No function without a caller: every top-level function and class of
src/mkglab, and every method of its top-level classes, must be referenced
somewhere a program path can reach it.

A reference is a Name, an Attribute or a `from ... import` of the name in
src/mkglab (outside the definition itself, and not the re-exports of
__init__.py), demos/ or bench/.  Dunder methods are called by Python
itself and are not checked.  Tests do not count: code that only tests
call belongs in tests/.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mkglab"


def _references(node: ast.AST) -> Counter:
    """How often node refers to each name by a Name, an Attribute or an
    import."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of each top-level function and class of
    a module, and of each non-dunder method of its top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not (sub.name.startswith("__")
                                 and sub.name.endswith("__"))):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def uncalled(package: Path, callers: list[Path]) -> list[str]:
    """module.name of each top-level function or class in package, and
    module.Class.method of each method checked, that package names nowhere
    outside its own definition and no file in callers names."""
    defs, in_package = [], Counter()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        in_package += _references(tree)
        defs += [(path.stem, *d) for d in _definitions(tree)]
    outside = Counter()
    for path in callers:
        outside += _references(ast.parse(path.read_text()))
    return [f"{module}.{qualname}" for module, qualname, name, node in defs
            if not outside[name]
            and in_package[name] <= _references(node)[name]]


def test_every_function_and_class_has_a_caller():
    callers = sorted((ROOT / "demos").glob("*.py")) \
        + sorted((ROOT / "bench").glob("*.py"))
    assert callers
    missing = uncalled(PACKAGE, callers)
    assert not missing, f"no caller in src/mkglab, demos/ or bench/: {missing}"
