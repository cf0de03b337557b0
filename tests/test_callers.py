"""No function without a caller: every top-level function and class of
src/mkglab must be referenced somewhere a program path can reach it.

A reference is a Name, an Attribute or a `from ... import` of the name in
src/mkglab (outside the definition itself, and not the re-exports of
__init__.py), demos/ or bench/.  Tests do not count: code that only tests
call belongs in tests/.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mkglab"


def _references(node: ast.AST) -> set[str]:
    """Every name node refers to by a Name, an Attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def uncalled(package: Path, callers: list[Path]) -> list[str]:
    """module.name of each top-level function or class in package that no
    other top-level statement of package, nor any file in callers, names."""
    defs, used_by = [], []          # (module, name, node); (node, names)
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.stem, node.name, node))
            used_by.append((node, _references(node)))
    outside = set()
    for path in callers:
        outside |= _references(ast.parse(path.read_text()))
    return [f"{module}.{name}" for module, name, node in defs
            if name not in outside
            and not any(name in names for other, names in used_by
                        if other is not node)]


def test_every_function_and_class_has_a_caller():
    callers = sorted((ROOT / "demos").glob("*.py")) \
        + sorted((ROOT / "bench").glob("*.py"))
    assert callers
    missing = uncalled(PACKAGE, callers)
    assert not missing, f"no caller in src/mkglab, demos/ or bench/: {missing}"
