"""Every public top-level function and class in the package is either used by
the package's own code or exported from ``measground``: a public name that
only its tests reach is a second path the pipeline no longer runs."""

import ast
from pathlib import Path

import measground

PACKAGE = Path(measground.__file__).resolve().parent


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name


def _referenced_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_name_has_a_caller_or_is_exported():
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined.update((name, path.name) for name in _public_definitions(tree))
        referenced.update(_referenced_names(tree))
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in referenced and name not in measground.__all__)
    assert unused == []
