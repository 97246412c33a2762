"""A record is built without ``__init__`` one way: ``records._adopt`` is the
one function in the package that calls ``object.__new__``, so no second
constructor can skip the checks a record's ``_freeze`` makes."""

import ast
from pathlib import Path

import measground

PACKAGE = Path(measground.__file__).resolve().parent


def object_new_callers(source: str) -> list[str]:
    """``line: function`` for each call of ``object.__new__``; the function is the
    innermost one around the call, or ``<module>``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute) and func.attr == "__new__"
                        and isinstance(func.value, ast.Name) and func.value.id == "object"):
                    found.append(f"{child.lineno}: {function}")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if is_function else function)

    visit(ast.parse(source), "<module>")
    return found


def test_only_adopt_builds_a_record_without_init():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        callers = {use.split(": ")[1] for use in object_new_callers(path.read_text(encoding="utf-8"))}
        if callers:
            found[path.name] = sorted(callers)
    assert found == {"records.py": ["_adopt"]}


def test_the_guard_sees_each_form():
    source = "\n".join([
        "image = object.__new__(MeasXyzImage)",
        "def adopt(cls):\n    return object.__new__(cls)",
        "class A:\n    @classmethod\n    def _adopt(cls):\n        def inner():\n            return object.__new__(cls)",
        "make = lambda cls: object.__new__(cls)",
        "other = type.__new__(Meta, 'B', (), {})",
        "'object.__new__'",
        "# object.__new__(cls)",
    ])
    assert object_new_callers(source) == ["1: <module>", "3: adopt", "8: inner", "9: <lambda>"]
