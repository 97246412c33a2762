"""A record's reader and writer are built together: ``records._codec`` is the
one function in the package that takes an annotation apart with
``typing.get_args``, so no second dispatch over annotation forms can drift
from it."""

import ast
from pathlib import Path

import measground

PACKAGE = Path(measground.__file__).resolve().parent


def get_args_callers(source: str) -> list[str]:
    """``line: function`` for each call of ``get_args``, as ``typing.get_args``,
    a bare name imported from ``typing`` or an attribute of any module; the
    function is the innermost one around the call, or ``<module>``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "get_args":
                    found.append(f"{child.lineno}: {function}")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if is_function else function)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_codec_takes_annotations_apart():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        callers = {use.split(": ")[1] for use in get_args_callers(path.read_text(encoding="utf-8"))}
        if callers:
            found[path.name] = sorted(callers)
    assert found == {"records.py": ["_codec"]}


def test_the_guard_sees_each_form():
    source = "\n".join([
        "args = typing.get_args(hint)",
        "def decoder(hint):\n    return get_args(hint)",
        "class A:\n    def encoder(self, hint):\n        def inner():\n            return t.get_args(hint)",
        "items = lambda hint: typing.get_args(hint)",
        "origin = typing.get_origin(hint)",
        "'get_args'",
        "# get_args",
    ])
    assert get_args_callers(source) == ["1: <module>", "3: decoder", "7: inner", "8: <lambda>"]
