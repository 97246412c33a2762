"""Parsed JSON becomes a record only through ``records.decode``: no module
defines a hand-written ``from_dict``/``from_row`` reader, and only ``records``
reads type hints."""

import ast
from pathlib import Path

import measground

PACKAGE = Path(measground.__file__).resolve().parent
READER_NAMES = {"from_dict", "from_row", "report_from_dict"}


def second_decoders(source: str, module: str) -> list[str]:
    """``line: name`` for each hand-written record reader defined in ``source``, and
    each call of ``get_type_hints`` outside ``records.py``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in READER_NAMES:
            found.append((node.lineno, f"def {node.name}"))
        elif isinstance(node, ast.Call) and module != "records.py":
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "get_type_hints":
                found.append((node.lineno, "get_type_hints"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_records_decode_is_the_one_decoder():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        readers = second_decoders(path.read_text(encoding="utf-8"), path.name)
        if readers:
            found[path.name] = readers
    assert found == {}


def test_the_guard_sees_each_kind_of_second_decoder():
    source = "\n".join([
        "class A:\n    @classmethod\n    def from_dict(cls, obj): pass",
        "def from_row(row): pass",
        "def report_from_dict(obj): pass",
        "hints = typing.get_type_hints(A)",
        "hints = get_type_hints(A)",
        "def to_dict(self): pass",
    ])
    assert second_decoders(source, "capture.py") == [
        "3: def from_dict", "4: def from_row", "5: def report_from_dict",
        "6: get_type_hints", "7: get_type_hints"]
    assert second_decoders(source, "records.py") == [
        "3: def from_dict", "4: def from_row", "5: def report_from_dict"]
