"""Parsed JSON becomes a record only through ``records.decode``, and a record
becomes JSON only through ``records.encode``: no module defines a hand-written
``from_dict``/``from_row`` reader or ``to_dict`` writer (``CaptureRef.to_dict``,
which returns ``encode(self)``, aside), and only ``records`` reads type hints."""

import ast
from pathlib import Path

import measground

PACKAGE = Path(measground.__file__).resolve().parent
CODEC_NAMES = {"from_dict", "from_row", "report_from_dict", "to_dict"}
ALLOWED = {("records.py", "CaptureRef", "to_dict")}


def second_codecs(source: str, module: str) -> list[str]:
    """``line: name`` for each hand-written record reader or writer defined in
    ``source``, and each call of ``get_type_hints`` outside ``records.py``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child.name in CODEC_NAMES
                    and (module, owner, child.name) not in ALLOWED):
                found.append((child.lineno, f"def {child.name}"))
            elif isinstance(child, ast.Call) and module != "records.py":
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "get_type_hints":
                    found.append((child.lineno, "get_type_hints"))
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(ast.parse(source), None)
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_records_decode_is_the_one_decoder():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        codecs = second_codecs(path.read_text(encoding="utf-8"), path.name)
        if codecs:
            found[path.name] = codecs
    assert found == {}


def test_the_guard_sees_each_kind_of_second_decoder():
    source = "\n".join([
        "class A:\n    @classmethod\n    def from_dict(cls, obj): pass",
        "def from_row(row): pass",
        "def report_from_dict(obj): pass",
        "hints = typing.get_type_hints(A)",
        "hints = get_type_hints(A)",
        "class CaptureRef:\n    def to_dict(self): return encode(self)",
        "class B:\n    def to_dict(self): pass",
    ])
    assert second_codecs(source, "capture.py") == [
        "3: def from_dict", "4: def from_row", "5: def report_from_dict",
        "6: get_type_hints", "7: get_type_hints", "9: def to_dict", "11: def to_dict"]
    assert second_codecs(source, "records.py") == [
        "3: def from_dict", "4: def from_row", "5: def report_from_dict", "11: def to_dict"]
