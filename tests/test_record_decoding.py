"""Parsed JSON becomes a record only through ``records.decode``, and a record
becomes JSON only through ``records.encode``: no module defines a hand-written
``from_dict``/``from_row`` reader or ``to_dict`` writer (``CaptureRef.to_dict``,
which returns ``encode(self)``, aside), and only ``records`` reads type hints.
A number's range is declared on its field, so no ``__post_init__`` or
``validate`` calls ``math.isfinite`` (array checks with ``np.isfinite`` aside)."""

import ast
from pathlib import Path

import measground

PACKAGE = Path(measground.__file__).resolve().parent
CODEC_NAMES = {"from_dict", "from_row", "report_from_dict", "to_dict"}
CHECK_NAMES = {"__post_init__", "validate"}
ALLOWED = {("records.py", "CaptureRef", "to_dict")}


def second_codecs(source: str, module: str) -> list[str]:
    """``line: name`` for each hand-written record reader or writer defined in
    ``source``, each call of ``get_type_hints`` outside ``records.py``, and each
    call of ``math.isfinite`` inside a ``__post_init__`` or ``validate``."""
    found = []

    def visit(node, owner, checking):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child.name in CODEC_NAMES
                    and (module, owner, child.name) not in ALLOWED):
                found.append((child.lineno, f"def {child.name}"))
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "get_type_hints" and module != "records.py":
                    found.append((child.lineno, "get_type_hints"))
                receiver = getattr(func, "value", None)  # None for a bare isfinite; np.isfinite checks arrays
                if name == "isfinite" and checking and getattr(receiver, "id", "math") == "math":
                    found.append((child.lineno, f"math.isfinite in {checking}"))
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner,
                  child.name if getattr(child, "name", None) in CHECK_NAMES else checking)

    visit(ast.parse(source), None, None)
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


def test_the_guard_sees_a_finite_check_in_a_constructor_or_validate():
    source = "\n".join([
        "class A:\n    def __post_init__(self):\n        if not math.isfinite(self.x): pass",
        "class B:\n    def validate(self):\n        ok = isfinite(self.x)",
        "class C:\n    def __post_init__(self):\n        ok = np.isfinite(self.a).all()",
        "def helper(x):\n    return math.isfinite(x)",
        "class D:\n    def validate(self):\n        def inner(v):\n            return math.isfinite(v)",
    ])
    assert second_codecs(source, "capture.py") == [
        "3: math.isfinite in __post_init__", "6: math.isfinite in validate", "15: math.isfinite in validate"]
