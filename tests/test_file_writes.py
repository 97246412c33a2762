"""Only ``formats`` writes files: every other module of the package hands its
artifact to a ``formats`` writer, so there is one place that opens a file for
writing and turns its OSError into IoFailure."""

import ast
from pathlib import Path

import measground

PACKAGE = Path(measground.__file__).resolve().parent
WRITE_METHODS = {"write_text", "write_bytes"}


def _mode(call: ast.Call, position: int):
    """The mode argument of an ``open`` call: a string constant, or None when it is not one."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value.value if isinstance(keyword.value, ast.Constant) else None
    if len(call.args) > position:
        arg = call.args[position]
        return arg.value if isinstance(arg, ast.Constant) else None
    return "r"


def direct_writes(source: str) -> list[str]:
    """``line: call`` for each file write in ``source`` that bypasses ``formats``:
    ``.write_text``/``.write_bytes`` on anything but the ``formats`` module, and
    ``open``/``.open`` with a mode that writes, appends or creates (or one that
    is not a literal)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in WRITE_METHODS:
            if not (isinstance(func.value, ast.Name) and func.value.id == "formats"):
                found.append(f"{node.lineno}: .{func.attr}")
        elif isinstance(func, ast.Name) and func.id == "open" or \
                isinstance(func, ast.Attribute) and func.attr == "open":
            # builtin open(path, mode), Path.open(mode)
            mode = _mode(node, 1 if isinstance(func, ast.Name) else 0)
            if not isinstance(mode, str) or set(mode) & set("wax+"):
                found.append(f"{node.lineno}: open mode {mode!r}")
    return found


def test_only_formats_writes_files():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "formats.py":
            writes = direct_writes(path.read_text(encoding="utf-8"))
            if writes:
                found[path.name] = writes
    assert found == {}


def test_the_guard_sees_each_kind_of_write():
    source = "\n".join([
        "(out / 'a').write_text(text)",
        "Path(p).write_bytes(b)",
        "open(p, 'w')",
        "open(p, mode='ab')",
        "Path(p).open('x')",
        "open(p, 'r+b')",
        "open(p, mode)",
        "formats.write_text(p, text)",
        "open(p)",
        "open(p, 'rb')",
        "Path(p).open(encoding='utf-8')",
    ])
    assert [line.split(":")[0] for line in direct_writes(source)] == [str(n) for n in range(1, 8)]
