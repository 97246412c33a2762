"""Only ``isp`` knows how a stripe is rendered: the bracket, the single render
and the lost-signal analysis are sinks of ``isp._render_pass``, and no other
module names the window protocol that turns a stripe's product into codes."""

import ast
from pathlib import Path

import measground

PACKAGE = Path(measground.__file__).resolve().parent
WINDOW_NAMES = {"_window_codes", "_windows", "_window_table", "_Window"}


def window_names(source: str) -> list[str]:
    """``line: form`` for each use of a window name: the bare name, an
    attribute of any module, or a name imported from one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in WINDOW_NAMES:
            found.append(f"{node.lineno}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in WINDOW_NAMES:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name in WINDOW_NAMES]
    return found


def test_only_isp_names_the_window_protocol():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = window_names(path.read_text(encoding="utf-8"))
        if names and path.name != "isp.py":
            found[path.name] = names
    assert found == {}
    assert window_names((PACKAGE / "isp.py").read_text(encoding="utf-8"))


def test_the_guard_sees_each_form():
    source = "\n".join([
        "from .isp import _window_codes, _render_pass",
        "windows = _windows(params)",
        "table = isp._window_table(8, transfer, 0, 0)",
        "from .isp import _Window as Window",
        "_render_pass(z, params, sinks)",
        "'_window_codes'",
        "# _windows",
    ])
    assert sorted(int(use.split(":")[0]) for use in window_names(source)) == [1, 2, 3, 4]
