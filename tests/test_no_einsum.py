"""No module of the package calls ``einsum``: every 3x3 product goes through
``measxyz._apply_matrix``, which computes einsum's sums in einsum's order,
so there is one matrix kernel and ``tests/test_numeric_core.py`` pins it
against einsum bit for bit."""

import ast
from pathlib import Path

import measground

PACKAGE = Path(measground.__file__).resolve().parent


def einsum_uses(source: str) -> list[str]:
    """``line: name`` for each ``einsum`` the source reaches: an attribute of any
    module (``np.einsum``, ``numpy.einsum``) or a name imported from one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "einsum":
            found.append(f"{node.lineno}: .einsum")
        elif isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name == "einsum"]
    return found


def test_no_module_calls_einsum():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        uses = einsum_uses(path.read_text(encoding="utf-8"))
        if uses:
            found[path.name] = uses
    assert found == {}


def test_the_guard_sees_each_form():
    source = "\n".join([
        "np.einsum('ij,hwj->hwi', m, x)",
        "numpy.einsum('ij,hwj->hwi', m, x, out=y)",
        "from numpy import einsum",
        "product = np.einsum",
        "np.matmul(x, m.T)",
        "'einsum'",
        "# np.einsum",
    ])
    assert sorted(int(use.split(":")[0]) for use in einsum_uses(source)) == [1, 2, 3, 4]
