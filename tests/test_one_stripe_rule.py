"""Only ``measxyz`` reads ``_STRIPE_PIXELS``: the render and analysis passes
and synth take their stripe rows from ``measxyz._stripe_step``, so every pass
cuts a frame by one rule, and a test that patches ``measxyz._STRIPE_PIXELS``
moves every stripe."""

import ast
from pathlib import Path

import measground

PACKAGE = Path(measground.__file__).resolve().parent


def stripe_pixel_reads(source: str) -> list[str]:
    """``line: form`` for each read of ``_STRIPE_PIXELS``: the bare name, an
    attribute of any module, or a name imported from one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "_STRIPE_PIXELS":
            found.append(f"{node.lineno}: _STRIPE_PIXELS")
        elif isinstance(node, ast.Attribute) and node.attr == "_STRIPE_PIXELS":
            found.append(f"{node.lineno}: ._STRIPE_PIXELS")
        elif isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name == "_STRIPE_PIXELS"]
    return found


def test_only_measxyz_reads_the_stripe_size():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        reads = stripe_pixel_reads(path.read_text(encoding="utf-8"))
        if reads and path.name != "measxyz.py":
            found[path.name] = reads
    assert found == {}
    assert stripe_pixel_reads((PACKAGE / "measxyz.py").read_text(encoding="utf-8"))


def test_the_guard_sees_each_form():
    source = "\n".join([
        "from .measxyz import _STRIPE_PIXELS, _stripe_step",
        "rows = _STRIPE_PIXELS // width",
        "rows = measxyz._STRIPE_PIXELS // width",
        "rows = _stripe_step(width)",
        "'_STRIPE_PIXELS'",
        "# _STRIPE_PIXELS",
    ])
    assert sorted(int(read.split(":")[0]) for read in stripe_pixel_reads(source)) == [1, 2, 3]
