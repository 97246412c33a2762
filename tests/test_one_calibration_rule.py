"""One calibration rule: ``capture.Sidecar.__post_init__`` decides what a valid
calibration is, so no other code takes a camera matrix's determinant or refuses
a white, and a capture built without ``__init__`` takes its calibration from a
``Sidecar``, which has passed the rule."""

import ast
from pathlib import Path

import measground

PACKAGE = Path(measground.__file__).resolve().parent
RULE = "Sidecar.__post_init__"
RULE_NAMES = {"DegenerateCalibration", "MIN_CAM_TO_XYZ_DET"}


def _name(node) -> str | None:
    """The name a Name holds, or an Attribute's last one."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _passes_vars(call: ast.Call) -> bool:
    return any(kw.arg is None and isinstance(kw.value, ast.Call) and _name(kw.value.func) == "vars"
               for kw in call.keywords)


def calibration_checks(source: str) -> list[str]:
    """``line: form in scope`` for each numpy determinant (``linalg.det``, or ``det``
    imported from a ``linalg``), each read of a name in RULE_NAMES, and each
    ``_adopt(RawCapture, ...)`` that does not pass ``**vars(...)``. The scope is
    the dotted class and function names around it, or ``<module>``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            where = ".".join(scope) or "<module>"
            if isinstance(child, ast.Attribute) and child.attr == "det" and _name(child.value) == "linalg":
                found.append(f"{child.lineno}: linalg.det in {where}")
            elif isinstance(child, ast.ImportFrom) and (child.module or "").endswith("linalg"):
                found.extend(f"{child.lineno}: linalg.det in {where}" for alias in child.names if alias.name == "det")
            elif (_name(child) in RULE_NAMES and isinstance(child, (ast.Name, ast.Attribute))
                  and isinstance(child.ctx, ast.Load)):
                found.append(f"{child.lineno}: {_name(child)} in {where}")
            elif (isinstance(child, ast.Call) and _name(child.func) == "_adopt" and child.args
                  and _name(child.args[0]) == "RawCapture" and not _passes_vars(child)):
                found.append(f"{child.lineno}: _adopt(RawCapture) without **vars in {where}")
            is_scope = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, (*scope, child.name) if is_scope else scope)

    visit(ast.parse(source), ())
    return found


def test_only_the_sidecar_rule_checks_a_calibration():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        checks = calibration_checks(path.read_text(encoding="utf-8"))
        if checks:
            found[path.name] = sorted({check.split(": ", 1)[1] for check in checks})
    assert found == {"capture.py": [f"DegenerateCalibration in {RULE}", f"MIN_CAM_TO_XYZ_DET in {RULE}"]}


def test_the_guard_sees_each_form():
    source = "\n".join([
        "d = np.linalg.det(m)",
        "from numpy.linalg import det",
        "d = linalg.det(m)",
        "raise DegenerateCalibration('x')",
        "raise errors.DegenerateCalibration('x')",
        "ok = d > capture.MIN_CAM_TO_XYZ_DET",
        "c = _adopt(RawCapture, mosaic=m, **fields)",
        "c = records._adopt(RawCapture, capture_id='c', mosaic=m)",
        "class Sidecar:\n    def __post_init__(self):\n        if not d > MIN_CAM_TO_XYZ_DET:\n"
        "            raise DegenerateCalibration('x')",
        "MIN_CAM_TO_XYZ_DET = 1e-9",
        "class DegenerateCalibration(MeasgroundError): pass",
        "from .errors import DegenerateCalibration",
        "c = _adopt(RawCapture, mosaic=m, **vars(sidecar))",
        "image = _adopt(MeasXyzImage, data=d)",
        "d = np.linalg.inv(m)",
        "'np.linalg.det(m)'",
        "# raise DegenerateCalibration('x')",
    ])
    assert calibration_checks(source) == [
        "1: linalg.det in <module>", "2: linalg.det in <module>", "3: linalg.det in <module>",
        "4: DegenerateCalibration in <module>", "5: DegenerateCalibration in <module>",
        "6: MIN_CAM_TO_XYZ_DET in <module>", "7: _adopt(RawCapture) without **vars in <module>",
        "8: _adopt(RawCapture) without **vars in <module>", f"11: MIN_CAM_TO_XYZ_DET in {RULE}",
        f"12: DegenerateCalibration in {RULE}",
    ]
