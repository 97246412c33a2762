"""Only ``remote`` calls remote services: every other module of the package
hands its request to ``remote.post_json`` and its retries to
``remote.with_retries``, so there is one place that imports requests and one
retry policy."""

import ast
from pathlib import Path

import measground

PACKAGE = Path(measground.__file__).resolve().parent
RETRYABLE = {"AnnotatorUnavailable", "JudgeUnavailable"}


def _names(node) -> set[str]:
    """The class names an ``except`` clause's type expression mentions."""
    if node is None:
        return set()
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def remote_calls(source: str) -> list[str]:
    """``line: what`` for each import of requests and each ``except`` that
    catches a retryable unavailability in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "requests" for alias in node.names):
                found.append(f"{node.lineno}: import requests")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "requests":
                found.append(f"{node.lineno}: from requests")
        elif isinstance(node, ast.ExceptHandler):
            caught = _names(node.type) & RETRYABLE
            if caught:
                found.append(f"{node.lineno}: except {', '.join(sorted(caught))}")
    return found


def test_only_remote_calls_remote_services():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "remote.py":
            calls = remote_calls(path.read_text(encoding="utf-8"))
            if calls:
                found[path.name] = calls
    assert found == {}


def test_the_guard_sees_each_kind_of_remote_call():
    source = "\n".join([
        "import requests",
        "import requests.adapters as adapters",
        "from requests import post",
        "from requests.exceptions import Timeout",
        "try:\n    pass\nexcept AnnotatorUnavailable:\n    pass",
        "try:\n    pass\nexcept (ValueError, errors.JudgeUnavailable) as exc:\n    pass",
        "import json",
        "from .errors import AnnotatorUnavailable",
        "try:\n    pass\nexcept MalformedResponse:\n    pass",
    ])
    assert [line.split(":")[0] for line in remote_calls(source)] == ["1", "2", "3", "4", "7", "11"]
