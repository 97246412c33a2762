"""The thread owns the stripe memory: ``measxyz._workspace`` is the one function
in the package that builds a ``_StripeWorkspace``, and no public function takes
a workspace, so a caller cannot hand a pass buffers of its own."""

import ast
from pathlib import Path

import measground

PACKAGE = Path(measground.__file__).resolve().parent


def workspace_builders(source: str) -> list[str]:
    """``line: function`` for each call of ``_StripeWorkspace``, bare or as an
    attribute of a module; the function is the innermost one around the call,
    or ``<module>``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == "_StripeWorkspace":
                    found.append(f"{child.lineno}: {function}")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if is_function else function)

    visit(ast.parse(source), "<module>")
    return found


def public_workspace_parameters(source: str) -> list[str]:
    """``line: function`` for each function or method with a public name that
    takes a parameter named ``workspace``, in any position."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            arguments = node.args
            names = [arg.arg for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs]
            names += [arg.arg for arg in (arguments.vararg, arguments.kwarg) if arg is not None]
            if "workspace" in names:
                found.append(f"{node.lineno}: {node.name}")
    return sorted(found, key=lambda use: int(use.split(":")[0]))


def test_only_the_thread_accessor_builds_a_workspace():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        callers = {use.split(": ")[1] for use in workspace_builders(path.read_text(encoding="utf-8"))}
        if callers:
            found[path.name] = sorted(callers)
    assert found == {"measxyz.py": ["_workspace"]}


def test_no_public_function_takes_a_workspace():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        functions = public_workspace_parameters(path.read_text(encoding="utf-8"))
        if functions:
            found[path.name] = functions
    assert found == {}


def test_the_guards_see_each_form():
    source = "\n".join([
        "workspace = _StripeWorkspace()",
        "def bracket(z, *, workspace=None):\n    return workspace or _StripeWorkspace()",
        "def _pass(z, workspace):\n    make = lambda: measxyz._StripeWorkspace()",
        "class Holder:\n    def take(self, workspace):\n        pass",
        "def render(z, **workspace):\n    def inner():\n        return _StripeWorkspace()",
        "'_StripeWorkspace()'",
        "# _StripeWorkspace()",
        "kind = _StripeWorkspace",
    ])
    assert workspace_builders(source) == ["1: <module>", "3: bracket", "5: <lambda>", "11: inner"]
    assert public_workspace_parameters(source) == ["2: bracket", "7: take", "9: render"]
