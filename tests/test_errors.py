"""Every failure the package raises is a typed WeilbcError (exit code 2 at the CLI)."""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weilbc"
# Python protocols, not failures: a failed operand coercion is a TypeError, and
# setting an attribute of an immutable object is an AttributeError
PROTOCOL = {("_coerce", "TypeError"), ("__setattr__", "AttributeError")}


def builtin_raises(source: str) -> list:
    """(enclosing function, exception name, line) of each raise of a builtin exception class."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                obj = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
                if isinstance(obj, type) and issubclass(obj, BaseException):
                    found.append((func, exc.id, child.lineno))
            is_func = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_func else func)

    visit(ast.parse(source), None)
    return found


def test_detector_flags_builtin_raises_only():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('bad')\n"
        "    def g():\n"
        "        raise KeyError\n"
        "    raise ConfigInvalid('typed') from None\n"
    )
    assert builtin_raises(source) == [("f", "ValueError", 3), ("g", "KeyError", 5)]


def test_src_raises_only_typed_errors():
    offenders = [
        f"{path.name}:{line} {func} raises {name}"
        for path in sorted(SRC.glob("*.py"))
        for func, name, line in builtin_raises(path.read_text())
        if (func, name) not in PROTOCOL
    ]
    assert offenders == []
