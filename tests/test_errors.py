"""Every failure the package raises is a typed WeilbcError (exit code 2 at the CLI)."""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weilbc"
# Python protocols, not failures: a failed operand coercion is a TypeError, and
# setting an attribute of an immutable object is an AttributeError
PROTOCOL = {("_coerce", "TypeError"), ("__setattr__", "AttributeError")}
# groups own their memos (elements, partitions, norms) and a Weil context keeps no
# step memo, only per-context tables: no caller hands one in or sets what one admits
CACHE_PARAMS = {"cache", "part_cache", "keep"}


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


def cache_params(source: str) -> list:
    """(function, parameter) of each function parameter named in CACHE_PARAMS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                if arg is not None and arg.arg in CACHE_PARAMS:
                    found.append((getattr(node, "name", "<lambda>"), arg.arg))
    return found


def test_detector_flags_cache_parameters_only():
    source = (
        "def f(x, cache=None):\n"
        "    g = lambda *, part_cache: part_cache\n"
        "    def h(**cache):\n"
        "        return self.cache\n"
        "def k(caches, memo): pass\n"
    )
    assert sorted(cache_params(source)) == [("<lambda>", "part_cache"), ("f", "cache"), ("h", "cache")]


def test_src_functions_take_no_cache_parameter():
    offenders = [
        f"{path.name}: {func}({name})"
        for path in sorted(SRC.glob("*.py"))
        for func, name in cache_params(path.read_text())
    ]
    assert offenders == []
