"""Every raise in the package raises a ClusterSegError subclass or re-raises a caught one.

The CLI maps a ClusterSegError to exit code 2, and any other exception that
escapes a command prints a traceback and exits 1. A raise of another type
is listed in OTHER_RAISES with the reason it never escapes.
"""

import ast
import pathlib

from clusterseg import errors
from clusterseg.errors import ClusterSegError

PACKAGE = pathlib.Path(errors.__file__).resolve().parent

# (module, innermost enclosing function, raised class) -> why it never escapes
OTHER_RAISES = {
    ("cli", "_settings", "_BadValue"): "main catches it: a flag value the CLI rejects, exit 1",
    ("cli", "_dump", "_BadValue"): "main catches it: a flag value the CLI rejects, exit 1",
    ("cli", "parse", "ValueError"): "_pair's text parser; _settings catches it and raises "
                                    "_BadValue",
}


def _package_error(name):
    cls = getattr(errors, name, None)
    return isinstance(cls, type) and issubclass(cls, ClusterSegError)


def _raises(tree):
    """(function, raise, caught) for every raise in tree.

    function is the innermost enclosing function's name; caught holds the
    names that except clauses around the raise bind to a package error,
    and None if the innermost clause catches only package errors.
    """
    found = []

    def visit(node, function, caught):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            ours = all(isinstance(t, ast.Name) and _package_error(t.id) for t in types)
            caught = (caught - {None}) | ({None, node.name} if ours else set())
        if isinstance(node, ast.Raise):
            found.append((function, node, caught))
        for child in ast.iter_child_nodes(node):
            visit(child, function, caught)

    visit(tree, None, frozenset())
    return found


def _raised(node, caught):
    """The name of the class a raise raises, or None where it re-raises a caught package error."""
    if node.exc is None:  # a bare raise re-raises what the innermost clause caught
        return None if None in caught else "a bare raise"
    func = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(func, ast.Name):
        return None if func.id in caught else func.id
    # type(exc)(message) keeps the caught error's class
    if (isinstance(func, ast.Call) and ast.unparse(func.func) == "type"
            and isinstance(func.args[0], ast.Name) and func.args[0].id in caught):
        return None
    return ast.unparse(func)


def test_every_raise_is_a_package_error_or_listed():
    listed, stray = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for function, node, caught in _raises(ast.parse(path.read_text(encoding="utf-8"))):
            name = _raised(node, caught)
            if name is None or _package_error(name):
                continue
            if (path.stem, function, name) in OTHER_RAISES:
                listed.add((path.stem, function, name))
            else:
                stray.append(f"{path.name}:{node.lineno} in {function}: raise {name}")
    assert stray == []
    assert listed == set(OTHER_RAISES), "OTHER_RAISES lists a raise the package no longer has"


def test_the_check_sees_a_stray_raise_and_a_re_raise():
    tree = ast.parse(
        "def f(x):\n"
        "    try:\n"
        "        g(x)\n"
        "    except ShapeMismatchError as exc:\n"
        "        raise type(exc)(f'{x}: {exc}') from exc\n"
        "    except (NonFiniteError, OSError) as other:\n"
        "        raise type(other)(str(other))\n"
        "    except ValueRangeError:\n"
        "        raise\n"
        "    raise KeyError(x)\n")
    assert [(function, _raised(node, caught)) for function, node, caught in _raises(tree)] == [
        ("f", None), ("f", "type(other)"), ("f", None), ("f", "KeyError")]
