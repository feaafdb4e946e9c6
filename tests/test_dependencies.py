"""``src/repro`` imports only what ``pyproject.toml`` declares.

The package depends on numpy alone. Every ``import`` statement under
``src/repro`` (function-local ones included) must name the standard
library, ``numpy`` or ``repro`` itself, so a clean install with only the
declared dependencies imports every module.
"""

import ast
import importlib.util
import pathlib
import sys
import sysconfig

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
DECLARED = {"numpy", "repro"}


def _is_stdlib(name):
    """Whether top-level module ``name`` ships with the interpreter.

    Python 3.9 has no ``sys.stdlib_module_names``, so this asks where
    the module would load from: built in, frozen, or a file under the
    interpreter's standard-library directory outside ``site-packages``.
    """
    if name in sys.builtin_module_names:
        return True
    spec = importlib.util.find_spec(name)
    if spec is None or spec.origin is None:
        return False
    if spec.origin in ("built-in", "frozen"):
        return True
    stdlib = pathlib.Path(sysconfig.get_paths()["stdlib"]).resolve()
    origin = pathlib.Path(spec.origin).resolve()
    return (stdlib in origin.parents
            and not {"site-packages", "dist-packages"} & set(origin.parts))


def _imported_names(path):
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_stdlib_check_tells_stdlib_from_third_party():
    for name in ("os", "sys", "json", "math", "collections", "importlib"):
        assert _is_stdlib(name), name
    for name in ("numpy", "pytest", "no_such_module_here"):
        assert not _is_stdlib(name), name


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")),
    ids=lambda p: p.relative_to(SRC.parent).as_posix())
def test_module_imports_only_declared_dependencies(path):
    undeclared = sorted(name for name in _imported_names(path)
                        if name not in DECLARED and not _is_stdlib(name))
    assert undeclared == []
