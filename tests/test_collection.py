"""Every test module imports, and every import is read.

The tier-1 command runs pytest with ``--continue-on-collection-errors``, so
a test module that no longer imports (say, one that still imports a name the
package dropped) would vanish from the run without failing anything.  This
test turns that into a failure.

No module of the package or of the tests imports a name it never reads.

No module-level private function of the package is read only by tests: each
is read somewhere in the package outside its own body.

The package imports nothing outside the standard library and itself, as
``pyproject.toml`` declares with ``dependencies = []``: numpy or sympy may be
installed where the tests run, so an import of either would pass unseen.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest


def test_every_test_module_imports():
    names = sorted(path.stem for path in Path(__file__).parent.glob("test_*.py"))
    assert "test_collection" in names
    failed = {}
    for name in names:
        try:
            importlib.import_module(name)
        except pytest.skip.Exception:  # a module that skips itself, as without sympy
            continue
        except Exception as exc:
            failed[name] = f"{type(exc).__name__}: {exc}"
    assert failed == {}


# The one import that no reader of its module needs, and why it stays.
UNREAD_ALLOWED = {
    # perfbench's tracer self-test pins it as a wrapped attribute of
    # lrpairs.generic; ROADMAP item 3 deletes it once the tracer moves on
    ("lrpairs.generic", "det"),
}


def _unread_imports(path):
    """Names that ``path`` imports and never reads, outside its ``__all__``
    and its ``__future__`` imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_every_import_is_read():
    tests = Path(__file__).parent
    src = tests.parent / "src" / "lrpairs"
    modules = [(path, "lrpairs." + path.stem) for path in src.glob("*.py")]
    modules += [(path, path.stem) for path in tests.glob("*.py")]
    assert len(modules) > 20
    unread = {(module, name) for path, module in modules
              for name in _unread_imports(path)}
    assert unread == UNREAD_ALLOWED


def test_every_private_function_is_read_in_the_package():
    """A module-level ``_`` function of the package that no package code
    reads outside its own body is kept alive only by tests, or by nothing:
    each one must be read somewhere in ``src/lrpairs``."""
    src = Path(__file__).parent.parent / "src" / "lrpairs"
    defined = set()
    read = set()
    for path in src.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(top, ast.FunctionDef) and top.name.startswith("_") \
                    and not top.name.startswith("__"):
                own = top.name
                defined.add(own)
            read.update(node.id for node in ast.walk(top)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        and node.id != own)
    assert len(defined) > 20
    assert defined - read == set()


def test_package_imports_only_the_standard_library():
    src = Path(__file__).parent.parent / "src" / "lrpairs"
    outside = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:  # a relative import is the package itself
                continue
            outside.update((path.name, root) for root in roots
                           if root not in sys.stdlib_module_names and root != "lrpairs")
    assert len(list(src.glob("*.py"))) > 5
    assert outside == set()
