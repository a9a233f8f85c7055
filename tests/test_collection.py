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

No name the docs quote is stale: a deleted helper that a docstring or the
README still names fails here.

No name the package exports is read by its own tests alone: each is read by
package code or by the benchmark.
"""

import ast
import builtins
import importlib
import inspect
import io
import re
import sys
import tokenize
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


# ``name`` or ``module.name`` in a docstring or comment, or the callee of
# ``name(...)``
_QUOTED = re.compile(r"``([A-Za-z_]\w*(?:\.\w+)*)(?=``|\()")


def _params(node):
    a = node.args
    return {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs
            + [a.vararg, a.kwarg] if arg is not None}


def _quoted_names(path):
    """(name, parameters of the function it documents) for every quoted name
    in the docstrings and comments of the module at path."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for node in [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)] + functions:
        params = _params(node) if node in functions else set()
        found += [(name, params) for name in _QUOTED.findall(ast.get_docstring(node) or "")]
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            line = tok.start[0]
            around = [f for f in functions if f.lineno <= line <= f.end_lineno]
            params = _params(max(around, key=lambda f: f.lineno)) if around else set()
            found += [(name, params) for name in _QUOTED.findall(tok.string)]
    return found


def _package():
    """The package's modules by name (the package itself as ``lrpairs``) and
    its classes."""
    src = Path(__file__).parent.parent / "src" / "lrpairs"
    modules = {path.stem: importlib.import_module("lrpairs." + path.stem)
               for path in src.glob("*.py") if path.stem != "__init__"}
    modules["lrpairs"] = importlib.import_module("lrpairs")
    classes = {obj for module in modules.values() for obj in vars(module).values()
               if inspect.isclass(obj) and obj.__module__.startswith("lrpairs")}
    return modules, classes


def _has(obj, name):
    return hasattr(obj, name) or name in getattr(obj, "__annotations__", {})


def _resolves(name, params, modules, classes):
    """name is a parameter, or its head is a package module, an attribute of
    one, a class attribute or a builtin, and the rest of it is attributes."""
    head, *rest = name.split(".")
    if not rest and head in params:
        return True
    owners = ([modules[head]] if head in modules else []) \
        + [getattr(m, head) for m in modules.values() if hasattr(m, head)] \
        + [getattr(cls, head, None) for cls in classes if _has(cls, head)] \
        + ([getattr(builtins, head)] if hasattr(builtins, head) else [])
    for obj in owners:
        for attr in rest:
            if not _has(obj, attr):
                break
            obj = getattr(obj, attr, None)
        else:
            return True
    return False


def test_names_quoted_in_the_package_docs_resolve():
    src = Path(__file__).parent.parent / "src" / "lrpairs"
    modules, classes = _package()
    quoted = [(path.name, name) for path in sorted(src.glob("*.py"))
              for name, params in _quoted_names(path)
              if not _resolves(name, params, modules, classes)]
    assert len(modules) > 5 and len(classes) > 5
    assert quoted == []


def test_module_names_quoted_in_the_readme_resolve():
    """`module.name` in README.md, for a module of the package or the
    package itself, names an attribute of that module."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    modules, _ = _package()
    dotted = [name for name in re.findall(r"(?<!`)`([A-Za-z_]\w*(?:\.\w+)+)`(?!`)", readme)
              if name.split(".")[0] in modules]
    assert len(dotted) > 3
    assert [name for name in dotted if not _resolves(name, set(), modules, set())] == []


def _reads(tree, strings=False):
    """(top-level definition, name) for every name read in tree as a
    ``Name`` load or an attribute, and with strings the dotted words of its
    string constants other than docstrings (a tracer's "module.name"
    entries); the definition is None outside any."""
    docs = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    found = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add((own, node.id))
            elif isinstance(node, ast.Attribute):
                found.add((own, node.attr))
            elif strings and isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) and id(node) not in docs:
                found.update((own, word) for word in re.findall(r"[A-Za-z_]\w*", node.value))
    return found


def test_every_exported_name_has_a_reader():
    """A name of ``lrpairs.__all__`` is read by package code outside its own
    definition and ``__init__.py``, or by the benchmark in ``perfbench/``:
    API surface that only its own tests use is not exported."""
    root = Path(__file__).parent.parent
    read = set()
    for path in (root / "src" / "lrpairs").glob("*.py"):
        if path.name != "__init__.py":
            read.update(name for own, name in _reads(ast.parse(path.read_text(encoding="utf-8")))
                        if own != name)
    for path in (root / "perfbench").glob("*.py"):
        read.update(name for _, name in _reads(ast.parse(path.read_text(encoding="utf-8")),
                                               strings=True))
    exported = set(importlib.import_module("lrpairs").__all__) - {"__version__"}
    assert len(exported) > 30
    assert exported - read == set()
