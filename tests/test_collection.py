"""Every test module imports.

The tier-1 command runs pytest with ``--continue-on-collection-errors``, so
a test module that no longer imports (say, one that still imports a name the
package dropped) would vanish from the run without failing anything.  This
test turns that into a failure.
"""

import importlib
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
