"""The package's public surface: every name of `__all__` is imported from its
module on first access, and `import rightsizer` alone loads no module of it."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rightsizer
import rightsizer.cli

SRC = Path(__file__).parent.parent / "src"
MODULES = ("analysis", "catalog", "cli", "errors", "metrics", "model", "reports", "solve", "synth")


def run_fresh(code: str) -> str:
    # -S keeps site-packages out, and with it any module a .pth file imports
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    return done.stdout


def test_importing_the_package_loads_none_of_its_modules():
    loaded = run_fresh("import sys, rightsizer; print(*sorted(sys.modules))").split()
    assert "rightsizer" in loaded
    assert [name for name in loaded if name.startswith("rightsizer.")] == []


def test_dir_lists_every_public_name_before_any_is_loaded():
    listed = run_fresh("import sys, rightsizer; print(*dir(rightsizer)); "
                       "print(*(m for m in sys.modules if m.startswith('rightsizer.')))")
    names, loaded = listed.split("\n")[:2]
    assert set(rightsizer.__all__) <= set(names.split())
    assert loaded == ""


def test_every_public_name_is_the_object_its_module_defines():
    modules = [importlib.import_module(f"rightsizer.{name}") for name in MODULES]
    for name in rightsizer.__all__:
        value = getattr(rightsizer, name)
        holders = [module for module in modules if name in vars(module)]
        assert holders, f"no module of the package defines {name}"
        assert all(vars(module)[name] is value for module in holders), name
        defined_in = getattr(value, "__module__", None)
        if defined_in is not None:
            assert sys.modules[defined_in] in holders, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from rightsizer import *", namespace)
    assert set(rightsizer.__all__) <= set(namespace)
    assert set(rightsizer.__all__) <= set(dir(rightsizer))


@pytest.mark.parametrize("module", [rightsizer, rightsizer.cli], ids=["rightsizer", "rightsizer.cli"])
def test_an_unknown_name_raises_the_standard_attribute_error(module):
    with pytest.raises(AttributeError) as exc:
        module.no_such_name
    assert str(exc.value) == f"module {module.__name__!r} has no attribute 'no_such_name'"
    assert not hasattr(module, "no_such_name")
