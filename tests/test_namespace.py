"""The lazy package namespace: ``import qheun`` loads no submodule, and
every public name resolves, on first use, to its defining module's object."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qheun

_NAMES = [name for name in qheun.__all__ if name != "__version__"]


def _child(code):
    """stdout of a fresh interpreter that imports this qheun."""
    env = dict(os.environ, PYTHONPATH=str(Path(qheun.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule():
    out = _child("import sys, qheun\n"
                 "print(sorted(m for m in sys.modules"
                 " if m.startswith('qheun.')))")
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", _NAMES)
def test_name_is_its_module_object(name):
    module = importlib.import_module("qheun." + qheun._HOME[name])
    assert getattr(qheun, name) is getattr(module, name)


def test_star_import_and_dir_cover_every_name():
    scope = {}
    exec("from qheun import *", scope)
    assert set(qheun.__all__) <= scope.keys()
    assert all(scope[name] is getattr(qheun, name) for name in _NAMES)
    assert set(qheun.__all__) <= set(dir(qheun))


def test_submodules_resolve_as_attributes():
    out = _child("import qheun\n"
                 "print(qheun.lax.__name__, qheun.climit.__name__)")
    assert out.split() == ["qheun.lax", "qheun.climit"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qheun.no_such_name
    assert not hasattr(qheun, "no_such_name")
