"""The package namespace: ``import heisaut`` loads no submodule, and each
public name resolves on first use to the object its home module holds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import heisaut
from heisaut import _backend, aut, cocycles, gl2, heis

PUBLIC = [
    "AbPair", "Automorphism", "Cocycle", "GeneratorWord", "Gl2Matrix",
    "HeisElement", "InnerVector", "SectionOnGenerators", "aut",
    "backend_name", "cocycles", "gl2", "heis", "verify", "zlattice",
]

# the re-exported names; every other public name is a submodule
HOMES = {
    "AbPair": heis, "HeisElement": heis,
    "GeneratorWord": gl2, "Gl2Matrix": gl2,
    "Automorphism": aut, "InnerVector": aut,
    "Cocycle": cocycles, "SectionOnGenerators": cocycles,
    "backend_name": _backend,
}


def test_public_names_are_unchanged():
    assert heisaut.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_its_home_modules_object(name):
    if name in HOMES:
        assert getattr(heisaut, name) is getattr(HOMES[name], name)
    else:
        assert getattr(heisaut, name) is sys.modules[f"heisaut.{name}"]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from heisaut import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(heisaut, name) for name in PUBLIC)


def test_dir_lists_the_public_names_before_they_load():
    # dir() itself loads nothing
    env = dict(os.environ, PYTHONPATH=str(Path(heisaut.__file__).parents[1]))
    probe = ("import sys, heisaut; "
             "print(sorted(set(heisaut.__all__) - set(dir(heisaut))), "
             "sorted(m for m in sys.modules if m.startswith('heisaut')))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[] ['heisaut']\n"
    assert set(PUBLIC) <= set(dir(heisaut))


def test_unknown_attribute():
    with pytest.raises(AttributeError) as info:
        heisaut.nope
    assert str(info.value) == "module 'heisaut' has no attribute 'nope'"
    with pytest.raises(ImportError):
        from heisaut import nope  # noqa: F401
