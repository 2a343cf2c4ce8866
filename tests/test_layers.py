"""Layering: importing one module loads no package module above its layer."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import orliczlab

SRC = str(pathlib.Path(orliczlab.__file__).resolve().parent.parent)

# each module with the package modules it may load, itself included
LAYERS = {
    "errors": {"errors"},
    "groups": {"errors", "groups"},
    "young": {"errors", "young"},
    "space": {"errors", "groups", "young", "space"},
    "cocycles": {"errors", "groups", "young", "space", "cocycles"},
    "algebra": {"errors", "groups", "young", "space", "cocycles", "algebra"},
    "specs": {"errors", "groups", "young", "space", "cocycles", "specs"},
    "harness": {"errors", "groups", "young", "space", "cocycles", "algebra", "specs", "harness"},
}


def _loaded(module: str) -> set:
    """The orliczlab submodules that a fresh interpreter holds after importing module."""
    code = (
        "import importlib, json, sys\n"
        f"importlib.import_module('orliczlab.{module}')\n"
        "print(json.dumps([m.split('.', 1)[1] for m in sys.modules if m.startswith('orliczlab.')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return set(json.loads(out.stdout))


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_import_loads_only_its_layer_and_below(module):
    loaded = _loaded(module)
    assert module in loaded
    assert loaded <= LAYERS[module], sorted(loaded - LAYERS[module])
