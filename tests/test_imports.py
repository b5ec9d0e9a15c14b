"""Importing fraudkit loads only the standard library, numpy and fraudkit,
and every entry point that `pyproject.toml` declares can be imported.

scipy is imported inside the functions that need it, so a process that never
calls them never pays for loading it. The check runs in a fresh interpreter,
because the test process itself may already have imported scipy.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fraudkit

MODULES = ("data", "resample", "augment", "neural", "tree", "classify", "occ")


def test_no_scipy_module_loaded_on_import():
    code = (
        "import sys\n"
        + "".join(f"import fraudkit.{m}\n" for m in MODULES)
        + "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fraudkit.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    assert done.stdout.strip() == "[]"


def test_declared_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
