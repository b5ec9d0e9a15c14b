"""Importing fraudkit loads only the standard library, numpy and fraudkit,
every entry point that `pyproject.toml` declares can be imported, and every
callable the benchmark's tracer wraps exists.

scipy is imported inside the functions that need it, so a process that never
calls them never pays for loading it. The check runs in a fresh interpreter,
because the test process itself may already have imported scipy.
"""

import importlib
import importlib.util
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


def _subclasses(cls):
    return [cls] + [c for sub in cls.__subclasses__() for c in _subclasses(sub)]


def test_every_traced_target_resolves():
    # `Tracer.install` skips a method that no class defines, which would read as a zero per-layer metric
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for target in tracing.TARGETS:
        module = importlib.import_module(target.module)
        owner, _, method = target.path.rpartition(".")
        if not owner:
            assert callable(getattr(module, method, None)), target
            continue
        classes = _subclasses(getattr(module, owner))
        assert any(method in cls.__dict__ for cls in classes), target
