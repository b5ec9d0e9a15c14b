"""Importing fraudkit, and fitting and scoring every balancer, classifier
and detector, loads no scipy module; every entry point that `pyproject.toml`
declares can be imported, and every callable the benchmark's tracer wraps
exists.

The scipy checks run in a fresh interpreter, because the test process itself
may already have imported scipy (the tests use it as an oracle).
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


SCIPY_MODULES = "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"

# every balancer, classifier and detector at its defaults on 40 seeded rows;
# mcd's C(40, 21) subsets are past EXHAUSTIVE_SUBSET_LIMIT, so it takes the random starts
FIT_EVERYTHING = """
import numpy as np
from fraudkit import classify, data, occ, resample
rng = np.random.default_rng(3)
x = rng.uniform(size=(40, 3))
y = (x[:, 0] + rng.normal(scale=0.2, size=40) > 0.8).astype(int)
train = data.dataset_from_matrix(x, y)
for method in resample.METHODS:
    resample.balance(train, resample.BalancerConfig(method, target_ratio=0.5), None, {"epochs": 2})
for kind in classify.KINDS:
    classify.fit_arrays(classify.ClassifierConfig(kind), x, y).predict_proba(x)
for kind in occ.KINDS:
    occ.fit_detector(occ.DetectorConfig(kind), x[y == 0]).classify(x)
"""


def _scipy_modules_after(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(fraudkit.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + SCIPY_MODULES],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return done.stdout.strip()


def test_no_scipy_module_loaded_on_import():
    assert _scipy_modules_after("".join(f"import fraudkit.{m}\n" for m in MODULES)) == "[]"


def test_no_scipy_module_loaded_by_fitting_and_scoring_everything():
    assert _scipy_modules_after(FIT_EVERYTHING) == "[]"


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
