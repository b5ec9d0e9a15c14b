"""Tests of the benchmark itself: input determinism, span arithmetic, names,
and a tiny end-to-end run of every workload.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import pipelines  # noqa: E402
import spec  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("workload", sorted(pipelines.WORKLOADS))
def test_same_seed_same_input_bytes(workload, tmp_path):
    setup = pipelines.WORKLOADS[workload][0]
    digests = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        work = tmp_path / name
        work.mkdir()
        digests.append(setup(seed, work, True)["inputs"])
    assert digests[0] == digests[1]
    assert all(digests[0][k] != digests[2][k] for k in digests[0])


def test_mixed_csv_bytes_repeat(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        rng = np.random.default_rng(11)
        x, y = inputs.transactions(rng, 300, 20)
        inputs.write_mixed_csv(tmp_path / name, rng, x, y)
        paths.append(tmp_path / name)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    lines = paths[0].read_text().splitlines()
    assert len(lines) - 1 == 320 + round(320 * inputs.DUPLICATE_RATE)


def _span(id, name, start, end, parent, **attrs):
    return Span(id, name, start, end, parent, "r", attrs)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, "root", 0.0, 10.0, None),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "a.child", 2.0, 3.5, 1),
        _span(3, "b", 5.0, 6.0, 0),
        _span(4, "a", 7.0, 9.0, 0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 1.5)
    assert selfs[2] == pytest.approx(1.5)
    assert selfs[3] == pytest.approx(1.0)
    values = layer_metrics(spans, ["a.s", "a.calls", "root.s", "missing.s"])
    assert values == pytest.approx({"a.s": 1.5 + 2.0, "a.calls": 2, "root.s": 4.0, "missing.s": 0.0})


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, "p", 0.0, 4.0, None),
        _span(1, "c", 1.0, 3.0, 0),
        _span(2, "c", 2.0, 5.0, 0),  # overlaps its sibling and outlasts the parent
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_layer_stats_from_attributes():
    spans = [
        _span(0, "train_gan", 0.0, 2.0, None, epochs=100),
        _span(1, "train_gan", 3.0, 4.0, None, epochs=100),
        _span(2, "tomek_remove", 0.0, 1.0, None, peak_mb=5.0, removed_rows=3),
        _span(3, "tomek_remove", 1.0, 2.0, None, peak_mb=7.0, removed_rows=4),
    ]
    values = layer_metrics(
        spans, ["train_gan.epochs", "train_gan.epoch_ms", "tomek_remove.peak_mb", "tomek_remove.removed_rows"]
    )
    assert values == pytest.approx(
        {"train_gan.epochs": 200, "train_gan.epoch_ms": 15.0,
         "tomek_remove.peak_mb": 7.0, "tomek_remove.removed_rows": 7}
    )


def test_tracer_patches_every_binding_and_restores_them():
    from fraudkit import augment, data, resample

    original = data.dataset_from_matrix
    tracer = Tracer("t")
    tracer.install()
    try:
        assert data.dataset_from_matrix is not original
        assert resample.dataset_from_matrix is data.dataset_from_matrix
        assert augment.dataset_from_matrix is data.dataset_from_matrix
        ds = data.dataset_from_matrix(np.zeros((3, 2)), [0, 1, 0])
        ds.matrix()
    finally:
        tracer.uninstall()
    assert data.dataset_from_matrix is original
    assert resample.dataset_from_matrix is original
    assert [s.name for s in tracer.spans] == ["dataset_from_matrix", "Dataset.matrix"]


def test_span_of_a_raising_call_is_kept():
    from fraudkit import data
    from fraudkit.errors import DataError

    tracer = Tracer("t")
    tracer.install()
    try:
        with pytest.raises(DataError):
            data.dataset_from_matrix(np.zeros(3))
    finally:
        tracer.uninstall()
    assert [(s.name, s.attrs) for s in tracer.spans] == [("dataset_from_matrix", {"error": "DataError"})]


def test_names_are_valid_and_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(spec.WORKLOADS) + [m.name for m in spec.END_TO_END] + [m.name for m in spec.per_layer()]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == list(spec.WORKLOADS.values())
    assert all(len(why) <= 200 for why in spec.WORKLOADS.values())
    assert doc["end_to_end"] == [m._asdict() for m in spec.END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.per_layer()
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(pipelines.WORKLOADS))
def test_tiny_run_writes_every_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = spec.per_layer() if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m.name for m in table]
    for m in table:
        value = result["metrics"][m.name]
        assert value["unit"] == m.unit and np.isfinite(value["value"])
    details = json.loads((ROOT / ".bench_out" / f"{workload}-seed5-trace{trace}.json").read_text())
    assert details["same_outputs_every_iteration"]
    # tiny inputs are too small to reach the accuracy floor; every other check must pass
    failed_checks = {
        c["name"] for wk in details["workers"] for it in wk["iterations"] for c in it["failed_checks"]
    }
    assert failed_checks <= {"balanced_accuracy_floor"}
