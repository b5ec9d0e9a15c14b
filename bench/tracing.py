"""Spans around the library's public calls, recorded from the benchmark only.

`Tracer.install` wraps each traced function or method and rebinds the name in
every `fraudkit` module that imported it, so calls made inside the library
are recorded too. Nothing under `src/` changes. Spans stay in memory until
the run writes them out.

A span is `(id, name, start, end, parent, run, attrs)`, with times from
`time.perf_counter` in seconds and `parent` the id of the enclosing span (or
None). A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, NamedTuple

MB = float(2**20)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict


class Target(NamedTuple):
    """One traced callable.

    `name(args, kwargs)` gives the span name (default: `path`).
    `before(args, kwargs)` and `after(args, kwargs, result)` give span
    attributes; `after` runs once the span has ended, and only if the call
    returned. A call that raised gets the exception's type as `error`. `peak` records
    the `tracemalloc` peak inside the call as `peak_mb` while the tracer's
    `measure_peak` is set.
    """

    module: str
    path: str  # "func" or "Class.method"
    name: Callable[..., str] | None = None
    before: Callable[..., dict] | None = None
    after: Callable[..., dict] | None = None
    peak: bool = False


def _kind_of_first(prefix: str) -> Callable[..., str]:
    return lambda a, k: f"{prefix}.{a[0].kind}"


TARGETS: tuple[Target, ...] = (
    # data
    Target("fraudkit.data", "load_csv", after=lambda a, k, r: {"rows": r.n}),
    Target("fraudkit.data", "cleanse", after=lambda a, k, r: {"dropped_rows": a[0].n - r.n}),
    Target("fraudkit.data", "encode_one_hot"),
    Target("fraudkit.data", "fit_normalize"),
    Target("fraudkit.data", "apply_normalize"),
    Target("fraudkit.data", "stratified_split"),
    Target("fraudkit.data", "save_csv"),
    Target("fraudkit.data", "Dataset.matrix"),
    Target("fraudkit.data", "dataset_from_matrix"),
    # resample
    Target("fraudkit.resample", "balance"),
    Target("fraudkit.resample", "smote", after=lambda a, k, r: {"synth_rows": r.n - a[0].n}),
    Target(
        "fraudkit.resample",
        "tomek_remove",
        before=lambda a, k: {"dist_matrix_mb": a[0].n ** 2 * 8 / MB},
        after=lambda a, k, r: {"removed_rows": a[0].n - r.n},
        peak=True,
    ),
    # augment
    Target("fraudkit.augment", "train_gan", before=lambda a, k: {"epochs": a[1].train.epochs}),
    Target("fraudkit.augment", "sample_synthetic"),
    # neural
    Target("fraudkit.neural", "Network.forward_cached"),
    Target("fraudkit.neural", "Network.backward"),
    Target("fraudkit.neural", "Network.clip_weights"),
    Target("fraudkit.neural", "Optimizer.step"),
    Target("fraudkit.neural", "train"),
    # tree
    Target(
        "fraudkit.tree",
        "DecisionTree.fit",
        after=lambda a, k, r: {"nodes": len(r.nodes_by_id())},
    ),
    Target(
        "fraudkit.tree",
        "DecisionTree.predict_value",
        before=lambda a, k: {"rows": len(a[1])},
    ),
    Target("fraudkit.tree", "DecisionTree.to_dict"),
    Target("fraudkit.tree", "DecisionTree.from_dict"),
    # classify
    Target("fraudkit.classify", "fit_arrays", name=_kind_of_first("fit_arrays")),
    Target("fraudkit.classify", "TrainedModel.predict_proba", name=_kind_of_first("TrainedModel.predict_proba")),
    Target("fraudkit.classify", "TrainedModel.save"),
    Target("fraudkit.classify", "load_model"),
    # occ
    Target("fraudkit.occ", "fit_detector", name=_kind_of_first("fit_detector"), peak=True),
    Target("fraudkit.occ", "TrainedDetector.score", name=_kind_of_first("TrainedDetector.score")),
)


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    """Records spans for one run; `install` patches, `uninstall` restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # tracemalloc slows allocation-heavy Python several-fold, so callers
        # turn peak measurement on only in iterations whose times they ignore
        self.measure_peak = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def call(self, fn: Callable, target: Target, args: tuple, kwargs: dict):
        name = target.name(args, kwargs) if target.name else target.path
        attrs = target.before(args, kwargs) if target.before else {}
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        measure_peak = target.peak and self.measure_peak and not tracemalloc.is_tracing()
        if measure_peak:
            tracemalloc.start()
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if measure_peak:
                attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run_id, attrs))
        if target.after:
            attrs.update(target.after(args, kwargs, result))
        return result

    # -- patching -----------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(fn, target, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.path)
        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        for target in targets:
            module = importlib.import_module(target.module)
            if "." not in target.path:
                original = getattr(module, target.path)
                wrapped = self._wrap(original, target)
                for name, mod in list(sys.modules.items()):
                    if name.split(".")[0] == "fraudkit" and getattr(mod, target.path, None) is original:
                        self._set(mod, target.path, wrapped)
                continue
            cls_name, method = target.path.split(".")
            # wrap the method on the class and on every subclass overriding it
            for cls in _subclasses(getattr(module, cls_name)):
                raw = cls.__dict__.get(method)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    self._set(cls, method, classmethod(self._wrap(raw.__func__, target)))
                else:
                    self._set(cls, method, self._wrap(raw, target))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """One JSON object per line, in the order spans ended."""
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span], names: list[str]) -> dict[str, float]:
    """Per-layer metric values for `<span name>.<stat>` metric names.

    `s` sums self time, `calls` counts spans, `peak_mb` and `dist_matrix_mb`
    take the maximum, `epoch_ms` is total span time per epoch, and any other
    stat sums the span attribute of that name. A span that never ran gives 0.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {}
    for metric in names:
        span_name, stat = metric.rsplit(".", 1)
        group = by_name.get(span_name, [])
        if stat == "s":
            value = sum(selfs[s.id] for s in group)
        elif stat == "calls":
            value = len(group)
        elif stat in ("peak_mb", "dist_matrix_mb"):
            value = max((s.attrs.get(stat, 0.0) for s in group), default=0.0)
        elif stat == "epoch_ms":
            epochs = sum(s.attrs["epochs"] for s in group)
            value = 1000.0 * sum(s.end - s.start for s in group) / epochs if epochs else 0.0
        else:
            value = sum(s.attrs.get(stat, 0) for s in group)
        out[metric] = float(value)
    return out
