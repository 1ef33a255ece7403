"""Layer spans for the benchmark's traced run.

The tracer wraps the class attributes of each layer's entry points from
outside the package, so nothing under ``src/`` changes and an untraced
run executes exactly the code a user runs.  The wrappers are installed
before the traced stack is built (bound methods the stack caches at
construction, such as the controller's completion callbacks, then bind
to the wrappers) and removed afterwards.

Each call of a wrapped entry point while the recorder is active appends
one span ``(layer, name, start_ns, end_ns, parent)`` to an in-memory
list.  After each repeat :meth:`SpanRecorder.take` packs the list into
an array, :func:`profile` turns it into self time per layer (a span's
duration minus the time its child spans cover), and :func:`write_spans`
writes every repeat's spans out once the benchmark is done.

Layer boundaries that are not behind an entry point are counted in the
calling layer.  ``devices/base.py`` inlines ``DeviceQueue.push`` /
``pop_next`` / ``complete`` and ``Simulator.schedule_call``, so that
host time is counted under ``devices``; the ``io`` layer reports counts
only.  ``DeviceQueue.steal_tail`` is counted under ``schemes`` (LBICA's
balancer calls it), and every callback the engine dispatches that is
not an entry point (for example the churn and SLO monitors) is counted
under ``sim``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

__all__ = [
    "ENTRY_POINTS",
    "LAYERS",
    "RepeatProfile",
    "SpanRecorder",
    "installed",
    "profile",
    "write_spans",
]

#: Layers in report order; ``schemes`` is core/ + baselines/ + schemes/.
LAYERS = (
    "sim",
    "workloads",
    "cache",
    "devices",
    "io",
    "trace",
    "schemes",
    "experiments",
)

#: ``(layer, module, class, methods)``: the calls that cross into a layer.
#: Only attributes defined in the class's own ``__dict__`` are listed, so
#: restoring them puts back exactly what was there.
ENTRY_POINTS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "Simulator", ("run",)),
    (
        "workloads",
        "repro.workloads.base",
        "Workload",
        ("bind", "_arrive", "_deliver", "on_request_complete"),
    ),
    (
        "workloads",
        "repro.workloads.replay",
        "ReplayWorkload",
        (
            "bind",
            "_emit",
            "_emit_last",
            "_emit_materialized",
            "on_request_complete",
        ),
    ),
    (
        "workloads",
        "repro.workloads.multi_tenant",
        "MultiTenantWorkload",
        ("bind", "on_request_complete"),
    ),
    (
        "cache",
        "repro.cache.controller",
        "CacheController",
        (
            "submit",
            "_sync_done",
            "_miss_read_done",
            "_evict_read_done",
            "_bg_flush_read_done",
            "_bg_flush_write_done",
            "flush_block",
            "set_policy",
            "op_redirectable",
            "redirect_to_disk",
        ),
    ),
    (
        "cache",
        "repro.cache.store",
        "CacheStore",
        (
            "set_index",
            "lookup",
            "peek",
            "insert",
            "invalidate",
            "mark_dirty",
            "mark_clean",
            "dirty_blocks",
        ),
    ),
    ("cache", "repro.cache.writeback", "WritebackFlusher", ("_tick",)),
    ("devices", "repro.devices.base", "StorageDevice", ("submit", "_complete")),
    ("devices", "repro.devices.ssd", "SsdModel", ("service_time",)),
    ("devices", "repro.devices.hdd", "HddModel", ("service_time",)),
    ("devices", "repro.devices.array", "StripedArrayModel", ("service_time",)),
    ("trace", "repro.trace.adapters.native", "NativeAdapter", ("parse_line",)),
    ("trace", "repro.trace.iostat", "IostatMonitor", ("_tick",)),
    # IostatMonitor.record_completion is the accumulator's bound method.
    ("trace", "repro.trace.iostat", "_WindowAccum", ("record",)),
    ("schemes", "repro.schemes.base", "Scheme", ("_tick",)),
    ("schemes", "repro.core.lbica", "LbicaController", ("_tick",)),
    ("schemes", "repro.baselines.sib", "SibController", ("_tick",)),
    (
        "schemes",
        "repro.schemes.allocation",
        "QuotaAllocator",
        ("admit", "note_insert", "note_remove", "set_quotas"),
    ),
    (
        "experiments",
        "repro.experiments.system",
        "ExperimentSystem",
        ("run", "_on_complete"),
    ),
)

#: Factories whose returned ``(key, callback)`` pairs are wrapped: the
#: blktrace observers are closures, so they have no class attribute.
OBSERVER_FACTORIES: tuple[tuple[str, str, str, str], ...] = (
    ("trace", "repro.trace.blktrace", "BlkTracer", "_make_observers"),
)


class SpanRecorder:
    """In-memory span store for wrapped entry points.

    Attributes:
        spans: ``(layer, name, start_ns, end_ns, parent)`` per call of the
            current repeat, where ``layer`` indexes :data:`LAYERS`,
            ``name`` indexes :attr:`names` and ``parent`` is the index of
            the enclosing span in :attr:`spans` (``-1`` for a root).
        names: Entry-point names (``Class.method``).
        active: Spans are recorded only while this is set; a wrapped
            call made while it is clear runs with one flag test added.
        repeats: Packed spans of every repeat passed to :meth:`take`.
    """

    def __init__(self) -> None:
        self.spans: list[Any] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.active = False
        self._current = -1
        self.repeats: dict[int, np.ndarray] = {}

    def name_id(self, name: str) -> int:
        """The index of ``name`` in :attr:`names` (added on first use)."""
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def wrap(self, layer: str, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span recorded around every active call."""
        layer_id = LAYERS.index(layer)
        name_id = self.name_id(name)
        spans = self.spans
        clock = time.perf_counter_ns
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.active:
                return fn(*args, **kwargs)
            parent = recorder._current
            index = len(spans)
            spans.append(None)
            recorder._current = index
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                recorder._current = parent
                spans[index] = (layer_id, name_id, start, end, parent)

        return traced

    def take(self, repeat: int) -> np.ndarray:
        """Pack the current spans as repeat ``repeat`` and start afresh.

        Returns:
            An ``(n, 5)`` int64 array with the columns of :attr:`spans`.
        """
        packed = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        self.spans.clear()
        self._current = -1
        self.repeats[repeat] = packed
        return packed


def _class(module: str, name: str) -> type:
    return getattr(importlib.import_module(module), name)


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every entry point for the duration of the block.

    Build the stack inside the block: wrappers replace class attributes,
    so objects bind them at construction.  The originals are restored on
    exit, also when the block raises.
    """
    saved: list[tuple[type, str, Any]] = []
    try:
        for layer, module, cls_name, attrs in ENTRY_POINTS:
            cls = _class(module, cls_name)
            for attr in attrs:
                original = cls.__dict__[attr]
                if not callable(original) or isinstance(original, staticmethod):
                    raise TypeError(f"{cls_name}.{attr} is not a plain method")
                saved.append((cls, attr, original))
                setattr(cls, attr, recorder.wrap(layer, f"{cls_name}.{attr}", original))
        for layer, module, cls_name, attr in OBSERVER_FACTORIES:
            cls = _class(module, cls_name)
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, _wrapping_factory(recorder, layer, cls_name, original))
        yield
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)


def _wrapping_factory(
    recorder: SpanRecorder, layer: str, cls_name: str, factory: Callable[..., Any]
) -> Callable[..., Any]:
    @functools.wraps(factory)
    def make(self: Any, *args: Any) -> tuple[tuple[Any, Callable[..., Any]], ...]:
        return tuple(
            (key, recorder.wrap(layer, f"{cls_name}.{fn.__name__}", fn))
            for key, fn in factory(self, *args)
        )

    return make


@dataclass(frozen=True)
class RepeatProfile:
    """Self time of one traced repeat, from its spans.

    Attributes:
        layer_self_ns: Self time per layer (every name in :data:`LAYERS`).
        layer_calls: Entry-point calls per layer.
        name_self_ns: Self time per entry point.
        name_calls: Calls per entry point.
        root_ns: Duration of the repeat's root spans.
        identity_gap_ns: Sum of self times minus ``root_ns``; zero when
            every span nests inside its parent and no parent is missing.
    """

    layer_self_ns: dict[str, int]
    layer_calls: dict[str, int]
    name_self_ns: dict[str, int]
    name_calls: dict[str, int]
    root_ns: int
    identity_gap_ns: int


def profile(spans: np.ndarray, names: list[str]) -> RepeatProfile:
    """Self times of one repeat's packed spans (see :meth:`SpanRecorder.take`)."""
    layer, name, start, end, parent = spans.T
    duration = end - start
    child = np.zeros(len(spans), dtype=np.int64)
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    own = duration - child
    by_layer = np.bincount(layer, weights=own, minlength=len(LAYERS))
    layer_calls = np.bincount(layer, minlength=len(LAYERS))
    by_name = np.bincount(name, weights=own, minlength=len(names))
    calls = np.bincount(name, minlength=len(names))
    root_ns = int(duration[~nested].sum())
    called = [i for i in range(len(names)) if calls[i]]
    return RepeatProfile(
        layer_self_ns={lay: int(by_layer[i]) for i, lay in enumerate(LAYERS)},
        layer_calls={lay: int(layer_calls[i]) for i, lay in enumerate(LAYERS)},
        name_self_ns={names[i]: int(by_name[i]) for i in called},
        name_calls={names[i]: int(calls[i]) for i in called},
        root_ns=root_ns,
        identity_gap_ns=int(own.sum()) - root_ns,
    )


def write_spans(recorder: SpanRecorder, path: Path) -> Path:
    """Write every packed repeat as ``<path>.npy`` plus a ``<path>.json`` legend.

    The ``.npy`` array has one row per span with the columns named in the
    legend; ``layer`` and ``name`` index its lists and ``parent`` indexes
    rows of the same repeat, counted from that repeat's first row.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [
        np.column_stack((np.full(len(spans), rep, dtype=np.int64), spans))
        for rep, spans in sorted(recorder.repeats.items())
    ]
    table = np.concatenate(rows) if rows else np.zeros((0, 6), dtype=np.int64)
    np.save(path.with_suffix(".npy"), table)
    legend = {
        "columns": ["repeat", "layer", "name", "start_ns", "end_ns", "parent"],
        "layers": list(LAYERS),
        "names": recorder.names,
    }
    path.with_suffix(".json").write_text(json.dumps(legend, indent=1) + "\n")
    return path.with_suffix(".npy")
