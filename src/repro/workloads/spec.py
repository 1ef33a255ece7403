"""Declarative workload specifications (dict / JSON).

Lets experiments be described as data rather than code — useful for
sweeps, external tooling, and storing workload definitions next to their
results.  A spec is a dict of the form::

    {
      "name": "my_workload",
      "max_outstanding": 256,
      "warm": [{"kind": "range", "start": 0, "span": 2048, "dirty": false}],
      "phases": [
        {
          "label": "burst",
          "n_intervals": 40,
          "rate_iops": 5000,
          "write_frac": 0.02,
          "burst": true,
          "size_blocks": 1,
          "read_pattern":  {"kind": "hotcold", "hot_start": 0,
                             "hot_span": 3000, "cold_start": 131072,
                             "cold_span": 98304, "hot_prob": 0.97},
          "write_pattern": {"kind": "uniform", "start": 0, "span": 3000}
        }
      ]
    }

Pattern kinds: ``uniform``, ``zipf``, ``hotcold``, ``sequential``,
``mix`` (with ``components: [{"weight": ..., "pattern": {...}}]``).

Multi-VM consolidations are data too: a spec with a ``tenants`` section
instead of ``phases`` builds a
:class:`~repro.workloads.multi_tenant.MultiTenantWorkload` — fair-share
footprint sizing, disjoint LBA striding, per-VM RNG streams, and phase
``shift`` offsets all included::

    {
      "name": "consolidated3",
      "tenants": [
        {"workload": "tpcc", "rate_scale": 0.55},
        {"workload": "mail", "rate_scale": 0.75, "offset_intervals": 5},
        {"workload": {... inline phases spec ...}, "label": "custom"}
      ]
    }

Each tenant's ``workload`` is either a registered workload name or a
nested inline spec of this same schema (``phases`` form only — tenants
cannot nest).

Tenant entries may additionally declare a **service lifecycle** —
``arrive_at_us`` / ``depart_at_us`` / ``migrate_at_us`` times and an
``slo`` block (``p99_latency_us`` / ``min_hit_ratio``) — and a
top-level ``churn`` block (``seed``, ``arrive_window_intervals``,
``mean_lifetime_intervals``, ``min_lifetime_intervals``,
``keep_first``) draws a seeded churn process for every tenant that did
not declare explicit times.  See :mod:`repro.service`.

A third form replays a **trace file** instead of generating arrivals: a
spec with a ``trace`` section builds a streaming
:class:`~repro.workloads.replay.ReplayWorkload` — the file is read
lazily through a format adapter, optionally reshaped by trace
operators, and optionally cloned into N interleaved tenants::

    {
      "name": "prod_replay",
      "trace": {
        "path": "examples/traces/capture.trace",
        "adapter": "native",
        "operators": [{"op": "time_compress", "factor": 8}],
        "interleave": 3,
        "lba_stride_blocks": 65536,
        "duration_us": 2000000.0
      }
    }

Adapters come from :mod:`repro.trace.adapters`, operators from
:mod:`repro.trace.operators`; ``docs/TRACES.md`` walks through the whole
section.  Replay timestamps are authoritative, so the ``rate_scale`` /
``max_outstanding`` knobs do not apply to this form.

:func:`workload_from_spec` builds a live
:class:`~repro.workloads.base.Workload`; :func:`load_workload_spec`
parses a JSON file first.  Unknown keys raise — specs are validated, not
silently pruned.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from repro.workloads.access_patterns import (
    AddressPattern,
    HotColdPattern,
    MixPattern,
    SequentialPattern,
    UniformPattern,
    ZipfPattern,
)
from repro.workloads.base import PhaseSpec, Workload

__all__ = ["workload_from_spec", "load_workload_spec", "pattern_from_spec", "SpecError"]


class SpecError(ValueError):
    """Raised for malformed workload specifications."""


def _require(spec: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in spec:
        raise SpecError(f"{context}: missing required key {key!r}")
    return spec[key]


def _check_keys(spec: Mapping[str, Any], allowed: set[str], context: str) -> None:
    unknown = set(spec) - allowed
    if unknown:
        raise SpecError(f"{context}: unknown keys {sorted(unknown)}")


def pattern_from_spec(spec: Mapping[str, Any]) -> AddressPattern:
    """Build an address pattern from its spec dict."""
    kind = _require(spec, "kind", "pattern")
    if kind == "uniform":
        _check_keys(spec, {"kind", "start", "span"}, "uniform pattern")
        return UniformPattern(int(_require(spec, "start", "uniform")),
                              int(_require(spec, "span", "uniform")))
    if kind == "zipf":
        _check_keys(spec, {"kind", "start", "span", "s", "perm_seed"}, "zipf pattern")
        return ZipfPattern(
            int(_require(spec, "start", "zipf")),
            int(_require(spec, "span", "zipf")),
            s=float(spec.get("s", 1.1)),
            perm_seed=int(spec.get("perm_seed", 1)),
        )
    if kind == "hotcold":
        _check_keys(
            spec,
            {"kind", "hot_start", "hot_span", "cold_start", "cold_span", "hot_prob"},
            "hotcold pattern",
        )
        return HotColdPattern(
            int(_require(spec, "hot_start", "hotcold")),
            int(_require(spec, "hot_span", "hotcold")),
            int(_require(spec, "cold_start", "hotcold")),
            int(_require(spec, "cold_span", "hotcold")),
            hot_prob=float(spec.get("hot_prob", 0.9)),
        )
    if kind == "sequential":
        _check_keys(spec, {"kind", "start", "span", "stride"}, "sequential pattern")
        return SequentialPattern(
            int(_require(spec, "start", "sequential")),
            int(_require(spec, "span", "sequential")),
            stride=int(spec.get("stride", 1)),
        )
    if kind == "mix":
        _check_keys(spec, {"kind", "components"}, "mix pattern")
        components = _require(spec, "components", "mix")
        if not isinstance(components, list) or not components:
            raise SpecError("mix pattern: components must be a non-empty list")
        built = []
        for comp in components:
            _check_keys(comp, {"weight", "pattern"}, "mix component")
            built.append(
                (
                    float(_require(comp, "weight", "mix component")),
                    pattern_from_spec(_require(comp, "pattern", "mix component")),
                )
            )
        return MixPattern(built)
    raise SpecError(f"unknown pattern kind {kind!r}")


def _phase_from_spec(
    spec: Mapping[str, Any], index: int, rate_scale: float = 1.0
) -> PhaseSpec:
    context = f"phase[{index}]"
    _check_keys(
        spec,
        {
            "label",
            "n_intervals",
            "rate_iops",
            "write_frac",
            "burst",
            "size_blocks",
            "read_pattern",
            "write_pattern",
        },
        context,
    )
    size: Any = spec.get("size_blocks", 1)
    if isinstance(size, list):
        choices = [int(c) for c, _ in size]
        probs = [float(p) for _, p in size]
        size = (choices, probs)
    phase = PhaseSpec(
        label=str(spec.get("label", f"phase{index}")),
        n_intervals=int(_require(spec, "n_intervals", context)),
        rate_iops=float(_require(spec, "rate_iops", context)) * rate_scale,
        write_frac=float(spec.get("write_frac", 0.0)),
        pattern_read=pattern_from_spec(_require(spec, "read_pattern", context)),
        pattern_write=(
            pattern_from_spec(spec["write_pattern"])
            if "write_pattern" in spec
            else None
        ),
        size_blocks=size,
        burst=bool(spec.get("burst", False)),
    )
    phase.validate()
    return phase


def _warm_from_spec(entries: list, context: str) -> tuple[list[int], list[int]]:
    clean: list[int] = []
    dirty: list[int] = []
    for i, entry in enumerate(entries):
        _check_keys(entry, {"kind", "start", "span", "dirty"}, f"{context}[{i}]")
        if entry.get("kind", "range") != "range":
            raise SpecError(f"{context}[{i}]: only 'range' warm entries supported")
        start = int(_require(entry, "start", f"{context}[{i}]"))
        span = int(_require(entry, "span", f"{context}[{i}]"))
        target = dirty if entry.get("dirty", False) else clean
        target.extend(range(start, start + span))
    return clean, dirty


def _resolve_tenant_factory(workload: Any, context: str) -> Callable:
    """A registry-signature factory for one tenant's ``workload`` entry."""
    if isinstance(workload, str):
        # Imported lazily: the experiment harness sits above the workload
        # layer, and only tenant specs referencing registered names need
        # its registry.
        from repro.experiments.system import _MULTI_TENANT_NAMES, WORKLOADS

        try:
            factory = WORKLOADS.lookup(workload)
        except ValueError as exc:
            raise SpecError(f"{context}: {exc}") from None
        if workload in _MULTI_TENANT_NAMES:
            raise SpecError(
                f"{context}: workload {workload!r} is already multi-tenant; "
                "tenants cannot nest"
            )
        return factory
    if isinstance(workload, Mapping):
        if "tenants" in workload:
            raise SpecError(f"{context}: tenants cannot nest tenant specs")

        def factory(
            interval_us: float,
            cache_blocks: int = 4096,
            rate_scale: float = 1.0,
            max_outstanding: int = 256,
        ) -> Workload:
            return workload_from_spec(
                workload,
                interval_us,
                cache_blocks=cache_blocks,
                rate_scale=rate_scale,
                max_outstanding=max_outstanding,
            )

        return factory
    raise SpecError(
        f"{context}: workload must be a registered name or an inline spec dict"
    )


def _lifecycle_from_entry(entry: Mapping[str, Any], context: str):
    """A :class:`TenantLifecycle` from one tenant entry's service keys."""
    from repro.service.churn import TenantLifecycle
    from repro.service.slo import ServiceError, SloTarget

    arrive = entry.get("arrive_at_us")
    depart = entry.get("depart_at_us")
    migrate = entry.get("migrate_at_us", [])
    slo_spec = entry.get("slo")
    if arrive is None and depart is None and not migrate and slo_spec is None:
        return None
    if not isinstance(migrate, list):
        raise SpecError(f"{context}: migrate_at_us must be a list of times")
    try:
        slo = None if slo_spec is None else SloTarget.from_spec(slo_spec, context)
        lifecycle = TenantLifecycle(
            arrive_at_us=None if arrive is None else float(arrive),
            depart_at_us=None if depart is None else float(depart),
            migrate_at_us=tuple(float(t) for t in migrate),
            slo=slo,
        )
        lifecycle.validate()
    except ServiceError as exc:
        raise SpecError(str(exc)) from None
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{context}: {exc}") from None
    return lifecycle


def _apply_churn_block(
    churn_spec: Mapping[str, Any], tenant_specs: list, interval_us: float
) -> None:
    """Fill tenant lifecycles from a seeded ``churn`` process block.

    Explicit per-tenant churn times win over generated ones; a tenant
    that only declared an SLO adopts the generated times alongside it.
    """
    from repro.service.churn import TenantLifecycle, generate_lifecycles
    from repro.service.slo import ServiceError

    _check_keys(
        churn_spec,
        {
            "seed",
            "arrive_window_intervals",
            "mean_lifetime_intervals",
            "min_lifetime_intervals",
            "keep_first",
        },
        "churn",
    )
    try:
        generated = generate_lifecycles(
            len(tenant_specs),
            interval_us,
            seed=int(_require(churn_spec, "seed", "churn")),
            arrive_window_intervals=float(
                churn_spec.get("arrive_window_intervals", 10.0)
            ),
            mean_lifetime_intervals=float(
                churn_spec.get("mean_lifetime_intervals", 40.0)
            ),
            min_lifetime_intervals=float(
                churn_spec.get("min_lifetime_intervals", 5.0)
            ),
            keep_first=bool(churn_spec.get("keep_first", True)),
        )
    except ServiceError as exc:
        raise SpecError(f"churn: {exc}") from None
    for i, tenant in enumerate(tenant_specs):
        if tenant.offset_intervals:
            raise SpecError(
                f"tenants[{i}]: offset_intervals cannot be combined with a "
                "churn block (arrival times come from the process)"
            )
        if tenant.lifecycle is None:
            tenant.lifecycle = generated[i]
        elif not tenant.lifecycle.has_churn:
            tenant.lifecycle = TenantLifecycle(
                arrive_at_us=generated[i].arrive_at_us,
                depart_at_us=generated[i].depart_at_us,
                migrate_at_us=generated[i].migrate_at_us,
                slo=tenant.lifecycle.slo,
            )


def _multi_tenant_from_spec(
    spec: Mapping[str, Any],
    interval_us: float,
    cache_blocks: int,
    rate_scale: float,
    max_outstanding: Optional[int],
):
    """Build a :class:`MultiTenantWorkload` from a ``tenants`` spec."""
    from repro.workloads.multi_tenant import MultiTenantWorkload, TenantSpec

    _check_keys(
        spec,
        {"name", "tenants", "lba_stride_blocks", "max_outstanding", "churn"},
        "tenant workload spec",
    )
    entries = _require(spec, "tenants", "tenant workload spec")
    if not isinstance(entries, list) or not entries:
        raise SpecError("tenant workload spec: tenants must be a non-empty list")
    tenant_specs = []
    for i, entry in enumerate(entries):
        context = f"tenants[{i}]"
        if not isinstance(entry, Mapping):
            raise SpecError(f"{context}: expected a mapping")
        _check_keys(
            entry,
            {
                "workload",
                "rate_scale",
                "offset_intervals",
                "label",
                "arrive_at_us",
                "depart_at_us",
                "migrate_at_us",
                "slo",
            },
            context,
        )
        tenant_specs.append(
            TenantSpec(
                factory=_resolve_tenant_factory(
                    _require(entry, "workload", context), context
                ),
                rate_scale=float(entry.get("rate_scale", 1.0)),
                offset_intervals=int(entry.get("offset_intervals", 0)),
                label=entry.get("label"),
                lifecycle=_lifecycle_from_entry(entry, context),
            )
        )
    churn_spec = spec.get("churn")
    if churn_spec is not None:
        if not isinstance(churn_spec, Mapping):
            raise SpecError("tenant workload spec: churn must be a mapping")
        _apply_churn_block(churn_spec, tenant_specs, interval_us)
    resolved_outstanding = int(
        spec.get(
            "max_outstanding", 256 if max_outstanding is None else max_outstanding
        )
    )
    stride = spec.get("lba_stride_blocks")
    try:
        return MultiTenantWorkload.compose(
            str(spec.get("name", "spec_scenario")),
            tenant_specs,
            interval_us,
            cache_blocks=cache_blocks,
            rate_scale=rate_scale,
            max_outstanding=resolved_outstanding,
            lba_stride_blocks=None if stride is None else int(stride),
        )
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(f"tenant workload spec: {exc}") from None


def _trace_int(trace: Mapping[str, Any], key: str, default: int, minimum: int) -> int:
    """``trace[key]`` as a real int (not a bool) of at least ``minimum``."""
    value = trace.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise SpecError(f"trace.{key} must be an int >= {minimum}, got {value!r}")
    return value


def _trace_float(trace: Mapping[str, Any], key: str, default: float) -> float:
    """``trace[key]`` as a finite number; range checks stay with the workload."""
    value = trace.get(key, default)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise SpecError(f"trace.{key} must be a finite number, got {value!r}")
    return float(value)


def _replay_from_spec(spec: Mapping[str, Any]) -> Any:
    """Build a :class:`ReplayWorkload` from a ``trace`` spec.

    Validation is eager — the file must exist, the adapter must be
    registered, and every operator spec must compile — so a bad scenario
    fails at build time, not thousands of simulated microseconds in.
    The trace file itself stays unread until the run pulls its first
    chunk (streaming is preserved).
    """
    from repro.trace.adapters import get_adapter
    from repro.trace.operators import compile_operator, lba_shift
    from repro.trace.parser import iter_trace
    from repro.workloads.replay import CHUNK_RECORDS, ReplayWorkload

    _check_keys(spec, {"name", "trace"}, "trace workload spec")
    trace = _require(spec, "trace", "trace workload spec")
    if not isinstance(trace, Mapping):
        raise SpecError("trace workload spec: trace must be a mapping")
    _check_keys(
        trace,
        {
            "path",
            "adapter",
            "operators",
            "interleave",
            "lba_stride_blocks",
            "time_scale",
            "streaming",
            "chunk_records",
            "duration_us",
        },
        "trace",
    )
    path = Path(str(_require(trace, "path", "trace")))
    if not path.is_file():
        raise SpecError(f"trace: no such trace file: {path}")
    adapter = str(trace.get("adapter", "native"))
    try:
        get_adapter(adapter)  # existence probe; iter_trace re-resolves fresh
    except ValueError as exc:
        raise SpecError(f"trace: {exc}") from None
    op_specs = trace.get("operators", [])
    if not isinstance(op_specs, list):
        raise SpecError("trace: operators must be a list of operator specs")
    try:
        transforms = [compile_operator(op) for op in op_specs]
    except ValueError as exc:
        raise SpecError(f"trace: {exc}") from None
    tenants = _trace_int(trace, "interleave", 1, minimum=1)
    stride = _trace_int(trace, "lba_stride_blocks", 0, minimum=0)
    streaming = trace.get("streaming")
    if streaming is not None and not isinstance(streaming, bool):
        raise SpecError(f"trace.streaming must be a bool, got {streaming!r}")
    if tenants > 1 and streaming is False:
        raise SpecError("trace: interleaved replay is always streaming")

    def stream(tenant: int):
        recs = iter_trace(path, adapter=adapter)
        for transform in transforms:
            recs = transform(recs)
        if stride and tenant:
            recs = lba_shift(recs, tenant * stride)
        return recs

    kwargs: dict[str, Any] = {
        "time_scale": _trace_float(trace, "time_scale", 1.0),
        "chunk_records": _trace_int(trace, "chunk_records", CHUNK_RECORDS, minimum=1),
        "name": str(spec.get("name", "trace_replay")),
    }
    if "duration_us" in trace:
        kwargs["duration_us"] = _trace_float(trace, "duration_us", 0.0)
    try:
        if tenants == 1:
            return ReplayWorkload(stream(0), streaming=streaming, **kwargs)
        return ReplayWorkload(
            streams=[stream(t) for t in range(tenants)], **kwargs
        )
    except ValueError as exc:
        raise SpecError(f"trace: {exc}") from None


def workload_from_spec(
    spec: Mapping[str, Any],
    interval_us: float,
    *,
    cache_blocks: int = 4096,
    rate_scale: float = 1.0,
    max_outstanding: Optional[int] = None,
) -> Workload:
    """Build a :class:`Workload` from a spec dict.

    Args:
        spec: The specification (see module docstring) — ``phases`` form
            for a single-tenant workload, ``tenants`` form for a
            multi-VM consolidation, ``trace`` form for file replay.
        interval_us: Monitoring interval the phases are expressed in.
        cache_blocks: Shared cache capacity tenant fair-shares are sized
            against (``tenants`` form only).
        rate_scale: Multiplier applied to every phase's arrival rate (and
            composed with per-tenant rate scales) — the run-level knob
            :class:`~repro.config.SystemConfig` carries.  Ignored by the
            ``trace`` form (replay timestamps are authoritative; use the
            trace section's ``time_scale`` / operators instead).
        max_outstanding: Default application concurrency bound when the
            spec does not set its own ``max_outstanding``.  Ignored by
            the ``trace`` form (replay never throttles).

    Raises:
        SpecError: On missing/unknown keys or invalid values.
    """
    if isinstance(spec, Mapping) and "trace" in spec:
        return _replay_from_spec(spec)
    if isinstance(spec, Mapping) and "tenants" in spec:
        return _multi_tenant_from_spec(
            spec, interval_us, cache_blocks, rate_scale, max_outstanding
        )
    _check_keys(
        spec, {"name", "max_outstanding", "warm", "phases"}, "workload spec"
    )
    phases_spec = _require(spec, "phases", "workload spec")
    if not isinstance(phases_spec, list) or not phases_spec:
        raise SpecError("workload spec: phases must be a non-empty list")
    phases = [
        _phase_from_spec(p, i, rate_scale) for i, p in enumerate(phases_spec)
    ]
    warm_clean, warm_dirty = _warm_from_spec(spec.get("warm", []), "warm")
    return Workload(
        str(spec.get("name", "spec_workload")),
        phases,
        interval_us,
        max_outstanding=int(
            spec.get(
                "max_outstanding", 256 if max_outstanding is None else max_outstanding
            )
        ),
        warm_blocks=warm_clean,
        warm_dirty_blocks=warm_dirty,
    )


def load_workload_spec(path: str | Path, interval_us: float, **kw: Any) -> Workload:
    """Parse a JSON spec file and build the workload.

    Keyword arguments are forwarded to :func:`workload_from_spec`
    (``cache_blocks`` / ``rate_scale`` / ``max_outstanding``).
    """
    try:
        spec = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON ({exc})") from None
    return workload_from_spec(spec, interval_us, **kw)
