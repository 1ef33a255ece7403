"""Composable trace operators: generator transforms over record streams.

Each operator takes an iterable of
:class:`~repro.trace.records.TraceRecord` and returns a lazy generator,
so pipelines preserve the streaming property end to end — a 10M-record
trace flows through ``slice_trace(rate_multiply(iter_trace(p), 2), ...)``
in constant memory.  All operators are deterministic: the same input
stream produces the same output stream, bit for bit.

The named registry (:data:`OPERATORS` / :func:`compile_operator`) is
what the ``trace:`` workload-spec section resolves ``"op"`` names
against; :func:`interleave` is separate because it merges *multiple*
streams into per-tenant pairs (the spec's ``interleave`` key drives it
through :class:`~repro.workloads.replay.ReplayWorkload`).

>>> from repro.io.request import OpTag
>>> from repro.trace.records import TraceRecord
>>> recs = [TraceRecord(t, "ssd", "Q", OpTag.READ, False, 8, 1, i)
...         for i, t in enumerate([0.0, 100.0, 200.0])]
>>> [r.time for r in time_compress(recs, 2.0)]
[0.0, 50.0, 100.0]
>>> [r.time for r in rate_multiply(recs, 2)]
[0.0, 50.0, 100.0, 150.0, 200.0, 200.0]
>>> [r.time for r in slice_trace(recs, start_us=100.0, rebase=True)]
[0.0, 100.0]
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

from repro.registry import Registry
from repro.trace.records import TraceRecord

__all__ = [
    "time_compress",
    "rate_multiply",
    "slice_trace",
    "lba_shift",
    "interleave",
    "OPERATORS",
    "operator_names",
    "compile_operator",
    "apply_operator_specs",
]


def time_compress(
    records: Iterable[TraceRecord], factor: float
) -> Iterator[TraceRecord]:
    """Divide every timestamp by ``factor`` (``8`` → replay 8× faster).

    The whole trace shortens; arrival *order* and the request mix are
    unchanged, so compressing a day-long production trace into a
    minutes-long simulation keeps its burst structure intact.
    """
    if factor <= 0:
        raise ValueError("time_compress factor must be positive")

    def generate() -> Iterator[TraceRecord]:
        for rec in records:
            yield rec._replace(time=rec.time / factor)

    return generate()


def rate_multiply(records: Iterable[TraceRecord], factor: int) -> Iterator[TraceRecord]:
    """Replicate each record ``factor`` times at interpolated timestamps.

    The trace's duration is preserved while its arrival rate multiplies:
    the copies of record *i* are spread evenly across the gap to record
    *i+1* (the final record's copies coincide).  Addresses are kept, so
    the amplified load hits the same working set — the "what if this
    host served N× the users" knob.  Requires a time-sorted input.
    """
    if not isinstance(factor, int) or factor < 1:
        raise ValueError("rate_multiply factor must be an integer >= 1")

    def generate() -> Iterator[TraceRecord]:
        if factor == 1:
            yield from records
            return
        it = iter(records)
        prev = next(it, None)
        if prev is None:
            return
        for rec in it:
            step = (rec.time - prev.time) / factor
            if step < 0:
                raise ValueError(
                    f"rate_multiply requires a time-sorted input "
                    f"(t={rec.time} after t={prev.time})"
                )
            for j in range(factor):
                yield prev._replace(time=prev.time + step * j)
            prev = rec
        for _ in range(factor):
            yield prev

    return generate()


def slice_trace(
    records: Iterable[TraceRecord],
    start_us: float = 0.0,
    stop_us: Optional[float] = None,
    rebase: bool = False,
) -> Iterator[TraceRecord]:
    """Keep records with ``start_us <= time < stop_us``.

    With ``rebase=True`` the window is shifted to start at t=0 — the
    way to replay an interesting hour out of a day-long trace.  Assumes
    a time-sorted input (iteration stops at the first record past
    ``stop_us``, which is what makes slicing a 10M-record stream cheap).
    """
    if stop_us is not None and stop_us <= start_us:
        raise ValueError("slice stop_us must be greater than start_us")

    def generate() -> Iterator[TraceRecord]:
        for rec in records:
            if rec.time < start_us:
                continue
            if stop_us is not None and rec.time >= stop_us:
                break
            yield rec._replace(time=rec.time - start_us) if rebase else rec

    return generate()


def lba_shift(records: Iterable[TraceRecord], blocks: int) -> Iterator[TraceRecord]:
    """Shift every address by ``blocks`` (disjoint per-tenant footprints).

    The ``trace:`` spec's ``interleave`` uses this to give each cloned
    tenant its own LBA region, mirroring
    :class:`~repro.workloads.multi_tenant.MultiTenantWorkload` striding.
    """
    if blocks < 0:
        raise ValueError("lba_shift blocks must be non-negative")

    def generate() -> Iterator[TraceRecord]:
        if blocks == 0:
            yield from records
            return
        for rec in records:
            yield rec._replace(lba=rec.lba + blocks)

    return generate()


def _keyed_stream(idx: int, stream: Iterable[TraceRecord]):
    for n, rec in enumerate(stream):
        yield (rec.time, idx, n), rec, idx


def interleave(
    streams: Iterable[Iterable[TraceRecord]],
) -> Iterator[tuple[TraceRecord, int]]:
    """Merge time-sorted streams into one ``(record, tenant_id)`` stream.

    Stream *i*'s records come out tagged ``tenant_id=i``; ties on time
    break by stream index then arrival order, so the merge is fully
    deterministic.  Each input must itself be time-sorted (the replay
    chunker enforces global order downstream).
    """
    merged = heapq.merge(*(_keyed_stream(i, s) for i, s in enumerate(streams)))
    for _key, rec, idx in merged:
        yield rec, idx


#: Named single-stream operators the ``trace:`` spec section accepts,
#: with their required/optional parameters.  ``interleave`` is not here:
#: it changes the stream's shape (records → per-tenant pairs) and is
#: driven by the spec's ``interleave`` key instead.
OPERATORS: Registry[
    tuple[Callable[..., Iterator[TraceRecord]], frozenset[str]]
] = Registry(
    "trace operator",
    __name__,
    entries={
        "time_compress": (time_compress, frozenset({"factor"})),
        "rate_multiply": (rate_multiply, frozenset({"factor"})),
        "slice": (slice_trace, frozenset({"start_us", "stop_us", "rebase"})),
        "lba_shift": (lba_shift, frozenset({"blocks"})),
    },
)


def operator_names() -> tuple[str, ...]:
    """Every spec-addressable operator name."""
    return OPERATORS.names()


def compile_operator(
    spec: Mapping[str, Any]
) -> Callable[[Iterable[TraceRecord]], Iterator[TraceRecord]]:
    """Validate one ``{"op": name, ...params}`` spec into a transform.

    Validation is eager (unknown names/parameters raise here, before any
    file is opened); the returned callable applies lazily.

    Raises:
        ValueError: Unknown operator or unknown/invalid parameters.
    """
    if not isinstance(spec, Mapping) or "op" not in spec:
        raise ValueError(f"operator spec must be a mapping with an 'op' key: {spec!r}")
    name = spec["op"]
    fn, allowed = OPERATORS.lookup(name)
    params = {k: v for k, v in spec.items() if k != "op"}
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(
            f"operator {name!r}: unknown parameters {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )

    def transform(records: Iterable[TraceRecord]) -> Iterator[TraceRecord]:
        return fn(records, **params)

    # Probe argument completeness eagerly: applying to an empty stream
    # executes the signature binding without consuming anything real.
    try:
        probe = fn(iter(()), **params)
        next(probe, None)
    except TypeError as exc:
        raise ValueError(f"operator {name!r}: {exc}") from None
    return transform


def apply_operator_specs(
    records: Iterable[TraceRecord], specs: Iterable[Mapping[str, Any]]
) -> Iterator[TraceRecord]:
    """Thread a record stream through a list of operator specs, lazily."""
    out: Iterable[TraceRecord] = records
    for spec in specs:
        out = compile_operator(spec)(out)
    return iter(out)
