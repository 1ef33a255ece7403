"""Trace replay: feed captured traces back through the stack.

A :class:`ReplayWorkload` takes :class:`~repro.trace.records.TraceRecord`
streams (parsed from any registered format via
:func:`repro.trace.parser.iter_trace`, or reshaped through
:mod:`repro.trace.operators`) and re-submits the *application*
arrivals — ``Q`` records tagged ``R`` or ``W`` — at their original
timestamps.  ``P``/``E`` records are skipped and counted in
``stats.skipped``: they were cache-generated and the replayed cache will
regenerate its own.

Two execution modes share one class:

- **Materialized** (a list in, the historical behavior): records are
  filtered and sorted up front and replayed as a single chunk.
- **Streaming** (any other iterable, or ``streams=``): records are
  pulled through the pipeline in chunks of :data:`CHUNK_RECORDS`
  arrivals, the next one when the previous chunk's last arrival fires.
  Peak memory is then bounded by the chunk size, not the trace length
  — a 10M-record trace replays in the same footprint as a 10k-record
  one.

Either way one arrival is pending in the calendar: a chunk reserves
its sequence numbers in one block
(:meth:`~repro.sim.engine.Simulator.reserve_seqs`) and each arrival
pushes the next under its reserved number
(:meth:`~repro.sim.engine.Simulator.schedule_reserved`), so every
arrival pops under the ``(time, seq)`` key a whole-chunk insert would
give it.

Both modes produce identical arrival sequences for the same input, so
run statistics (and :func:`repro.scenario.fingerprint.stats_fingerprint`
digests) are mode-independent.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.io.request import OpTag, Request
from repro.trace.operators import interleave
from repro.trace.records import TraceRecord
from repro.workloads.base import WorkloadStats

__all__ = ["ReplayWorkload", "CHUNK_RECORDS"]

#: Default arrivals pulled and scheduled per streaming chunk: big enough
#: to amortize the pull, small enough that a chunk is invisible in
#: peak RSS.
CHUNK_RECORDS = 4096

#: Tags of application arrivals; ``P``/``E`` traffic is cache-generated.
_APP_TAGS = (OpTag.READ, OpTag.WRITE)


class ReplayWorkload:
    """Replays application arrivals from a trace.

    Carries a real :class:`~repro.workloads.base.WorkloadStats` (every
    emitted arrival counts as ``generated``; replay never throttles;
    dropped non-application records count as ``skipped``), so
    ``RunResult.workload_stats`` reports replay runs like any scripted
    workload instead of falling back to zeros.

    Args:
        records: Parsed trace records.  A :class:`~typing.Sequence`
            (list/tuple) is replayed **materialized** — any order,
            sorted internally, back-compatible ``.records`` attribute.
            Any other iterable (a generator from ``iter_trace`` or an
            operator pipeline) is replayed **streaming** in constant
            memory and must be time-sorted at chunk granularity.
        streams: Alternative to ``records``: several time-sorted record
            streams, interleaved so stream *i* replays as ``tenant_id=i``
            (always streaming).  Exactly one of ``records`` / ``streams``
            must be given.
        time_scale: Multiplier applied to timestamps (``0.5`` replays
            twice as fast).
        streaming: Force a mode (``True``/``False``) instead of
            inferring it from the input type.  ``streaming=False``
            requires ``records``.
        chunk_records: Streaming chunk size (default
            :data:`CHUNK_RECORDS`).
        duration_us: Declared trace duration after scaling.  Streaming
            replay cannot know the last timestamp up front, so runs
            without an explicit horizon need this (or the trace must fit
            one chunk); materialized replay computes it.
        name: Workload name reported in run results.
    """

    def __init__(
        self,
        records: Optional[Iterable[TraceRecord]] = None,
        time_scale: float = 1.0,
        *,
        streams: Optional[Sequence[Iterable[TraceRecord]]] = None,
        streaming: Optional[bool] = None,
        chunk_records: int = CHUNK_RECORDS,
        duration_us: Optional[float] = None,
        name: str = "replay",
    ) -> None:
        if not 0 < time_scale < math.inf:  # also rejects NaN
            raise ValueError(
                f"time_scale must be positive and finite, got {time_scale!r}"
            )
        if type(chunk_records) is not int or chunk_records < 1:
            raise ValueError(f"chunk_records must be an int >= 1: {chunk_records!r}")
        if duration_us is not None and not 0 <= duration_us < math.inf:
            raise ValueError(
                f"duration_us must be non-negative and finite, got {duration_us!r}"
            )
        if (records is None) == (streams is None):
            raise ValueError("pass exactly one of records= or streams=")
        if streams is not None and streaming is False:
            raise ValueError("streams= replay is always streaming")
        self.time_scale = time_scale
        self.name = name
        self.stats = WorkloadStats()
        self.chunk_records = chunk_records
        self._explicit_duration = duration_us
        self._known_duration: Optional[float] = None
        self._sim = None
        self._submit: Optional[Callable[[Request], None]] = None
        self._floor = 0.0
        self._last_raw: Optional[float] = None  # max scaled time pulled so far
        self._exhausted = False
        self._source: Optional[Iterator[tuple[TraceRecord, int]]] = None
        #: The chunk being replayed (``(scaled time, record, tenant)``
        #: triples), its next arrival's index, and its first seq number.
        self._chunk: list[tuple[float, TraceRecord, int]] = []
        self._next = 0
        self._seq0 = 0

        if streams is not None:
            self.streaming = True
            self._source = interleave(streams)
            return
        assert records is not None
        if streaming is None:
            streaming = not isinstance(records, Sequence)
        self.streaming = streaming
        if streaming:
            self._source = zip(records, repeat(0))
        else:
            app = []
            for rec in records:
                if rec.action == "Q" and rec.tag in _APP_TAGS:
                    app.append(rec)
                else:
                    self.stats.skipped += 1
            app.sort(key=lambda r: r.time)
            self.records: Sequence[TraceRecord] = app
            self._known_duration = (
                app[-1].time * time_scale if app else 0.0
            )
            self._exhausted = True  # the script is the only chunk

    @property
    def submitted(self) -> int:
        """Arrivals emitted so far (alias of ``stats.generated``)."""
        return self.stats.generated

    @property
    def duration_us(self) -> float:
        """Timestamp of the last arrival after scaling.

        Materialized replay computes this from the sorted records (0
        when empty).  Streaming replay knows it only once the source is
        exhausted (traces that fit one chunk are exhausted at bind);
        otherwise pass ``duration_us=`` at construction or run with an
        explicit horizon.
        """
        if self._explicit_duration is not None:
            return self._explicit_duration
        if self._known_duration is not None:
            return self._known_duration
        raise ValueError(
            "streaming replay duration is unknown until the trace is "
            "exhausted; pass duration_us= to ReplayWorkload (or the "
            "trace: spec) or run with an explicit horizon (until_us)"
        )

    def bind(self, sim, submit: Callable[[Request], None], rng=None) -> None:
        """Schedule the first arrival (rng unused).

        Materialized replay starts its sorted script as one chunk;
        streaming replay pulls its first chunk now and the next one when
        a chunk's last arrival fires.
        """
        self._sim = sim
        self._submit = submit
        self._floor = sim.now
        if self.streaming:
            self._schedule_chunk()
        else:
            scale = self.time_scale
            self._start([(rec.time * scale, rec, 0) for rec in self.records])

    def _schedule_chunk(self) -> None:
        """Pull, filter and sort the next chunk, then start it.

        The pull happens *before* any scheduling, so a parse error
        surfacing mid-chunk (malformed trace line) schedules nothing
        from that chunk — the chunk is atomic.  Non-application records
        are dropped (and counted in ``stats.skipped``) as they are
        pulled.
        """
        source = self._source
        assert source is not None
        want = self.chunk_records
        scale = self.time_scale
        stats = self.stats
        chunk: list[tuple[float, TraceRecord, int]] = []
        for rec, tenant_id in source:
            if rec.action == "Q" and rec.tag in _APP_TAGS:
                chunk.append((rec.time * scale, rec, tenant_id))
                if len(chunk) == want:
                    break
            else:
                stats.skipped += 1
        else:
            self._exhausted = True
        chunk.sort(key=itemgetter(0))  # stable: interleave ties keep order
        self._start(chunk)

    def _start(self, chunk: list[tuple[float, TraceRecord, int]]) -> None:
        """Order-check a time-sorted chunk and schedule its first arrival.

        The chunk's sequence numbers are reserved here, in one block, so
        each arrival later pops under the same ``(time, seq)`` key as if
        the whole chunk had entered the calendar now.

        Raises:
            ValueError: If the chunk starts before the previous chunk's
                last arrival or holds a NaN time; nothing from the chunk
                is scheduled.
        """
        if not chunk:
            self._finish()
            return
        scale = self.time_scale
        first = chunk[0][0]
        if self._last_raw is not None and first < self._last_raw:
            raise ValueError(
                f"replay source is not time-sorted across a chunk boundary "
                f"(t={first / scale} after t={self._last_raw / scale}); "
                f"streaming replay needs chunk-sorted input — materialize "
                f"the trace (a list input) to replay unsorted records"
            )
        for time, rec, _ in chunk:
            if math.isnan(time):
                raise ValueError(f"replay record has a NaN time: {rec!r}")
        self._last_raw = chunk[-1][0]
        floor = self._floor
        if first < floor:  # arrivals before bind time replay at bind time
            chunk = [(max(t, floor), rec, tid) for t, rec, tid in chunk]
        sim = self._sim
        assert sim is not None
        self._chunk = chunk
        self._next = 1
        self._seq0 = sim.reserve_seqs(len(chunk))
        time, rec, tenant_id = chunk[0]
        sim.schedule_reserved(time, self._seq0, self._emit, rec, tenant_id)

    def _finish(self) -> None:
        self.stats.finished = True
        if self._known_duration is None:
            self._known_duration = (
                self._last_raw if self._last_raw is not None else 0.0
            )

    def _emit(self, rec: TraceRecord, tenant_id: int) -> None:
        """One arrival: submit it, then schedule the next or refill."""
        sim, submit = self._sim, self._submit
        assert sim is not None and submit is not None
        stats = self.stats
        stats.generated += 1
        if rec.is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        submit(
            Request(sim.now, rec.lba, rec.nblocks, rec.is_write, tenant_id=tenant_id)
        )
        # Refill only after the submit: a refill reserves sequence
        # numbers, and whatever the submit schedules takes the earlier ones.
        i = self._next
        chunk = self._chunk
        if i < len(chunk):
            self._next = i + 1
            time, rec, tenant_id = chunk[i]
            sim.schedule_reserved(time, self._seq0 + i, self._emit, rec, tenant_id)
        elif self._exhausted:
            self._finish()
        else:
            self._schedule_chunk()

    def _emit_last(self, *args: object) -> None:
        """Retired arrival entry point: nothing calls it.

        ``_emit`` submits every arrival of both modes and refills.  The
        benchmark's tracer (``simbench/tracing.py``) still wraps
        ``_emit_last`` and ``_emit_materialized`` by name; delete both
        together with those entries.
        """
        raise NotImplementedError("ReplayWorkload._emit_last is retired; use _emit")

    _emit_materialized = _emit_last

    def on_request_complete(self, request: Request) -> None:
        """No backpressure during replay (timestamps are authoritative)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.streaming:
            state = "exhausted" if self._exhausted else "live"
            return (
                f"ReplayWorkload(streaming, {self.stats.generated} emitted, "
                f"{state})"
            )
        return f"ReplayWorkload({len(self.records)} arrivals)"
