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
  filtered and sorted up front and the whole script is batch-scheduled
  in :meth:`ReplayWorkload.bind`.
- **Streaming** (any other iterable, or ``streams=``): records are
  pulled through the pipeline in chunks of :data:`CHUNK_RECORDS`
  arrivals, each chunk batch-scheduled via
  :meth:`~repro.sim.engine.Simulator.schedule_sorted_calls` when the
  previous chunk's last arrival fires.  Peak memory is then bounded by
  the chunk size, not the trace length — a 10M-record trace replays in
  the same footprint as a 10k-record one.

Both modes produce identical arrival sequences for the same input, so
run statistics (and :func:`repro.scenario.fingerprint.stats_fingerprint`
digests) are mode-independent.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.io.request import OpTag, Request
from repro.trace.operators import interleave
from repro.trace.records import TraceRecord
from repro.workloads.base import WorkloadStats

__all__ = ["ReplayWorkload", "CHUNK_RECORDS"]

#: Default arrivals pulled and scheduled per streaming chunk: big enough
#: to amortize scheduling, small enough that a chunk is invisible in
#: peak RSS.
CHUNK_RECORDS = 4096


def _is_application(rec: TraceRecord) -> bool:
    return rec.action == "Q" and rec.tag in (OpTag.READ, OpTag.WRITE)


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
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if chunk_records < 1:
            raise ValueError("chunk_records must be >= 1")
        if duration_us is not None and duration_us < 0:
            raise ValueError("duration_us must be non-negative")
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

        if streams is not None:
            self.streaming = True
            self._source = interleave(
                [self._filtered(stream) for stream in streams]
            )
            return
        assert records is not None
        if streaming is None:
            streaming = not isinstance(records, Sequence)
        self.streaming = streaming
        if streaming:
            self._source = ((rec, 0) for rec in self._filtered(records))
        else:
            app = []
            for rec in records:
                if _is_application(rec):
                    app.append(rec)
                else:
                    self.stats.skipped += 1
            app.sort(key=lambda r: r.time)
            self.records: Sequence[TraceRecord] = app
            self._known_duration = (
                app[-1].time * time_scale if app else 0.0
            )

    def _filtered(self, records: Iterable[TraceRecord]) -> Iterator[TraceRecord]:
        """Drop (and count) non-application records, lazily."""
        for rec in records:
            if _is_application(rec):
                yield rec
            else:
                self.stats.skipped += 1

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
        """Schedule the first chunk (streaming) or everything (rng unused).

        Materialized mode batch-schedules the whole sorted script via
        :meth:`~repro.sim.engine.Simulator.schedule_sorted_at` — on an
        idle simulator the batch is appended in O(n) without heap churn.
        Streaming mode schedules one chunk through
        :meth:`~repro.sim.engine.Simulator.schedule_sorted_calls` and
        refills when the chunk's last arrival fires.
        """
        self._sim = sim
        self._submit = submit
        self._floor = sim.now
        if not self.streaming:
            now = sim.now
            scale = self.time_scale
            emit = self._emit_materialized
            sim.schedule_sorted_at(
                (max(rec.time * scale, now), emit, (rec,))
                for rec in self.records
            )
            if not self.records:
                self.stats.finished = True
            return
        self._schedule_chunk()

    def _schedule_chunk(self) -> None:
        """Pull, order-check, and batch-schedule the next chunk.

        The pull happens *before* any scheduling, so a parse error
        surfacing mid-chunk (malformed trace line) schedules nothing
        from that chunk — the chunk is atomic.
        """
        sim = self._sim
        source = self._source
        assert sim is not None and source is not None
        scale = self.time_scale
        chunk: list[tuple[float, TraceRecord, int]] = []
        for _ in range(self.chunk_records):
            try:
                rec, tid = next(source)
            except StopIteration:
                self._exhausted = True
                break
            chunk.append((rec.time * scale, rec, tid))
        if not chunk:
            self._finish()
            return
        chunk.sort(key=lambda item: item[0])  # stable: interleave ties keep order
        first = chunk[0][0]
        last = chunk[-1][0]
        if self._last_raw is not None and first < self._last_raw:
            raise ValueError(
                f"replay source is not time-sorted across a chunk boundary "
                f"(t={first / scale} after t={self._last_raw / scale}); "
                f"streaming replay needs chunk-sorted input — materialize "
                f"the trace (a list input) to replay unsorted records"
            )
        self._last_raw = last
        floor = self._floor
        tail = len(chunk) - 1
        emit = self._emit
        emit_last = self._emit_last
        sim.schedule_sorted_calls(
            (
                max(t, floor),
                emit_last if i == tail else emit,
                (rec, tid),
            )
            for i, (t, rec, tid) in enumerate(chunk)
        )

    def _finish(self) -> None:
        self.stats.finished = True
        if self._known_duration is None:
            self._known_duration = (
                self._last_raw if self._last_raw is not None else 0.0
            )

    def _count(self, rec: TraceRecord) -> None:
        self.stats.generated += 1
        if rec.is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1

    def _emit(self, rec: TraceRecord, tenant_id: int) -> None:
        sim, submit = self._sim, self._submit
        assert sim is not None and submit is not None
        request = Request(
            sim.now, rec.lba, rec.nblocks, rec.is_write, tenant_id=tenant_id
        )
        self._count(rec)
        submit(request)

    def _emit_last(self, rec: TraceRecord, tenant_id: int) -> None:
        """Last arrival of a chunk: emit, then refill or finish."""
        self._emit(rec, tenant_id)
        if self._exhausted:
            self._finish()
        else:
            self._schedule_chunk()

    def _emit_materialized(self, rec: TraceRecord) -> None:
        sim, submit = self._sim, self._submit
        assert sim is not None and submit is not None
        request = Request(sim.now, rec.lba, rec.nblocks, rec.is_write)
        self._count(rec)
        if self.stats.generated == len(self.records):
            self.stats.finished = True
        submit(request)

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
