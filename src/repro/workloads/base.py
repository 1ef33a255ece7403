"""The phase-scripted workload engine.

A :class:`Workload` is a list of :class:`PhaseSpec` entries, each lasting
a whole number of monitoring intervals and defining an arrival rate, a
read/write mix, address patterns, and request sizes.  Arrivals follow a
Poisson process (exponential inter-arrival times) subject to
**application backpressure**: at most ``max_outstanding`` requests may be
in flight, mirroring a real application's bounded I/O concurrency.
Backpressure is what keeps queue growth — and therefore simulated
latencies — finite during bursts while still saturating the device under
test.

Arrival draws
-------------
Each arrival draws, in this order: the write-fraction double, the
address pattern's draw(s), and the exponential gap to the next arrival.
Scalar ``Generator`` calls for those draws used to dominate the
whole-run profile, so :meth:`Workload.bind` picks the *draw source*
once: a :class:`repro.sim.fastdraw.RawDraws` over the generator's PCG64
bit generator when every phase is one it can replicate (an ``int``
``size_blocks`` and patterns of exactly the built-in types), and the
``Generator`` itself otherwise.  ``RawDraws`` prefetches raw words in
blocks and decodes the exact draws the ``Generator`` would make (bit for
bit — the golden fingerprints pin it), so the two sources yield the same
arrival stream.  Draws still happen one event at a time, so nothing is
drawn ahead of its arrival and nothing ever needs rolling back.  The
prefetch assumes the workload owns its RNG stream exclusively (which is
how :class:`~repro.sim.rng.RngRegistry` hands them out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.io.request import Request
from repro.sim.fastdraw import RawDraws, replication_verified
from repro.workloads.access_patterns import (
    AddressPattern,
    HotColdPattern,
    MixPattern,
    SequentialPattern,
    UniformPattern,
    ZipfPattern,
)

__all__ = ["PhaseSpec", "Workload", "WorkloadStats"]


def _replicable(pattern: AddressPattern) -> bool:
    """Whether ``pattern``'s draws can be replicated by :class:`RawDraws`.

    Exact-type checks on purpose: a subclass may override ``sample`` with
    draws the decoder does not know.
    """
    kind = type(pattern)
    if kind is UniformPattern or kind is ZipfPattern or kind is SequentialPattern:
        return True
    if kind is HotColdPattern:
        return type(pattern.hot) is UniformPattern and type(pattern.cold) is UniformPattern
    if kind is MixPattern:
        return all(_replicable(p) for p in pattern._patterns)
    return False


@dataclass
class PhaseSpec:
    """One workload phase.

    Attributes:
        label: Human-readable phase name (shows up in experiment logs).
        n_intervals: Duration in monitoring intervals.
        rate_iops: Poisson arrival rate, requests per second.
        write_frac: Probability a request is a write.
        pattern_read: Address pattern for reads.
        pattern_write: Address pattern for writes (defaults to
            ``pattern_read``).
        size_blocks: Request size in 4-KiB blocks — either an int or a
            ``(choices, probabilities)`` pair.
        burst: Whether this phase is a scripted burst window (annotation
            only; the simulator discovers bursts through Eq. 1).
    """

    label: str
    n_intervals: int
    rate_iops: float
    write_frac: float
    pattern_read: AddressPattern
    pattern_write: Optional[AddressPattern] = None
    size_blocks: int | tuple[Sequence[int], Sequence[float]] = 1
    burst: bool = False

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent parameters."""
        if self.n_intervals <= 0:
            raise ValueError(f"phase {self.label!r}: n_intervals must be positive")
        if not math.isfinite(self.rate_iops):
            raise ValueError(f"phase {self.label!r}: rate_iops must be finite")
        if self.rate_iops <= 0:
            raise ValueError(f"phase {self.label!r}: rate_iops must be positive")
        if not 0.0 <= self.write_frac <= 1.0:
            raise ValueError(f"phase {self.label!r}: write_frac must be in [0, 1]")

    @property
    def write_pattern(self) -> AddressPattern:
        """The effective write address pattern."""
        if self.pattern_write is not None:
            return self.pattern_write
        return self.pattern_read


@dataclass(slots=True)
class WorkloadStats:
    """Counters for one workload run."""

    generated: int = 0
    reads: int = 0
    writes: int = 0
    throttled: int = 0  #: arrivals deferred by backpressure
    skipped: int = 0  #: trace records dropped during replay (non-application events)
    finished: bool = False


class Workload:
    """A multi-phase request generator bound to a simulator.

    Args:
        name: Workload name (``tpcc`` / ``mail`` / ``web`` / ...).
        phases: Phase script (validated on construction).
        interval_us: Monitoring interval length — phases are expressed in
            these units so workload scripts line up with iostat samples.
        max_outstanding: Application concurrency bound (backpressure).
        warm_blocks: Block addresses to pre-load into the cache before the
            run — the paper assumes "the workload has passed its warm-up
            interval" (Section III-B footnote), so hot working sets start
            resident instead of being filled through the miss path.
        warm_dirty_blocks: Addresses pre-loaded *dirty* — write-back data
            accumulated before the observed window (a mail server's
            pending deliveries, a web server's session state).  Evicting
            these is what produces the ``E`` share of the paper's queue
            mixes.
    """

    def __init__(
        self,
        name: str,
        phases: Sequence[PhaseSpec],
        interval_us: float,
        max_outstanding: int = 256,
        warm_blocks: Sequence[int] = (),
        warm_dirty_blocks: Sequence[int] = (),
    ) -> None:
        if not phases:
            raise ValueError("at least one phase required")
        if interval_us <= 0:
            raise ValueError("interval_us must be positive")
        if max_outstanding <= 0:
            raise ValueError("max_outstanding must be positive")
        for phase in phases:
            phase.validate()
        self.name = name
        self.phases = list(phases)
        self.interval_us = interval_us
        self.max_outstanding = max_outstanding
        self.warm_blocks = list(warm_blocks)
        self.warm_dirty_blocks = list(warm_dirty_blocks)
        self.stats = WorkloadStats()
        # phase boundaries in absolute µs
        self._bounds: list[float] = []
        t = 0.0
        for phase in self.phases:
            t += phase.n_intervals * interval_us
            self._bounds.append(t)
        self._phase_idx = 0
        self._outstanding = 0
        self._throttled = False
        self._sim = None
        self._submit: Optional[Callable[[Request], None]] = None
        # The draw source chosen at bind (see the module docstring).
        self._rng: np.random.Generator | RawDraws | None = None
        # Derived values of the phase currently generating arrivals,
        # recomputed only on phase change (see _derived_for).
        self._phase_derived: Optional[tuple] = None

    # ------------------------------------------------------------------
    @property
    def total_intervals(self) -> int:
        """Total scripted duration in monitoring intervals."""
        return sum(p.n_intervals for p in self.phases)

    @property
    def duration_us(self) -> float:
        """Total scripted duration in µs."""
        return self._bounds[-1]

    def phase_at(self, time_us: float) -> PhaseSpec:
        """The phase active at ``time_us`` (clamped to the last phase)."""
        idx = int(np.searchsorted(self._bounds, time_us, side="right"))
        return self.phases[min(idx, len(self.phases) - 1)]

    def shift(self, offset_us: float) -> None:
        """Delay the whole phase script by ``offset_us``.

        Used by multi-tenant composition to stagger VM start times: the
        phase boundaries are stored in absolute simulation time, so a
        tenant bound ``offset_us`` into the run must have its script
        pushed out by the same amount to keep phases aligned with its
        own arrival stream.
        """
        if offset_us < 0:
            raise ValueError("offset_us must be non-negative")
        self._bounds = [b + offset_us for b in self._bounds]

    def stop(self) -> None:
        """Truncate the phase script at the current time (tenant departure).

        Every phase boundary is clamped to *now*, so ``_current_phase``
        sees an expired script: the next pending arrival event is a
        no-op and backpressure resumption stops rescheduling.  The
        boundaries stay monotonic and ``duration_us`` reflects the
        truncated script.  Idempotent; stopping a never-bound workload
        truncates it to zero length.
        """
        now = self._sim.now if self._sim is not None else 0.0
        self._bounds = [min(b, now) for b in self._bounds]
        self.stats.finished = True

    def burst_intervals(self) -> list[int]:
        """Interval indices covered by scripted burst phases."""
        out: list[int] = []
        start = 0
        for phase in self.phases:
            if phase.burst:
                out.extend(range(start, start + phase.n_intervals))
            start += phase.n_intervals
        return out

    # ------------------------------------------------------------------
    # Binding to a simulator
    # ------------------------------------------------------------------
    def bind(
        self, sim, submit: Callable[[Request], None], rng: np.random.Generator
    ) -> None:
        """Attach to a simulator and start generating arrivals.

        The workload assumes ``rng`` is its own stream (as the
        :class:`~repro.sim.rng.RngRegistry` and multi-tenant binding
        provide): the :class:`RawDraws` source prefetches raw words from
        its bit generator, which preserves draw-for-draw equivalence
        only when nothing else consumes from the same generator.
        """
        self._sim = sim
        self._submit = submit
        self._rng = self._draw_source(rng)
        sim.schedule_call(self._next_gap(), self._arrive)

    def _draw_source(self, rng: np.random.Generator) -> np.random.Generator | RawDraws:
        """``RawDraws`` over ``rng``'s PCG64 words if it can replicate
        every phase's draws, else ``rng`` itself."""
        bit_gen = getattr(rng, "bit_generator", None)
        if (
            type(bit_gen) is np.random.PCG64
            and all(
                isinstance(phase.size_blocks, int)
                and _replicable(phase.pattern_read)
                and _replicable(phase.write_pattern)
                for phase in self.phases
            )
            and replication_verified()
        ):
            return RawDraws(bit_gen)
        return rng

    def on_request_complete(self, request: Request) -> None:
        """Backpressure hook: wire to the cache controller's completion."""
        self._outstanding -= 1
        if self._throttled and self._outstanding < self.max_outstanding:
            self._throttled = False
            if self._sim.now < self.duration_us:
                self._sim.schedule_call(self._next_gap(), self._arrive)

    # ------------------------------------------------------------------
    def _current_phase(self) -> Optional[PhaseSpec]:
        now = self._sim.now
        if now >= self.duration_us:
            return None
        while (
            self._phase_idx < len(self._bounds) - 1
            and now >= self._bounds[self._phase_idx]
        ):
            self._phase_idx += 1
        return self.phases[self._phase_idx]

    def _derived_for(self, phase: PhaseSpec) -> tuple:
        """Cached per-phase derived values, recomputed on phase change.

        The tuple is ``(phase, write_frac, sample_read, sample_write,
        fixed_size, mean_gap_us)`` — every attribute chain, isinstance
        dispatch, and division the arrival paths (open loop and the
        closed-loop re-arm) would otherwise repeat per arrival.
        """
        derived = self._phase_derived
        if derived is None or derived[0] is not phase:
            size = phase.size_blocks
            derived = (
                phase,
                phase.write_frac,
                phase.pattern_read.sample,
                phase.write_pattern.sample,
                size if isinstance(size, int) else None,
                1e6 / phase.rate_iops,
            )
            self._phase_derived = derived
        return derived

    def _next_gap(self) -> float:
        phase = self.phases[min(self._phase_idx, len(self.phases) - 1)]
        return float(self._rng.exponential(self._derived_for(phase)[5]))

    def _draw_size(self, phase: PhaseSpec) -> int:
        size = phase.size_blocks
        if isinstance(size, int):
            return size
        choices, probs = size
        return int(self._rng.choice(choices, p=probs))

    def _arrive(self) -> None:
        phase = self._current_phase()
        if phase is None:
            self.stats.finished = True
            return
        if self._outstanding >= self.max_outstanding:
            self.stats.throttled += 1
            self._throttled = True
            return  # resumed by on_request_complete
        rng = self._rng
        # One arrival per event.  Phase-derived lookups are cached until
        # the phase changes; RNG draw order is untouched.
        derived = self._derived_for(phase)
        _, write_frac, sample_read, sample_write, fixed_size, mean_gap = derived
        is_write = bool(rng.random() < write_frac)
        lba = sample_write(rng) if is_write else sample_read(rng)
        nblocks = fixed_size if fixed_size is not None else self._draw_size(phase)
        request = Request(self._sim.now, lba, nblocks, is_write)
        stats = self.stats
        stats.generated += 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        self._outstanding += 1
        self._submit(request)
        # _next_gap inlined: the active phase is already in hand.  Both
        # draw sources return a Python float already.
        self._sim.schedule_call(rng.exponential(mean_gap), self._arrive)

    def _deliver(self, *args: object) -> None:
        """Retired arrival entry point: nothing calls it.

        The benchmark's tracer (``simbench/tracing.py``) still wraps
        ``Workload._deliver`` by name; delete this together with that
        entry.
        """
        raise NotImplementedError("Workload._deliver is retired; arrivals use _arrive")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workload({self.name!r}, phases={len(self.phases)}, "
            f"intervals={self.total_intervals})"
        )
