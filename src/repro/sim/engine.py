"""The discrete-event simulation loop.

The :class:`Simulator` is a classic calendar queue built on :mod:`heapq`.
Components schedule callbacks at absolute or relative times; the loop pops
them in ``(time, seq)`` order and advances the clock.  There is no implicit
concurrency — everything that happens "at the same time" is serialized in
scheduling order, which keeps runs deterministic.

Hot-path design notes (this loop executes once per simulated I/O event,
so its constant factors dominate whole-run wall clock):

- The heap stores plain ``(time, seq, fn, args)`` tuples.  Tuple
  comparison happens in C on ``(time, seq)`` (``seq`` is unique, so the
  callback fields are never compared), and dispatch calls ``fn(*args)``
  straight off the entry.  Nothing is ever cancelled, so every popped
  entry runs.
- Callbacks are plain ``fn(*args)`` invocations — schedule bound methods
  plus positional arguments rather than closures, so the per-event cost
  is one call with no cell-variable indirection and no per-event closure
  allocation.
- :meth:`run` is one loop for both the open-ended and the ``until``
  form, and it keeps :attr:`events_processed` live, so callbacks (the
  obs layer's interval snapshots) read the exact count mid-run.
- :meth:`reserve_seqs` + :meth:`schedule_reserved` let trace replay
  keep one pending arrival instead of a whole chunk: a chunk claims its
  block of sequence numbers up front and each arrival, when it fires,
  pushes the next under its reserved number.  Every entry pops under
  the ``(time, seq)`` key that inserting the whole chunk at once would
  give it, while the calendar stays a few entries deep.

Example:
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule_call(5.0, fired.append, "a")
    >>> sim.schedule_call(2.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from math import inf, isnan
from typing import Any, Callable

__all__ = ["Simulator", "SimulationError"]

#: One calendar entry: ``(time, seq, fn, args)``.
_HeapEntry = tuple[float, int, Callable[..., Any], "tuple[Any, ...]"]


class SimulationError(RuntimeError):
    """Raised on invalid scheduling (e.g. scheduling into the past)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Attributes:
        now: Current simulation time in microseconds.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[_HeapEntry] = []
        self._seq: int = 0
        self._events_processed: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_call(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` µs from now.

        Raises:
            SimulationError: If ``delay`` is negative or NaN.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"invalid delay {delay} µs (must be >= 0)")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, args))

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time`` (µs).

        Raises:
            SimulationError: If ``time`` is before the current time or NaN.
        """
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn, args))

    def reserve_seqs(self, n: int) -> int:
        """Claim ``n`` consecutive sequence numbers; returns the first.

        The numbers are consumed now, exactly as ``n`` back-to-back
        :meth:`schedule_call` invocations would consume them, but nothing
        enters the calendar until :meth:`schedule_reserved` pushes an
        entry under one of them.  Trace replay reserves a whole chunk
        this way and keeps only the next arrival pending: each entry
        pops under the ``(time, seq)`` key that inserting the whole chunk
        at once would give it, while the calendar stays small.
        """
        seq = self._seq
        self._seq = seq + n
        return seq

    def schedule_reserved(
        self, time: float, seq: int, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Schedule ``fn(*args)`` at absolute ``time`` under a reserved ``seq``.

        ``seq`` must come from :meth:`reserve_seqs` and be used once; the
        caller owns that contract (a reused number would make two keys
        tie).

        Raises:
            SimulationError: If ``time`` is before the current time or NaN.
        """
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(f"cannot schedule at t={time} (now is t={self.now})")
        heappush(self._heap, (time, seq, fn, args))

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Process events until the heap is empty or ``until`` is reached.

        Args:
            until: If given, stop once the next event would fire after this
                time, and fast-forward the clock to exactly ``until``.

        Raises:
            SimulationError: If ``until`` is NaN.
        """
        if until is not None and isnan(until):
            raise SimulationError("cannot run until t=nan")
        limit = inf if until is None else until
        heap = self._heap
        pop = heappop
        # The dispatch loop allocates heavily (heap entries, device ops,
        # requests) and almost everything dies young by refcount alone;
        # generational collection passes during the loop are pure
        # overhead (~10% of wall time).  Pause the cyclic collector and
        # restore it on exit — the isenabled() guard makes nested runs
        # and gc-disabled callers behave correctly.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap and heap[0][0] <= limit:
                time, _, fn, args = pop(heap)
                self.now = time
                self._events_processed += 1
                fn(*args)
        finally:
            if gc_was_enabled:
                gc.enable()
        if until is not None and self.now < until:
            self.now = until

    def step(self) -> bool:
        """Process exactly one event.

        Returns:
            ``True`` if an event was processed, ``False`` if the heap is
            empty.
        """
        heap = self._heap
        if not heap:
            return False
        time, _, fn, args = heappop(heap)
        self.now = time
        self._events_processed += 1
        fn(*args)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events still in the heap."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.1f}µs, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )
