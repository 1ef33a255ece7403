"""Unit tests for the discrete-event simulator."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.schedule(2.0, fired.append, "early")
        sim.schedule(3.5, fired.append, "middle")
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_simultaneous_events_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(7.25, lambda: None)
        sim.run()
        assert sim.now == 7.25

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        times = []
        sim.schedule_at(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [4.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_scheduling_into_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_zero_delay_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, fired.append, 1)
        sim.run()
        assert fired == [1]

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0


NAN = float("nan")


def _nop():
    pass


class TestNaNRejected:
    """NaN fails every ``<`` check, so each entry point tests ``not >=``."""

    @pytest.mark.parametrize(
        "method, args",
        [
            ("schedule", (NAN, _nop)),
            ("schedule_call", (NAN, _nop)),
            ("schedule_at", (NAN, _nop)),
            ("schedule_calls", ([(1.0, _nop, ()), (NAN, _nop, ())],)),
            ("schedule_reserved", (NAN, 0, _nop)),
        ],
    )
    def test_nan_time_rejected(self, method, args):
        sim = Simulator()
        with pytest.raises(SimulationError):
            getattr(sim, method)(*args)
        assert sim.pending_events == 0
        assert sim.schedule(1.0, _nop).seq == 0


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["a", "b"]

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_run_until_with_empty_heap_advances_clock(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, fired.append, "x")
        sim.cancel(ev)
        sim.run()
        assert fired == []

    def test_cancel_is_lazy_but_counted_out(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.cancel(ev)
        assert sim.pending_events == 1  # still in heap
        sim.run()
        assert sim.events_processed == 0

    def test_cancel_one_of_many(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(1.0, fired.append, "keep")
        drop = sim.schedule(1.0, fired.append, "drop")
        sim.cancel(drop)
        sim.run()
        assert fired == ["keep"]
        assert keep.active


def _chain(sim, times, fired, label=""):
    """Replay-style chain: reserve ``len(times)`` numbers now, keep one
    entry pending, and push each next entry from the one that fires."""
    seq0 = sim.reserve_seqs(len(times))

    def fire(i):
        fired.append(f"{label}{i}")
        if i + 1 < len(times):
            sim.schedule_reserved(times[i + 1], seq0 + i + 1, fire, i + 1)

    sim.schedule_reserved(times[0], seq0, fire, 0)


class TestReservedScheduling:
    """reserve_seqs + schedule_reserved: one pending entry per chain."""

    def test_reserve_seqs_consumes_numbers_without_scheduling(self):
        sim = Simulator()
        assert sim.reserve_seqs(3) == 0
        assert sim.reserve_seqs(0) == 3  # an empty block takes nothing
        assert sim.pending_events == 0
        assert sim.schedule(1.0, _nop).seq == 3

    def test_reserved_chain_matches_schedule_call_loop(self):
        # Duplicate timestamps, and a single scheduled after the
        # reservation at a chain entry's time: the chain's entries keep
        # their reserved (earlier) numbers, exactly as inserting the
        # whole block at reservation time would.
        chained, looped = Simulator(), Simulator()
        got_c, got_l = [], []
        times = [1.0, 2.0, 2.0]
        _chain(chained, times, got_c)
        chained.schedule_call(2.0, got_c.append, "d")
        for i, t in enumerate(times):
            looped.schedule_call(t, got_l.append, f"{i}")
        looped.schedule_call(2.0, got_l.append, "d")
        chained.run()
        looped.run()
        assert got_c == got_l == ["0", "1", "2", "d"]
        assert chained.events_processed == looped.events_processed == 4

    def test_reserved_chain_keeps_one_entry_pending(self):
        sim = Simulator()
        fired = []
        _chain(sim, [float(i) for i in range(50)], fired)
        depths = []
        sim.schedule_call(2.5, lambda: depths.append(sim.pending_events))
        assert sim.pending_events == 2
        sim.run()
        assert depths == [1]  # only the chain's next arrival
        assert fired == [f"{i}" for i in range(50)]

    def test_reserved_entry_interleaves_with_existing_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.5, fired.append, "mid")
        _chain(sim, [1.0, 2.0], fired, label="c")
        sim.run()
        assert fired == ["c0", "mid", "c1"]

    def test_reserved_into_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, _nop)
        sim.run()
        seq = sim.reserve_seqs(1)
        with pytest.raises(SimulationError):
            sim.schedule_reserved(5.0, seq, _nop)
        assert sim.pending_events == 0

    def test_reserved_chain_drain_honours_stop(self):
        sim = Simulator()
        fired = []
        seq0 = sim.reserve_seqs(3)
        sim.schedule_reserved(1.0, seq0, fired.append, "a")
        sim.schedule_reserved(1.0, seq0 + 1, sim.stop)
        sim.schedule_reserved(1.0, seq0 + 2, fired.append, "c")
        sim.run()
        assert fired == ["a"]
        sim.run()  # resumes where stop() left off
        assert fired == ["a", "c"]


class TestBatchCallScheduling:
    """The dispatch-round fast path: schedule_calls."""

    def test_schedule_calls_matches_schedule_call_loop(self):
        batched, looped = Simulator(), Simulator()
        got_b, got_l = [], []
        delays = [(3.0, got_b.append, ("x",)), (1.0, got_b.append, ("y",)),
                  (1.0, got_b.append, ("z",))]
        batched.schedule_calls(delays)
        for d, _fn, args in delays:
            looped.schedule_call(d, got_l.append, *args)
        batched.run()
        looped.run()
        assert got_b == got_l == ["y", "z", "x"]

    def test_schedule_calls_negative_delay_is_atomic(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_calls(
                [(1.0, lambda: None, ()), (-0.5, lambda: None, ())]
            )
        assert sim.pending_events == 0
        assert sim.schedule(1.0, lambda: None).seq == 0


class TestScheduleCall:
    def test_schedule_call_fires_like_schedule(self):
        sim = Simulator()
        fired = []
        sim.schedule_call(2.0, fired.append, "x")
        sim.schedule(1.0, fired.append, "y")
        sim.run()
        assert fired == ["y", "x"]
        assert sim.events_processed == 2

    def test_schedule_call_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_call(-0.5, lambda: None)


class TestStepAndStop:
    def test_step_processes_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.step()
        assert fired == [1]
        assert sim.step()
        assert fired == [1, 2]
        assert not sim.step()

    def test_stop_interrupts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, lambda: sim.stop())
        sim.schedule(3.0, fired.append, 3)
        sim.run()
        assert fired == [1]
        sim.run()  # resumes
        assert fired == [1, 3]

    def test_stop_then_step_clears_stop_like_run_does(self):
        # Regression (ISSUE 2): step() used to bypass the _running/_stopped
        # bookkeeping and silently carry a stale stop() request across calls.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        sim.stop()
        assert sim.stop_requested
        assert sim.step()  # a prior stop() is cleared on entry, as in run()
        assert fired == [1]
        assert not sim.stop_requested
        sim.run()
        assert fired == [1, 2]

    def test_step_maintains_running_flag(self):
        sim = Simulator()
        observed = []
        sim.schedule(1.0, lambda: observed.append(sim.running))
        assert not sim.running
        sim.step()
        assert observed == [True]
        assert not sim.running

    def test_stop_during_step_is_visible_afterwards(self):
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: None)
        sim.step()
        assert sim.stop_requested  # recorded, and cleared by the next run()
        sim.run()
        assert sim.events_processed == 2

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(ev)
        assert sim.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert Simulator().peek_time() is None


class TestCounters:
    def test_events_processed_counts_only_executed(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        ev = sim.schedule(2.0, lambda: None)
        sim.cancel(ev)
        sim.run()
        assert sim.events_processed == 5
