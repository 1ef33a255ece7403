"""Tests for streaming trace replay: chunked scheduling, equivalence, edges."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import quick_config
from repro.experiments.system import ExperimentSystem
from repro.io.request import OpTag
from repro.scenario.fingerprint import stats_fingerprint
from repro.scenario.spec import scenario_from_dict
from repro.sim.engine import Simulator
from repro.trace.parser import TraceParseError, iter_trace
from repro.trace.records import TraceRecord
from repro.trace.synth import synthetic_trace
from repro.workloads.replay import CHUNK_RECORDS, ReplayWorkload


def rec(time, lba=0, n=1, is_write=False, action="Q", tag=None, op_id=0):
    if tag is None:
        tag = OpTag.WRITE if is_write else OpTag.READ
    return TraceRecord(time, "ssd", action, tag, is_write, lba, n, op_id)


class TestModeSelection:
    def test_list_defaults_to_materialized(self):
        wl = ReplayWorkload([rec(1.0)])
        assert not wl.streaming
        assert len(wl.records) == 1

    def test_generator_defaults_to_streaming(self):
        wl = ReplayWorkload(iter([rec(1.0)]))
        assert wl.streaming

    def test_list_can_be_forced_streaming(self):
        wl = ReplayWorkload([rec(1.0)], streaming=True)
        assert wl.streaming
        assert not hasattr(wl, "records")

    def test_exactly_one_source_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            ReplayWorkload()
        with pytest.raises(ValueError, match="exactly one"):
            ReplayWorkload([rec(1.0)], streams=[[rec(1.0)]])

    def test_streams_cannot_be_materialized(self):
        with pytest.raises(ValueError, match="always streaming"):
            ReplayWorkload(streams=[[rec(1.0)]], streaming=False)

    def test_chunk_records_validated(self):
        with pytest.raises(ValueError):
            ReplayWorkload(iter([]), chunk_records=0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            ReplayWorkload(iter([]), duration_us=-1.0)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("time_scale", float("nan")),
            ("time_scale", float("inf")),
            ("duration_us", float("nan")),
            ("duration_us", float("inf")),
            ("chunk_records", 1.9),
            ("chunk_records", True),
        ],
    )
    def test_non_finite_or_non_int_argument_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            ReplayWorkload(iter([rec(1.0)]), **{key: value})


class TestStreamingExecution:
    def test_arrivals_match_materialized(self, sim):
        records = [rec(10.0 * i, lba=i, op_id=i) for i in range(10)]
        streamed = []
        wl = ReplayWorkload(iter(records), chunk_records=3)
        wl.bind(sim, lambda r: streamed.append((sim.now, r.lba)), None)
        sim.run()
        assert streamed == [(10.0 * i, i) for i in range(10)]
        assert wl.stats.generated == 10
        assert wl.stats.finished

    def test_multiple_chunks_refill(self, sim):
        n = CHUNK_RECORDS + 100
        wl = ReplayWorkload(synthetic_trace(n, seed=3))
        count = [0]

        def sink(request):
            count[0] += 1

        wl.bind(sim, sink, None)
        sim.run()
        assert count[0] == n
        assert wl.stats.finished

    def test_skipped_counted_lazily(self, sim):
        records = [
            rec(1.0),
            rec(2.0, action="D"),  # dispatch: skipped
            rec(3.0, tag=OpTag.PROMOTE, is_write=True),  # cache traffic
            rec(4.0),
        ]
        wl = ReplayWorkload(iter(records))
        wl.bind(sim, lambda r: None, None)
        sim.run()
        assert wl.stats.generated == 2
        assert wl.stats.skipped == 2

    def test_time_scale_applied(self, sim):
        wl = ReplayWorkload(iter([rec(100.0)]), time_scale=0.5)
        arrivals = []
        wl.bind(sim, lambda r: arrivals.append(sim.now), None)
        sim.run()
        assert arrivals == [50.0]

    def test_late_bind_clamps_to_floor(self, sim):
        """Arrivals before bind-time are clamped, not scheduled in the past."""
        sim.schedule_at(500.0, lambda: None)
        sim.run()
        wl = ReplayWorkload(iter([rec(100.0), rec(600.0)]))
        arrivals = []
        wl.bind(sim, lambda r: arrivals.append(sim.now), None)
        sim.run()
        assert arrivals == [500.0, 600.0]

    def test_empty_streaming_trace(self, sim):
        wl = ReplayWorkload(iter([]))
        wl.bind(sim, lambda r: None, None)
        assert wl.stats.finished
        assert wl.duration_us == 0.0


class TestChunkAtomicity:
    def test_parse_error_mid_chunk_schedules_nothing_from_it(self, sim, tmp_path):
        """A malformed line surfacing mid-chunk must not leave a partial
        chunk scheduled: complete chunks replay, the failing chunk is
        atomic."""
        path = tmp_path / "broken.trace"
        good = "\n".join(f"{10.0 * (i + 1)} ssd Q R R {i} 1 {i}" for i in range(6))
        path.write_text(good + "\nthis line is garbage\n")
        wl = ReplayWorkload(iter_trace(path), chunk_records=4)
        arrivals = []
        wl.bind(sim, lambda r: arrivals.append(r.lba), None)
        with pytest.raises(TraceParseError) as err:
            sim.run()
        # chunk 1 (records 0-3) replayed; chunk 2 hit the bad line while
        # being pulled, so records 4-5 never became arrivals
        assert arrivals == [0, 1, 2, 3]
        assert err.value.lineno == 7
        assert err.value.path == str(path)

    def test_error_in_first_chunk_fails_at_bind(self, sim, tmp_path):
        path = tmp_path / "broken.trace"
        path.write_text("garbage\n")
        wl = ReplayWorkload(iter_trace(path))
        with pytest.raises(TraceParseError):
            wl.bind(sim, lambda r: None, None)
        sim.run()
        assert sim.events_processed == 0  # nothing was scheduled

    def test_unsorted_across_chunk_boundary_rejected(self, sim):
        records = [rec(10.0), rec(20.0), rec(5.0), rec(30.0)]
        wl = ReplayWorkload(iter(records), chunk_records=2)
        wl.bind(sim, lambda r: None, None)
        with pytest.raises(ValueError, match="chunk boundary"):
            sim.run()

    def test_nan_time_in_first_chunk_fails_at_bind(self, sim):
        wl = ReplayWorkload(iter([rec(10.0), rec(float("nan"))]))
        with pytest.raises(ValueError, match="NaN"):
            wl.bind(sim, lambda r: None, None)
        assert sim.pending_events == 0

    def test_nan_time_mid_stream_schedules_nothing_from_its_chunk(self, sim):
        records = [rec(10.0, lba=0), rec(20.0, lba=1), rec(30.0, lba=2)]
        records.append(rec(float("nan"), lba=3))
        wl = ReplayWorkload(iter(records), chunk_records=2)
        arrivals = []
        wl.bind(sim, lambda r: arrivals.append(r.lba), None)
        with pytest.raises(ValueError, match="NaN"):
            sim.run()
        assert arrivals == [0, 1]
        assert sim.pending_events == 0

    def test_nan_time_in_materialized_script_fails_at_bind(self, sim):
        wl = ReplayWorkload([rec(10.0), rec(float("nan"))])
        with pytest.raises(ValueError, match="NaN"):
            wl.bind(sim, lambda r: None, None)
        assert sim.pending_events == 0

    def test_unsorted_within_chunk_tolerated(self, sim):
        """Within a chunk the pull sorts, so local jitter is fine."""
        records = [rec(20.0, op_id=0), rec(10.0, op_id=1)]
        wl = ReplayWorkload(iter(records), chunk_records=4)
        arrivals = []
        wl.bind(sim, lambda r: arrivals.append(sim.now), None)
        sim.run()
        assert arrivals == [10.0, 20.0]


class TestDuration:
    def test_streaming_duration_unknown_until_exhausted(self):
        wl = ReplayWorkload(synthetic_trace(CHUNK_RECORDS * 2, seed=1))
        with pytest.raises(ValueError, match="duration_us"):
            wl.duration_us

    def test_explicit_duration_wins(self):
        wl = ReplayWorkload(synthetic_trace(10, seed=1), duration_us=123.0)
        assert wl.duration_us == 123.0

    def test_single_chunk_trace_knows_duration_after_bind(self, sim):
        wl = ReplayWorkload(iter([rec(10.0), rec(40.0)]), chunk_records=16)
        wl.bind(sim, lambda r: None, None)
        sim.run()
        assert wl.duration_us == 40.0

    def test_materialized_duration_still_computed(self):
        assert ReplayWorkload([rec(40.0), rec(10.0)]).duration_us == 40.0


class TestCalendar:
    """Replay keeps one pending arrival; event order is unchanged."""

    def test_event_tied_with_an_arrival_fires_after_it(self, sim):
        # Events scheduled after a chunk was pulled take later sequence
        # numbers than the chunk's arrivals, even though each arrival
        # enters the calendar only when the one before it fires.  The
        # 30.0 event is scheduled before chunk 2 is pulled, so it fires
        # before the 30.0 arrival.
        records = [rec(10.0 * i, lba=i) for i in (1, 2, 3, 4)]
        wl = ReplayWorkload(iter(records), chunk_records=2)
        fired = []
        wl.bind(sim, lambda r: fired.append(f"a{r.lba}"), None)
        sim.schedule_at(20.0, fired.append, "tie20")
        sim.schedule_at(30.0, fired.append, "tie30")
        sim.run()
        assert fired == ["a1", "a2", "tie20", "tie30", "a3", "a4"]

    @pytest.mark.parametrize("chunk_records", [1, 7, CHUNK_RECORDS, 20_000])
    def test_at_most_one_replay_entry_pending(self, sim, chunk_records):
        wl = ReplayWorkload(
            synthetic_trace(10_000, seed=4), chunk_records=chunk_records
        )
        wl.bind(sim, lambda r: depths.append(sim.pending_events), None)
        depths = [sim.pending_events]
        sim.run()
        assert wl.stats.generated == 10_000
        # one entry after bind; none while an arrival is being submitted
        assert depths[0] == 1
        assert max(depths[1:]) == 0


def _digest(result):
    text = json.dumps(stats_fingerprint(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestFullStackGolden:
    """Replay through the whole cache and device stack must reproduce
    the digests the batch-scheduling implementation produced."""

    @staticmethod
    def scenario(**trace_changes):
        spec = json.loads(Path("examples/scenarios/trace_replay.json").read_text())
        trace = spec["workload"]["trace"]
        for key, value in trace_changes.items():
            if value is None:
                del trace[key]
            else:
                trace[key] = value
        return scenario_from_dict(spec)

    @pytest.mark.parametrize(
        "changes, digest",
        [
            (
                {},
                "af756e62a550a8b220f3b199c8fc1b122486cfcac793898cd69451554ade3161",
            ),
            (
                {"interleave": None, "lba_stride_blocks": None, "chunk_records": 7},
                "b0f87862474026710be4a8a5d742692b531341927d7f285f116e8376d39a593a",
            ),
            (
                {"interleave": None, "lba_stride_blocks": None, "streaming": False},
                "b0f87862474026710be4a8a5d742692b531341927d7f285f116e8376d39a593a",
            ),
        ],
        ids=["interleaved", "streaming_chunk7", "materialized"],
    )
    def test_digest_matches_golden(self, changes, digest):
        assert _digest(self.scenario(**changes).run()) == digest


class TestMultiTenantStreams:
    def test_streams_tag_tenant_ids(self, sim):
        a = [rec(0.0, lba=1), rec(20.0, lba=2)]
        b = [rec(10.0, lba=100), rec(30.0, lba=200)]
        wl = ReplayWorkload(streams=[iter(a), iter(b)])
        arrivals = []
        wl.bind(sim, lambda r: arrivals.append((sim.now, r.tenant_id)), None)
        sim.run()
        assert arrivals == [(0.0, 0), (10.0, 1), (20.0, 0), (30.0, 1)]
        assert wl.stats.generated == 4

    def test_streams_skip_counting_covers_all_streams(self, sim):
        a = [rec(0.0), rec(1.0, action="D")]
        b = [rec(0.5, action="C")]
        wl = ReplayWorkload(streams=[iter(a), iter(b)])
        wl.bind(sim, lambda r: None, None)
        sim.run()
        assert wl.stats.generated == 1
        assert wl.stats.skipped == 2


class TestStreamedEqualsMaterialized:
    def test_stats_fingerprint_identical(self):
        """The tentpole guarantee: streamed and materialized replay of the
        same trace produce bit-identical run statistics."""
        cfg = quick_config(7)
        horizon = 3_000 * 50.0

        def run(workload):
            return ExperimentSystem(workload, "lbica", cfg).run(until_us=horizon)

        materialized = run(ReplayWorkload(list(synthetic_trace(3_000, seed=7))))
        streamed = run(
            ReplayWorkload(synthetic_trace(3_000, seed=7), chunk_records=256)
        )
        assert stats_fingerprint(streamed) == stats_fingerprint(materialized)
        assert streamed.workload_stats == materialized.workload_stats

    def test_run_result_reports_skipped_records(self):
        cfg = quick_config(7)
        records = [rec(50.0, n=8), rec(60.0, action="D", n=8), rec(70.0, n=8)]
        wl = ReplayWorkload(iter(records), duration_us=100.0)
        result = ExperimentSystem(wl, "wb", cfg).run(until_us=5_000.0)
        assert result.workload_stats["generated"] == 2
        assert result.workload_stats["skipped"] == 1

    def test_non_replay_runs_omit_skipped_key(self):
        """Keeps every committed golden fingerprint byte-identical."""
        from repro.workloads.synthetic import mixed_read_write_workload

        cfg = quick_config()
        wl = mixed_read_write_workload(
            cfg.interval_us, n_intervals=2, cache_blocks=cfg.cache_blocks
        )
        result = ExperimentSystem(wl, "wb", cfg).run()
        assert "skipped" not in result.workload_stats


class TestConstantMemory:
    def test_rss_independent_of_trace_length(self):
        """Replaying 8x the records must not grow resident memory by more
        than noise: the streaming chunker holds one chunk, never the
        trace."""
        import re
        from pathlib import Path

        status = Path("/proc/self/status")
        if not status.exists():
            pytest.skip("no /proc/self/status on this platform")

        def rss_kb():
            match = re.search(r"VmRSS:\s+(\d+) kB", status.read_text())
            assert match is not None
            return int(match.group(1))

        def replay(n):
            sim = Simulator()
            wl = ReplayWorkload(synthetic_trace(n, seed=5), duration_us=n * 75.0)
            wl.bind(sim, lambda r: None, None)
            sim.run()
            assert wl.stats.generated == n

        replay(50_000)  # warm up allocator pools and code paths
        before = rss_kb()
        replay(400_000)
        grown = rss_kb() - before
        assert grown < 32_768, f"streaming replay grew RSS by {grown} kB"
