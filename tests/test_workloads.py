"""Unit tests for address patterns and the workload engine."""

import numpy as np
import pytest

from repro.io.request import Request
from repro.sim.engine import Simulator
from repro.workloads.access_patterns import (
    HotColdPattern,
    MixPattern,
    SequentialPattern,
    UniformPattern,
    ZipfPattern,
)
from repro.workloads.base import PhaseSpec, Workload
from repro.workloads.mail import MAIL_TOTAL_INTERVALS, mail_server_workload
from repro.workloads.synthetic import (
    random_read_workload,
    sequential_read_workload,
)
from repro.workloads.tpcc import TPCC_TOTAL_INTERVALS, tpcc_workload
from repro.workloads.web import WEB_TOTAL_INTERVALS, web_server_workload


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestPatterns:
    def test_uniform_in_range(self, rng):
        pat = UniformPattern(100, 50)
        samples = [pat.sample(rng) for _ in range(500)]
        assert all(100 <= s < 150 for s in samples)
        assert pat.footprint == 50

    def test_uniform_invalid_span(self):
        with pytest.raises(ValueError):
            UniformPattern(0, 0)

    def test_zipf_skews_toward_few_blocks(self, rng):
        pat = ZipfPattern(0, 1000, s=1.2)
        samples = [pat.sample(rng) for _ in range(5000)]
        assert all(0 <= s < 1000 for s in samples)
        top = max(set(samples), key=samples.count)
        assert samples.count(top) > 5000 / 1000 * 10  # far above uniform share

    def test_zipf_deterministic_permutation(self, rng):
        a = ZipfPattern(0, 100, s=1.1, perm_seed=5)
        b = ZipfPattern(0, 100, s=1.1, perm_seed=5)
        r1 = np.random.default_rng(1)
        r2 = np.random.default_rng(1)
        assert [a.sample(r1) for _ in range(50)] == [b.sample(r2) for _ in range(50)]

    def test_zipf_invalid_params(self):
        with pytest.raises(ValueError):
            ZipfPattern(0, 0)
        with pytest.raises(ValueError):
            ZipfPattern(0, 10, s=0)

    def test_hotcold_ratio(self, rng):
        pat = HotColdPattern(0, 10, 1000, 1000, hot_prob=0.9)
        samples = [pat.sample(rng) for _ in range(5000)]
        hot = sum(1 for s in samples if s < 10)
        assert 0.85 < hot / len(samples) < 0.95

    def test_hotcold_invalid_prob(self):
        with pytest.raises(ValueError):
            HotColdPattern(0, 10, 100, 10, hot_prob=1.5)

    def test_sequential_advances_and_wraps(self, rng):
        pat = SequentialPattern(100, 10, stride=4)
        lbas = [pat.sample(rng) for _ in range(5)]
        assert lbas == [100, 104, 108, 102, 106]
        pat.reset()
        assert pat.sample(rng) == 100

    def test_mix_pattern_weights(self, rng):
        pat = MixPattern([(0.9, UniformPattern(0, 10)), (0.1, UniformPattern(1000, 10))])
        samples = [pat.sample(rng) for _ in range(2000)]
        low = sum(1 for s in samples if s < 10)
        assert 0.8 < low / len(samples) < 0.97

    def test_mix_pattern_invalid(self):
        with pytest.raises(ValueError):
            MixPattern([])


class TestPhaseSpec:
    def _phase(self, **kw):
        base = dict(
            label="p",
            n_intervals=5,
            rate_iops=100.0,
            write_frac=0.5,
            pattern_read=UniformPattern(0, 100),
        )
        base.update(kw)
        return PhaseSpec(**base)

    def test_defaults_valid(self):
        self._phase().validate()

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            self._phase(n_intervals=0).validate()
        with pytest.raises(ValueError):
            self._phase(rate_iops=0).validate()
        with pytest.raises(ValueError):
            self._phase(write_frac=1.5).validate()

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, rate):
        # NaN slips past a "<= 0" test and would schedule NaN-time
        # arrivals; inf would schedule them all at one instant.
        with pytest.raises(ValueError, match="'burst'.*rate_iops must be finite"):
            self._phase(label="burst", rate_iops=rate).validate()

    def test_write_pattern_defaults_to_read(self):
        p = self._phase()
        assert p.write_pattern is p.pattern_read


class TestWorkloadEngine:
    def _one_phase(self, rate=1000.0, n_intervals=4, write_frac=0.5):
        return Workload(
            "t",
            [
                PhaseSpec(
                    label="only",
                    n_intervals=n_intervals,
                    rate_iops=rate,
                    write_frac=write_frac,
                    pattern_read=UniformPattern(0, 1000),
                )
            ],
            interval_us=10_000.0,
        )

    def test_duration_and_intervals(self):
        wl = self._one_phase(n_intervals=4)
        assert wl.total_intervals == 4
        assert wl.duration_us == 40_000.0

    def test_generates_poisson_arrivals(self, rng):
        sim = Simulator()
        wl = self._one_phase(rate=1000.0, n_intervals=10)
        got: list[Request] = []

        def submit(req):
            got.append(req)
            req.add_wait()
            sim.schedule(10.0, req.op_done, sim.now + 10.0)
            sim.schedule(10.0, wl.on_request_complete, req)

        wl.bind(sim, submit, rng)
        sim.run(until=wl.duration_us)
        # 1000 IOPS over 0.1 s → ~100 arrivals
        assert 60 <= len(got) <= 140
        assert wl.stats.generated == len(got)

    def test_read_write_split(self, rng):
        sim = Simulator()
        wl = self._one_phase(rate=5000.0, n_intervals=10, write_frac=0.8)
        got = []

        def submit(req):
            got.append(req)
            wl.on_request_complete(req)

        wl.bind(sim, submit, rng)
        sim.run(until=wl.duration_us)
        frac = sum(1 for r in got if r.is_write) / len(got)
        assert 0.7 < frac < 0.9

    def test_backpressure_throttles(self, rng):
        sim = Simulator()
        wl = Workload(
            "t",
            [
                PhaseSpec(
                    label="burst",
                    n_intervals=2,
                    rate_iops=100_000.0,
                    write_frac=0.0,
                    pattern_read=UniformPattern(0, 100),
                )
            ],
            interval_us=10_000.0,
            max_outstanding=16,
        )
        outstanding = []

        def submit(req):
            outstanding.append(req)  # never completed

        wl.bind(sim, submit, rng)
        sim.run(until=wl.duration_us)
        assert len(outstanding) == 16
        assert wl.stats.throttled >= 1

    def test_completion_resumes_after_throttle(self, rng):
        sim = Simulator()
        wl = self._one_phase(rate=50_000.0, n_intervals=4)
        wl.max_outstanding = 8
        done = []

        def submit(req):
            done.append(req)
            # complete instantly → backpressure opens again
            sim.schedule(1.0, wl.on_request_complete, req)

        wl.bind(sim, submit, rng)
        sim.run(until=wl.duration_us)
        assert len(done) > 8

    def test_phase_boundaries_respected(self, rng):
        sim = Simulator()
        slow = PhaseSpec("slow", 2, 100.0, 0.0, UniformPattern(0, 10))
        fast = PhaseSpec("fast", 2, 10_000.0, 0.0, UniformPattern(0, 10))
        wl = Workload("t", [slow, fast], interval_us=10_000.0)
        times = []

        def submit(req):
            times.append(req.arrival)
            wl.on_request_complete(req)

        wl.bind(sim, submit, rng)
        sim.run(until=wl.duration_us)
        early = sum(1 for t in times if t < 20_000.0)
        late = sum(1 for t in times if t >= 20_000.0)
        assert late > early * 5

    def test_burst_intervals_annotation(self):
        p1 = PhaseSpec("a", 3, 100.0, 0.0, UniformPattern(0, 10))
        p2 = PhaseSpec("b", 2, 100.0, 0.0, UniformPattern(0, 10), burst=True)
        wl = Workload("t", [p1, p2], interval_us=1000.0)
        assert wl.burst_intervals() == [3, 4]

    def test_empty_phases_rejected(self):
        with pytest.raises(ValueError):
            Workload("t", [], interval_us=1000.0)


class TestPaperWorkloads:
    def test_interval_counts_match_paper_axes(self):
        assert tpcc_workload(1000.0).total_intervals == TPCC_TOTAL_INTERVALS == 200
        assert mail_server_workload(1000.0).total_intervals == MAIL_TOTAL_INTERVALS == 200
        assert web_server_workload(1000.0).total_intervals == WEB_TOTAL_INTERVALS == 175

    def test_tpcc_is_read_dominated(self):
        wl = tpcc_workload(1000.0)
        assert all(p.write_frac < 0.05 for p in wl.phases)

    def test_mail_phases_follow_paper_timeline(self):
        wl = mail_server_workload(1000.0)
        labels = [p.label for p in wl.phases]
        assert labels.index("mixed-rw-burst") == 1
        starts = []
        acc = 0
        for p in wl.phases:
            starts.append(acc)
            acc += p.n_intervals
        assert starts[1] == 23  # paper's RO burst
        assert starts[2] == 128  # paper's WO burst
        assert starts[3] == 134  # paper's WB burst

    def test_web_burst_at_first_interval(self):
        wl = web_server_workload(1000.0)
        assert wl.phases[0].n_intervals == 1
        assert wl.phases[1].burst

    def test_warm_sets_fit_cache(self):
        for factory in (tpcc_workload, mail_server_workload, web_server_workload):
            wl = factory(1000.0, cache_blocks=4096)
            warm = len(wl.warm_blocks) + len(wl.warm_dirty_blocks)
            assert warm <= 4096

    def test_rate_scale_scales_rates(self):
        a = tpcc_workload(1000.0, rate_scale=1.0)
        b = tpcc_workload(1000.0, rate_scale=0.5)
        assert b.phases[0].rate_iops == pytest.approx(a.phases[0].rate_iops * 0.5)

    def test_synthetic_factories_build(self):
        assert random_read_workload(1000.0).total_intervals == 20
        assert sequential_read_workload(1000.0).phases[0].size_blocks == 8
