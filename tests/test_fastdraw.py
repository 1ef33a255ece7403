"""Unit tests for the raw-word draw replication (repro.sim.fastdraw).

Three layers: draw-for-draw checks of :class:`RawDraws` against a live
``numpy.random.Generator``, the same check one level up through every
address pattern a workload can sample through ``RawDraws``, and
end-to-end equivalence of the two arrival draw sources (same scenario,
``RawDraws`` vs ``Generator``, identical stats fingerprints).
"""

import numpy as np
import pytest

import repro.workloads.base as workload_base
from repro.config import quick_config
from repro.scenario import get_scenario
from repro.scenario.fingerprint import stats_fingerprint
from repro.sim.engine import Simulator
from repro.sim.fastdraw import RawDraws, replication_verified
from repro.workloads.access_patterns import (
    HotColdPattern,
    MixPattern,
    SequentialPattern,
    UniformPattern,
    ZipfPattern,
)
from repro.workloads.base import PhaseSpec, Workload


def _pair(seed: int, block: int = 64):
    """A reference Generator and a RawDraws over the same seed."""
    ref = np.random.Generator(np.random.PCG64(seed))
    bg = np.random.PCG64(seed)
    return ref, bg, RawDraws(bg, block=block)


class TestRawDraws:
    def test_random_matches_generator(self):
        ref, _bg, raw = _pair(1234)
        assert [raw.random() for _ in range(500)] == [
            ref.random() for _ in range(500)
        ]

    def test_integers_matches_generator_across_spans(self):
        # Small spans share 32-bit half-words; spans past 2**32 consume
        # whole words; span 1 consumes no entropy at all.
        ref, _bg, raw = _pair(99)
        for span in (1, 2, 3, 10, 255, 4096, 1 << 20, 1 << 32, (1 << 40) + 13):
            for _ in range(50):
                assert raw.integers(7, 7 + span) == int(ref.integers(7, 7 + span))

    def test_exponential_matches_generator(self):
        ref, _bg, raw = _pair(7)
        # Enough draws to hit the ziggurat's wedge/tail branches (~1%).
        for _ in range(5_000):
            assert raw.standard_exponential() == float(ref.standard_exponential())
        for _ in range(100):
            assert raw.exponential(17.5) == float(ref.exponential(17.5))

    def test_interleaved_mix_matches_generator(self):
        # The arrival loop's shape: a data-dependent interleave where one
        # draw decides which distribution samples next.
        ref, _bg, raw = _pair(20190325)
        for _ in range(2_000):
            u = raw.random()
            assert u == ref.random()
            if u < 0.5:
                assert raw.integers(0, 997) == int(ref.integers(0, 997))
            else:
                assert raw.exponential(3.0) == float(ref.exponential(3.0))

    def test_inherits_existing_halfword_carry(self):
        # A generator mid-stream (odd bounded draw already made) must be
        # picked up carry and all.
        ref = np.random.Generator(np.random.PCG64(8080))
        bg = np.random.PCG64(8080)
        pre = np.random.Generator(bg)
        assert int(pre.integers(0, 100)) == int(ref.integers(0, 100))
        raw = RawDraws(bg, block=16)
        for _ in range(10):
            assert raw.integers(0, 100) == int(ref.integers(0, 100))

    def test_non_pcg64_rejected(self):
        with pytest.raises(ValueError):
            RawDraws(np.random.MT19937(3))

    def test_replication_verified_on_this_numpy(self):
        # The installed numpy must pass the cross-check — otherwise the
        # simulator silently runs the slow path and the equivalence
        # tests below are vacuous.
        assert replication_verified()


#: Fresh-pattern factories: every pattern kind the RawDraws source
#: accepts, including a stateful one inside a mixture.
_PATTERNS = {
    "uniform": lambda: UniformPattern(100, 4099),
    "zipf": lambda: ZipfPattern(0, 2990, s=1.1, perm_seed=3),
    "hotcold": lambda: HotColdPattern(0, 97, 1000, 98304, hot_prob=0.8),
    "sequential": lambda: SequentialPattern(50, 1000, stride=7),
    "mix_with_sequential": lambda: MixPattern(
        [
            (0.5, UniformPattern(0, 10_007)),
            (0.3, SequentialPattern(20_000, 500, stride=2)),
            (0.2, ZipfPattern(30_000, 640, s=0.9)),
        ]
    ),
}


class TestPatternsThroughRawDraws:
    @pytest.mark.parametrize("kind", sorted(_PATTERNS))
    def test_pattern_samples_match_generator(self, kind):
        ref, _bg, raw = _pair(4242)
        via_ref, via_raw = _PATTERNS[kind](), _PATTERNS[kind]()
        for _ in range(3_000):
            assert via_raw.sample(raw) == via_ref.sample(ref)


class TestDrawSourceEquivalence:
    """The RawDraws draw source must be invisible in every statistic.

    ``replication_verified`` returning ``False`` is the one condition
    under which a workload binds to its ``Generator``, so patching it
    forces the ``Generator`` source for the comparison run.
    """

    @staticmethod
    def _force_generator(monkeypatch):
        monkeypatch.setattr(workload_base, "replication_verified", lambda: False)

    def _fingerprint(self, scenario: str) -> dict:
        result = get_scenario(scenario).run(config=quick_config(7))
        return stats_fingerprint(result)

    @pytest.mark.parametrize(
        "scenario",
        [
            # Single VM: the plain open-loop path.
            "fig4_single_vm",
            # Multi-tenant with arrivals/departures mid-run: tenants
            # bound and stopped mid-run, closed-loop phases.
            "churn_consolidated",
            # Three tenants under backpressure most of the run.
            "consolidated3_dynshare",
        ],
    )
    def test_raw_draws_match_generator(self, scenario, monkeypatch):
        raw = self._fingerprint(scenario)
        self._force_generator(monkeypatch)
        generator = self._fingerprint(scenario)
        assert raw == generator

    def _saturated_run(self, wl):
        """Drive ``wl`` closed-loop at saturation; returns arrival times.

        Completions lag arrivals badly (100 µs service vs ~10 µs gaps),
        so the concurrency bound is pinned and every resume delivers
        only a couple of arrivals before throttling again.
        """
        sim = Simulator()
        times = []

        def submit(req):
            times.append(req.arrival)
            sim.schedule_call(100.0, wl.on_request_complete, req)

        wl.bind(sim, submit, np.random.default_rng(2019))
        sim.run(until=wl.duration_us)
        return times

    def _workload(self, size_blocks=1):
        return Workload(
            "t",
            [
                PhaseSpec(
                    label="sat",
                    n_intervals=4,
                    rate_iops=100_000.0,
                    write_frac=0.5,
                    pattern_read=UniformPattern(0, 1000),
                    size_blocks=size_blocks,
                )
            ],
            interval_us=10_000.0,
            max_outstanding=4,
        )

    def test_saturated_closed_loop_matches_generator(self, monkeypatch):
        wl = self._workload()
        raw = self._saturated_run(wl)
        assert isinstance(wl._rng, RawDraws)
        assert wl.stats.throttled > 100  # the bound really was pinned
        self._force_generator(monkeypatch)
        wl = self._workload()
        generator = self._saturated_run(wl)
        assert isinstance(wl._rng, np.random.Generator)
        assert raw == generator

    def test_drawn_sizes_bind_to_generator(self):
        # RawDraws does not decode Generator.choice, so a phase with a
        # (choices, probabilities) size keeps the whole workload on the
        # Generator.
        wl = self._workload(size_blocks=((1, 8), (0.75, 0.25)))
        times = self._saturated_run(wl)
        assert isinstance(wl._rng, np.random.Generator)
        assert len(times) > 100
