"""Unit tests for the background writeback flusher."""

import pytest

from repro.cache.writeback import WritebackConfig, WritebackFlusher
from repro.io.request import Request


class TestConfig:
    def test_defaults_valid(self):
        WritebackConfig().validate()

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            WritebackConfig(interval_us=0).validate()
        with pytest.raises(ValueError):
            WritebackConfig(low_watermark=0.5, high_watermark=0.2).validate()
        with pytest.raises(ValueError):
            WritebackConfig(batch=-1).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("interval_us", float("nan")),
            ("interval_us", float("inf")),
            ("interval_us", -1.0),
            ("batch", float("nan")),
            ("batch", 2.0),
            ("batch", True),
            ("batch", "2"),
            ("panic_batch", -1),
            ("panic_batch", float("inf")),
            ("panic_batch", False),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            WritebackConfig(**{field: value}).validate()

    def test_zero_batches_allowed(self):
        WritebackConfig(batch=0, panic_batch=0).validate()


class TestFlusher:
    def _dirty_fill(self, sim, controller, n):
        for lba in range(n):
            req = Request(sim.now, lba, 1, True)
            controller.submit(req)
        sim.run()

    def test_idle_below_low_watermark(self, sim, controller, store):
        cfg = WritebackConfig(
            interval_us=100.0, low_watermark=0.5, high_watermark=0.9, batch=4
        )
        flusher = WritebackFlusher(sim, controller, cfg)
        self._dirty_fill(sim, controller, 4)  # dirty ratio 4/64 < 0.5
        flusher.start()
        sim.run(until=sim.now + 1000.0)
        assert flusher.flushes_started == 0

    def test_flushes_above_watermark(self, sim, controller, store):
        cfg = WritebackConfig(
            interval_us=100.0, low_watermark=0.01, high_watermark=0.9, batch=2
        )
        flusher = WritebackFlusher(sim, controller, cfg)
        self._dirty_fill(sim, controller, 16)
        flusher.start()
        sim.run(until=sim.now + 300.0)
        assert flusher.flushes_started > 0

    def test_zero_batch_starts_no_flush(self, sim, controller, store):
        cfg = WritebackConfig(
            interval_us=100.0,
            low_watermark=0.01,
            high_watermark=0.9,
            batch=0,
            panic_batch=0,
        )
        flusher = WritebackFlusher(sim, controller, cfg)
        self._dirty_fill(sim, controller, 16)
        flusher.start()
        sim.run(until=sim.now + 1000.0)
        assert flusher.flushes_started == 0
        assert store.dirty_count == 16

    def test_panic_batch_above_high_watermark(self, sim, controller, store):
        cfg = WritebackConfig(
            interval_us=100.0,
            low_watermark=0.01,
            high_watermark=0.05,
            batch=1,
            panic_batch=8,
        )
        flusher = WritebackFlusher(sim, controller, cfg)
        self._dirty_fill(sim, controller, 32)  # ratio 0.5 > high
        flusher.start()
        sim.run(until=sim.now + 150.0)
        assert flusher.flushes_started >= 8

    def test_flusher_eventually_cleans(self, sim, controller, store):
        cfg = WritebackConfig(
            interval_us=50.0, low_watermark=0.0, high_watermark=0.1, panic_batch=8
        )
        flusher = WritebackFlusher(sim, controller, cfg)
        self._dirty_fill(sim, controller, 16)
        flusher.start()
        sim.run(until=sim.now + 200_000.0)
        assert store.dirty_count == 0

    def test_start_idempotent(self, sim, controller):
        flusher = WritebackFlusher(sim, controller)
        flusher.start()
        flusher.start()
        # exactly one tick chain scheduled
        assert sim.pending_events == 1
