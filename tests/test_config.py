"""Unit tests for the system configuration presets."""

from dataclasses import replace

import pytest

from repro.config import SystemConfig, paper_config, quick_config


class TestSystemConfig:
    def test_paper_preset_valid(self):
        paper_config().validate()

    def test_quick_preset_valid_and_faster(self):
        quick = quick_config()
        quick.validate()
        assert quick.interval_us < paper_config().interval_us

    def test_control_loops_align_to_interval(self):
        cfg = SystemConfig(interval_us=40_000.0)
        assert cfg.lbica.decision_interval_us == 40_000.0
        assert cfg.sib.check_interval_us == 10_000.0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(interval_us=-1).validate()
        with pytest.raises(ValueError):
            SystemConfig(cache_blocks=0).validate()
        with pytest.raises(ValueError):
            SystemConfig(rate_scale=0).validate()
        with pytest.raises(ValueError):
            SystemConfig(drain_intervals=-1).validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"interval_us": float("nan")},
            {"interval_us": float("inf")},
            {"rate_scale": float("nan")},
            {"max_merge_blocks": -1},
        ],
    )
    def test_non_finite_and_negative_merge_rejected(self, overrides):
        with pytest.raises(ValueError):
            SystemConfig(**overrides).validate()

    def test_scaled_copies(self):
        cfg = paper_config()
        half = cfg.scaled(0.5)
        assert half.rate_scale == 0.5
        assert cfg.rate_scale == 1.0  # original untouched

    def test_seed_propagates(self):
        assert paper_config(seed=99).seed == 99

    def test_config_instances_do_not_share_device_configs(self):
        a = paper_config()
        b = paper_config()
        a.ssd.read_us = 1.0
        assert b.ssd.read_us != 1.0

    def test_replace_keeps_alignment(self):
        cfg = replace(paper_config(), interval_us=20_000.0)
        assert cfg.lbica.decision_interval_us == 20_000.0
