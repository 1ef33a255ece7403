"""Unit tests for declarative workload specs (dict / JSON)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.access_patterns import (
    HotColdPattern,
    MixPattern,
    SequentialPattern,
    UniformPattern,
    ZipfPattern,
)
from repro.workloads.spec import (
    SpecError,
    load_workload_spec,
    pattern_from_spec,
    workload_from_spec,
)


def valid_spec():
    return {
        "name": "spec_demo",
        "max_outstanding": 64,
        "warm": [
            {"kind": "range", "start": 0, "span": 16, "dirty": False},
            {"kind": "range", "start": 100, "span": 8, "dirty": True},
        ],
        "phases": [
            {
                "label": "burst",
                "n_intervals": 5,
                "rate_iops": 1000,
                "write_frac": 0.3,
                "burst": True,
                "read_pattern": {"kind": "uniform", "start": 0, "span": 128},
                "write_pattern": {"kind": "uniform", "start": 512, "span": 64},
            }
        ],
    }


class TestPatternSpecs:
    def test_uniform(self):
        pat = pattern_from_spec({"kind": "uniform", "start": 5, "span": 10})
        assert isinstance(pat, UniformPattern)
        assert pat.start == 5 and pat.span == 10

    def test_zipf_with_defaults(self):
        pat = pattern_from_spec({"kind": "zipf", "start": 0, "span": 50})
        assert isinstance(pat, ZipfPattern)
        assert pat.s == 1.1

    def test_hotcold(self):
        pat = pattern_from_spec(
            {
                "kind": "hotcold",
                "hot_start": 0,
                "hot_span": 10,
                "cold_start": 100,
                "cold_span": 50,
                "hot_prob": 0.8,
            }
        )
        assert isinstance(pat, HotColdPattern)
        assert pat.hot_prob == 0.8

    def test_sequential(self):
        pat = pattern_from_spec(
            {"kind": "sequential", "start": 10, "span": 100, "stride": 4}
        )
        assert isinstance(pat, SequentialPattern)
        assert pat.stride == 4

    def test_mix(self):
        pat = pattern_from_spec(
            {
                "kind": "mix",
                "components": [
                    {"weight": 0.7, "pattern": {"kind": "uniform", "start": 0, "span": 5}},
                    {"weight": 0.3, "pattern": {"kind": "uniform", "start": 50, "span": 5}},
                ],
            }
        )
        assert isinstance(pat, MixPattern)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError):
            pattern_from_spec({"kind": "fractal", "start": 0, "span": 1})

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError):
            pattern_from_spec({"kind": "uniform", "start": 0, "span": 1, "oops": 1})

    def test_missing_keys_rejected(self):
        with pytest.raises(SpecError):
            pattern_from_spec({"kind": "uniform", "start": 0})


class TestWorkloadSpecs:
    def test_valid_spec_builds(self):
        wl = workload_from_spec(valid_spec(), interval_us=1000.0)
        assert wl.name == "spec_demo"
        assert wl.max_outstanding == 64
        assert wl.total_intervals == 5
        assert len(wl.warm_blocks) == 16
        assert len(wl.warm_dirty_blocks) == 8
        assert wl.phases[0].burst

    def test_spec_workload_generates(self):
        from repro.sim.engine import Simulator

        wl = workload_from_spec(valid_spec(), interval_us=1000.0)
        sim = Simulator()
        got = []

        def submit(req):
            got.append(req)
            wl.on_request_complete(req)

        wl.bind(sim, submit, np.random.default_rng(1))
        sim.run(until=wl.duration_us)
        assert got

    def test_size_blocks_distribution(self):
        spec = valid_spec()
        spec["phases"][0]["size_blocks"] = [[1, 0.75], [8, 0.25]]
        wl = workload_from_spec(spec, interval_us=1000.0)
        choices, probs = wl.phases[0].size_blocks
        assert choices == [1, 8]
        assert probs == [0.75, 0.25]

    def test_empty_phases_rejected(self):
        spec = valid_spec()
        spec["phases"] = []
        with pytest.raises(SpecError):
            workload_from_spec(spec, 1000.0)

    def test_unknown_top_level_key_rejected(self):
        spec = valid_spec()
        spec["surprise"] = True
        with pytest.raises(SpecError):
            workload_from_spec(spec, 1000.0)

    def test_invalid_phase_values_propagate(self):
        spec = valid_spec()
        spec["phases"][0]["write_frac"] = 2.0
        with pytest.raises(ValueError):
            workload_from_spec(spec, 1000.0)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(valid_spec()), encoding="utf-8")
        wl = load_workload_spec(path, interval_us=1000.0)
        assert wl.name == "spec_demo"

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SpecError):
            load_workload_spec(path, 1000.0)

    def test_spec_runs_through_full_system(self):
        """A spec-built workload drives the whole experiment stack."""
        from repro.config import quick_config
        from repro.experiments.system import ExperimentSystem

        spec = valid_spec()
        spec["phases"][0]["n_intervals"] = 10
        cfg = quick_config()
        wl = workload_from_spec(spec, interval_us=cfg.interval_us)
        result = ExperimentSystem(wl, "wb", cfg).run()
        assert result.completed > 0
        assert len(result.samples) == 10


def tenants_spec():
    return {
        "name": "duo",
        "tenants": [
            {"workload": "web", "rate_scale": 0.75},
            {"workload": "tpcc", "rate_scale": 0.5, "offset_intervals": 4,
             "label": "oltp"},
        ],
    }


class TestTenantSpecs:
    def test_builds_multi_tenant_workload(self):
        from repro.workloads.multi_tenant import MultiTenantWorkload

        wl = workload_from_spec(tenants_spec(), 1000.0, cache_blocks=4096)
        assert isinstance(wl, MultiTenantWorkload)
        assert wl.name == "duo"
        assert wl.tenant_count == 2
        assert wl.children[1].name == "oltp"
        assert wl.offsets_us == [0.0, 4 * 1000.0]

    def test_matches_code_built_composition(self):
        from repro.workloads.multi_tenant import MultiTenantWorkload, TenantSpec
        from repro.workloads.tpcc import tpcc_workload
        from repro.workloads.web import web_server_workload

        built = workload_from_spec(tenants_spec(), 1000.0, cache_blocks=4096)
        code = MultiTenantWorkload.compose(
            "duo",
            [
                TenantSpec(web_server_workload, rate_scale=0.75),
                TenantSpec(tpcc_workload, rate_scale=0.5, offset_intervals=4,
                           label="oltp"),
            ],
            1000.0,
            cache_blocks=4096,
        )
        assert built.lba_stride_blocks == code.lba_stride_blocks
        assert built.offsets_us == code.offsets_us
        assert [c.max_outstanding for c in built.children] == [
            c.max_outstanding for c in code.children
        ]
        assert [p.rate_iops for c in built.children for p in c.phases] == [
            p.rate_iops for c in code.children for p in c.phases
        ]

    def test_inline_child_workload(self):
        spec = tenants_spec()
        spec["tenants"][0]["workload"] = valid_spec()
        wl = workload_from_spec(spec, 1000.0, cache_blocks=4096)
        assert wl.children[0].name == "spec_demo"

    def test_lba_stride_override(self):
        spec = tenants_spec()
        spec["lba_stride_blocks"] = 123456
        wl = workload_from_spec(spec, 1000.0)
        assert wl.lba_stride_blocks == 123456

    def test_unknown_tenant_key_rejected(self):
        spec = tenants_spec()
        spec["tenants"][0]["surprise"] = 1
        with pytest.raises(SpecError):
            workload_from_spec(spec, 1000.0)

    def test_unknown_workload_name_rejected(self):
        spec = tenants_spec()
        spec["tenants"][0]["workload"] = "no_such"
        with pytest.raises(SpecError):
            workload_from_spec(spec, 1000.0)

    def test_nested_tenants_rejected(self):
        spec = tenants_spec()
        spec["tenants"][0]["workload"] = tenants_spec()
        with pytest.raises(SpecError):
            workload_from_spec(spec, 1000.0)

    def test_empty_tenants_rejected(self):
        with pytest.raises(SpecError):
            workload_from_spec({"name": "x", "tenants": []}, 1000.0)


class TestRateScaleThreading:
    def test_phase_rates_scale(self):
        wl_1x = workload_from_spec(valid_spec(), 1000.0)
        wl_2x = workload_from_spec(valid_spec(), 1000.0, rate_scale=2.0)
        assert [p.rate_iops for p in wl_2x.phases] == [
            p.rate_iops * 2.0 for p in wl_1x.phases
        ]

    def test_synthetic_factories_honor_rate_scale(self):
        """The registry's synthetic factories must not silently ignore
        rate_scale (they did before the scenario refactor)."""
        from repro.experiments.system import WORKLOADS

        for name in ("random_read", "random_write", "seq_read", "seq_write",
                     "mixed_rw"):
            wl_1x = WORKLOADS[name](1000.0, 4096, 1.0, 256)
            wl_2x = WORKLOADS[name](1000.0, 4096, 2.0, 256)
            assert [p.rate_iops for p in wl_2x.phases] == [
                p.rate_iops * 2.0 for p in wl_1x.phases
            ], name

    def test_default_max_outstanding_forwarded(self):
        spec = valid_spec()
        del spec["max_outstanding"]
        wl = workload_from_spec(spec, 1000.0, max_outstanding=48)
        assert wl.max_outstanding == 48
        # the spec's own value still wins when present
        wl = workload_from_spec(valid_spec(), 1000.0, max_outstanding=48)
        assert wl.max_outstanding == 64

    def test_registered_multi_tenant_name_rejected_as_tenant(self):
        spec = tenants_spec()
        spec["tenants"][0]["workload"] = "consolidated3"
        with pytest.raises(SpecError, match="cannot nest"):
            workload_from_spec(spec, 1000.0)


class TestTraceSpecForm:
    """The ``trace:`` spec section builds streaming ReplayWorkloads."""

    @staticmethod
    def trace_file(tmp_path):
        from repro.trace.parser import save_trace
        from repro.trace.synth import synthetic_trace

        path = tmp_path / "t.trace"
        save_trace(synthetic_trace(20, seed=2), path)
        return path

    def trace_spec(self, tmp_path, **trace_keys):
        return {
            "name": "replay_test",
            "trace": {"path": str(self.trace_file(tmp_path)), **trace_keys},
        }

    def test_builds_streaming_replay(self, tmp_path, sim):
        from repro.workloads.replay import ReplayWorkload

        wl = workload_from_spec(self.trace_spec(tmp_path), 1000.0)
        assert isinstance(wl, ReplayWorkload)
        assert wl.streaming
        assert wl.name == "replay_test"
        wl.bind(sim, lambda r: None, None)
        sim.run()
        assert wl.stats.generated == 20

    def test_operators_applied(self, tmp_path, sim):
        spec = self.trace_spec(
            tmp_path, operators=[{"op": "time_compress", "factor": 2.0}]
        )
        plain = workload_from_spec(self.trace_spec(tmp_path), 1000.0)
        compressed = workload_from_spec(spec, 1000.0)
        times = {}
        for key, wl in (("plain", plain), ("fast", compressed)):
            from repro.sim.engine import Simulator

            s = Simulator()
            arrivals = []
            wl.bind(s, lambda r, s=s, a=arrivals: a.append(s.now), None)
            s.run()
            times[key] = arrivals
        assert times["fast"] == [t / 2.0 for t in times["plain"]]

    def test_interleave_builds_tenant_streams(self, tmp_path, sim):
        spec = self.trace_spec(tmp_path, interleave=2, lba_stride_blocks=4096)
        wl = workload_from_spec(spec, 1000.0)
        arrivals = []
        wl.bind(sim, lambda r: arrivals.append((r.tenant_id, r.lba)), None)
        sim.run()
        tenants = {tid for tid, _ in arrivals}
        assert tenants == {0, 1}
        assert wl.stats.generated == 40
        # tenant 1 is shifted into its own footprint
        lba0 = {lba for tid, lba in arrivals if tid == 0}
        lba1 = {lba for tid, lba in arrivals if tid == 1}
        assert lba1 == {lba + 4096 for lba in lba0}

    def test_missing_file_rejected(self, tmp_path):
        spec = {"name": "x", "trace": {"path": str(tmp_path / "nope.trace")}}
        with pytest.raises(SpecError, match="no such trace file"):
            workload_from_spec(spec, 1000.0)

    def test_unknown_adapter_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="unknown trace adapter"):
            workload_from_spec(self.trace_spec(tmp_path, adapter="fio"), 1000.0)

    def test_bad_operator_rejected_before_reading_file(self, tmp_path):
        with pytest.raises(SpecError, match="unknown trace operator"):
            workload_from_spec(
                self.trace_spec(tmp_path, operators=[{"op": "reverse"}]), 1000.0
            )

    def test_unknown_trace_key_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="unknown key"):
            workload_from_spec(self.trace_spec(tmp_path, speed=9), 1000.0)

    def test_interleave_forces_streaming(self, tmp_path):
        spec = self.trace_spec(tmp_path, interleave=2, streaming=False)
        with pytest.raises(SpecError, match="always streaming"):
            workload_from_spec(spec, 1000.0)

    def test_invalid_interleave_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="interleave"):
            workload_from_spec(self.trace_spec(tmp_path, interleave=0), 1000.0)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("interleave", "abc"),
            ("chunk_records", 1.9),
            ("chunk_records", True),
            ("lba_stride_blocks", 2.5),
            ("streaming", "no"),
            ("time_scale", float("nan")),
            ("time_scale", float("inf")),
            ("duration_us", float("nan")),
            ("duration_us", float("inf")),
        ],
    )
    def test_wrong_typed_or_non_finite_trace_field_rejected(
        self, tmp_path, key, value
    ):
        with pytest.raises(SpecError, match=f"trace\\.{key}"):
            workload_from_spec(self.trace_spec(tmp_path, **{key: value}), 1000.0)

    def test_duration_and_chunk_forwarded(self, tmp_path):
        spec = self.trace_spec(tmp_path, duration_us=5000.0, chunk_records=7)
        wl = workload_from_spec(spec, 1000.0)
        assert wl.duration_us == 5000.0
        assert wl.chunk_records == 7

    def test_example_scenario_spec_loads(self):
        scenario = json.loads(
            Path("examples/scenarios/trace_replay.json").read_text()
        )
        wl = workload_from_spec(scenario["workload"], 1000.0)
        assert wl.streaming
