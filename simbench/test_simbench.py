"""Tests of the benchmark itself, at the scaled-down ``quick`` config.

Run with ``PYTHONPATH=src python -m pytest simbench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from simbench import run
from simbench.tracing import ENTRY_POINTS, SpanRecorder, _class, installed
from simbench.workloads import WORKLOADS, input_seeds, prepare, prepare_inputs

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


@pytest.fixture(params=sorted(WORKLOADS))
def session(request, tmp_path):
    inputs = prepare_inputs(request.param, 3, tmp_path, quick=True, count=2)
    yield run.Session(inputs)
    for prepared in inputs:
        prepared.close()


def test_every_run_passes_the_gate(session):
    outcomes = [session.round() for _ in range(2)]
    assert session.failed == 0
    assert session.attempted == 4
    assert all(o is not None and len(o.wall_ns) == 2 for o in outcomes)
    assert all(result.completed > 0 for result in session.first_results)


def test_tracing_leaves_the_fingerprint_unchanged(session, tmp_path):
    assert session.round() is not None
    traced = run.traced_run(session, tmp_path / "spans")
    # Every traced run's digest was checked against the untraced first run.
    assert session.failed == 0
    assert len(traced) == run.TRACED_REPEATS
    for outcome in traced:
        assert outcome.profile.identity_gap_ns == 0
        assert outcome.profile.root_ns <= outcome.wall_ns[0]
    assert (tmp_path / "spans.npy").exists()


def test_inputs_come_from_the_seed():
    assert input_seeds(11) == input_seeds(11)
    assert len(set(input_seeds(11) + input_seeds(12))) == 8


def test_installed_restores_every_entry_point():
    before = {
        (module, cls, attr): _class(module, cls).__dict__[attr]
        for _, module, cls, attrs in ENTRY_POINTS
        for attr in attrs
    }
    with installed(SpanRecorder()):
        assert all(
            _class(module, cls).__dict__[attr] is not original
            for (module, cls, attr), original in before.items()
        )
    assert all(
        _class(module, cls).__dict__[attr] is original
        for (module, cls, attr), original in before.items()
    )


def test_replay_reproduces_its_source_run(tmp_path):
    source = run.Session([prepare("mail_lbica", 5, tmp_path, quick=True)])
    replay_prepared = prepare("mail_replay", 5, tmp_path, quick=True)
    replay = run.Session([replay_prepared])
    try:
        assert replay.round() is not None
    finally:
        replay_prepared.close()
    assert source.round() is not None
    copy, original = replay.first_results[0], source.first_results[0]
    assert copy.completed == original.completed
    assert copy.workload_stats["generated"] == original.workload_stats["generated"]
    assert not list(tmp_path.glob("*.trace"))


def test_printed_metric_names_match_benchmark_json(tmp_path, capsys):
    inputs = prepare_inputs("mail_replay", 3, tmp_path, quick=True, count=2)
    try:
        session = run.Session(inputs)
        untraced = [session.round() for _ in range(2)]
        traced = run.traced_run(session, tmp_path / "spans")
    finally:
        for prepared in inputs:
            prepared.close()
    end_to_end = run.end_to_end_metrics(session, untraced, [0.5, 0.6])
    per_layer, gap = run.per_layer_metrics(session.first_results[0], untraced, traced)
    assert gap == 0
    for printed, declared in (
        (end_to_end, BENCHMARK["end_to_end"]),
        (per_layer, BENCHMARK["per_layer"]),
    ):
        assert list(printed) == [m["name"] for m in declared]
        assert {k: v["unit"] for k, v in printed.items()} == {
            m["name"]: m["unit"] for m in declared
        }
        assert all(isinstance(v["value"], (int, float)) for v in printed.values())
    text = capsys.readouterr().out
    assert all(name in text for name in end_to_end)


def test_benchmark_json_names_the_workloads():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == WORKLOADS


def test_unknown_workload_exits_with_an_error():
    assert run.main(["--workload", "nope", "--seed", "1"]) == 2
