"""The benchmark's workloads and the correctness gate every repeat passes.

Each workload is the paper-config stack (:class:`ExperimentSystem` plus
a registered scheme) built from a seed.  :func:`prepare` makes the
inputs once per process; :meth:`PreparedWorkload.build` wires a fresh
stack for every repeat, because a run consumes its stack.

``mail_replay`` replays the exact application arrival stream of
``mail_lbica`` at the same seed.  The arrivals are captured at the
public ``CacheController.submit`` of a ``mail_lbica`` run, written in
the native trace format and replayed through ``iter_trace`` and a
streaming ``ReplayWorkload`` onto a stack that starts with the source's
warm set.  Two shortcuts were measured and rejected: replaying the
device-level blktrace ``Q`` records of a run (as
``examples/trace_capture_replay.py`` does) completes 6,517 of 8,473
requests at a mean latency of 264 ms instead of 21 ms, because it
replays cache-generated traffic as application traffic; and replaying
without the warm set drops the ``tpcc`` read hit ratio from 0.968 to
0.20.  Capturing at the controller keeps the two workloads twins: they
do the same cache and device work and differ only in where the
arrivals come from.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from repro.experiments.system import ExperimentSystem, RunResult
from repro.io.request import OpTag, Request
from repro.scenario import ScenarioSpec, get_scenario, stats_fingerprint
from repro.trace.adapters.native import NativeAdapter
from repro.trace.parser import iter_trace
from repro.trace.records import TraceRecord
from repro.workloads.replay import ReplayWorkload

__all__ = [
    "INPUTS_PER_RUN",
    "WORKLOADS",
    "PreparedWorkload",
    "Reference",
    "check_repeat",
    "digest",
    "input_seeds",
    "prepare",
    "prepare_inputs",
]

#: Why each workload is in the benchmark (one line each; mirrored in
#: BENCHMARK.json and README.md).
WORKLOADS: dict[str, str] = {
    "tpcc_lbica": (
        "TPC-C under LBICA: the read-hit path at its largest, arrivals via "
        "chunked pre-generation; little writeback, eviction or HDD work"
    ),
    "mail_lbica": (
        "mail under LBICA: writes beside reads, dirty evictions, writeback, "
        "LBICA tail redirect and HDD seeks"
    ),
    "mail_replay": (
        "the same arrivals as mail_lbica read back from a native trace: same "
        "cache and device work, arrivals from the trace parser"
    ),
    "consolidated3_dynshare": (
        "three tenants under dynshare: quota checks on every insert, "
        "multi-tenant routing and the scalar arrival path under backpressure"
    ),
}

#: Inputs one benchmark run makes from its seed.  Throughput differs from
#: seed to seed: ``consolidated3_dynshare`` completes 7,283 to 9,046
#: requests in about the same host time, so one input per run would let a
#: seed's luck move ``sim_ios_per_s`` by up to 10%.  A run times rounds
#: over several inputs instead.
INPUTS_PER_RUN = 4

#: Relative tolerance on ``mail_replay``'s mean latency against its
#: source run.  The native format keeps arrival times to 1 ns, so the
#: replayed arrivals (and the service times that depend on them) move by
#: rounding-sized amounts; any real divergence is orders of magnitude
#: larger.
REPLAY_LATENCY_RTOL = 1e-6

_MAIL_LBICA = ScenarioSpec(
    name="mail_lbica",
    workload="mail",
    scheme="lbica",
    description="Mail server under LBICA (the Fig. 4b configuration).",
)


@dataclass(frozen=True)
class Reference:
    """What ``mail_replay`` must reproduce: its source run's outcome."""

    completed: int
    policy_switches: int
    mean_latency: float

    @classmethod
    def of(cls, result: RunResult) -> "Reference":
        return cls(
            result.completed,
            result.cache_stats["policy_switches"],
            result.mean_latency,
        )


@dataclass
class PreparedWorkload:
    """One workload's inputs, ready to build a stack per repeat.

    Attributes:
        name: Benchmark workload name (a key of :data:`WORKLOADS`).
        seed: Root seed of the stack's random streams.
        build: Wires a fresh :class:`ExperimentSystem`.
        reference: Outcome a replayed workload must reproduce.
        trace_path: The replayed trace file (removed by :meth:`close`).
    """

    name: str
    seed: int
    build: Callable[[], ExperimentSystem]
    reference: Optional[Reference] = None
    trace_path: Optional[Path] = None

    def close(self) -> None:
        """Remove the files :func:`prepare` wrote."""
        if self.trace_path is not None:
            self.trace_path.unlink(missing_ok=True)
            self.trace_path = None


def _scenario(spec: ScenarioSpec, seed: int, quick: bool) -> tuple[ScenarioSpec, Any]:
    if quick:
        spec = dataclasses.replace(spec, base="quick")
    return spec, dataclasses.replace(spec.to_config(), seed=seed)


def _capture_arrivals(
    spec: ScenarioSpec, config: Any
) -> tuple[list[TraceRecord], RunResult, Any]:
    """Run ``spec`` and record every request handed to the cache."""
    system = spec.build(config, trace_records=False)
    submit = system.controller.submit
    records: list[TraceRecord] = []

    def capture(request: Request) -> None:
        tag = OpTag.WRITE if request.is_write else OpTag.READ
        records.append(
            TraceRecord(
                request.arrival,
                "app",
                "Q",
                tag,
                request.is_write,
                request.lba,
                request.nblocks,
                len(records),
            )
        )
        submit(request)

    # ExperimentSystem.run binds the workload to this attribute.
    system.controller.submit = capture
    result = system.run()
    return records, result, system.workload


def _write_trace(records: list[TraceRecord], workdir: Path) -> Path:
    adapter = NativeAdapter()
    workdir.mkdir(parents=True, exist_ok=True)
    fd, name = tempfile.mkstemp(prefix="mail_replay-", suffix=".trace", dir=workdir)
    with os.fdopen(fd, "w", encoding="utf-8") as out:
        out.write(f"{adapter.header()}\n")
        for rec in records:
            out.write(f"{adapter.format_record(rec)}\n")
    return Path(name)


def prepare(
    name: str, seed: int, workdir: Path, *, quick: bool = False
) -> PreparedWorkload:
    """Make one workload's inputs from ``seed``.

    Args:
        name: A key of :data:`WORKLOADS`.
        seed: Root seed of every random stream of the stack.
        workdir: Directory for files the workload needs (the replay trace).
        quick: Use the scaled-down ``quick`` base config (tests).
    """
    if name == "tpcc_lbica":
        spec, config = _scenario(get_scenario("fig4_single_vm"), seed, quick)
    elif name == "consolidated3_dynshare":
        spec, config = _scenario(get_scenario("consolidated3_dynshare"), seed, quick)
    elif name == "mail_lbica":
        spec, config = _scenario(_MAIL_LBICA, seed, quick)
    elif name == "mail_replay":
        return _prepare_replay(seed, workdir, quick)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return PreparedWorkload(name, seed, lambda: spec.build(config, trace_records=False))


def _prepare_replay(seed: int, workdir: Path, quick: bool) -> PreparedWorkload:
    spec, config = _scenario(_MAIL_LBICA, seed, quick)
    records, source, source_workload = _capture_arrivals(spec, config)
    path = _write_trace(records, workdir)
    duration_us = source_workload.duration_us
    warm = list(source_workload.warm_blocks)
    warm_dirty = list(source_workload.warm_dirty_blocks)

    def build() -> ExperimentSystem:
        workload = ReplayWorkload(
            iter_trace(path), duration_us=duration_us, name="mail_replay"
        )
        workload.warm_blocks = warm
        workload.warm_dirty_blocks = warm_dirty
        return ExperimentSystem(workload, spec.scheme, config, trace_records=False)

    return PreparedWorkload(
        "mail_replay", seed, build, reference=Reference.of(source), trace_path=path
    )


def input_seeds(seed: int, count: int = INPUTS_PER_RUN) -> list[int]:
    """The ``count`` input seeds a run derives from its ``seed``."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def prepare_inputs(
    name: str,
    seed: int,
    workdir: Path,
    *,
    quick: bool = False,
    count: int = INPUTS_PER_RUN,
) -> list[PreparedWorkload]:
    """Prepare one input per seed of :func:`input_seeds` (see :func:`prepare`)."""
    inputs: list[PreparedWorkload] = []
    try:
        for input_seed in input_seeds(seed, count):
            inputs.append(prepare(name, input_seed, workdir, quick=quick))
    except BaseException:
        for prepared in inputs:
            prepared.close()
        raise
    return inputs


def digest(result: RunResult) -> str:
    """SHA-256 of the run's stats fingerprint (no host time in it)."""
    text = json.dumps(stats_fingerprint(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check_repeat(
    prepared: PreparedWorkload, system: ExperimentSystem, result: RunResult
) -> list[str]:
    """Every way ``result`` is wrong; an empty list passes.

    Digest equality across repeats is checked by the caller, which owns
    the run's first digest.
    """
    problems: list[str] = []
    config = system.config
    generated = result.workload_stats.get("generated", 0)
    if result.completed > generated:
        problems.append(f"completed {result.completed} > generated {generated}")
    if not isinstance(system.workload, ReplayWorkload):
        tenants = getattr(system.workload, "tenant_count", 1)
        limit = config.max_outstanding * tenants
        if generated - result.completed > limit:
            problems.append(
                f"{generated - result.completed} requests outstanding at the end, "
                f"more than max_outstanding x tenants = {limit}"
            )
    latencies = np.asarray(result.latencies, dtype=np.float64)
    if latencies.size and not (np.isfinite(latencies).all() and latencies.min() >= 0):
        problems.append("a latency is negative or not finite")
    horizon = system.workload.duration_us + config.drain_intervals * config.interval_us
    expected = int(horizon // config.interval_us)
    if len(result.samples) != expected:
        problems.append(
            f"{len(result.samples)} interval samples, expected {expected} "
            f"for a {horizon:.0f} us horizon"
        )
    ref = prepared.reference
    if ref is not None:
        got = Reference.of(result)
        if got.completed != ref.completed:
            problems.append(f"completed {got.completed}, source run {ref.completed}")
        if got.policy_switches != ref.policy_switches:
            problems.append(
                f"policy switches {got.policy_switches}, "
                f"source run {ref.policy_switches}"
            )
        if not math.isclose(
            got.mean_latency, ref.mean_latency, rel_tol=REPLAY_LATENCY_RTOL
        ):
            problems.append(
                f"mean latency {got.mean_latency!r} us, source run {ref.mean_latency!r}"
            )
    return problems
