#!/usr/bin/env python3
"""Host-throughput benchmark of the LBICA simulator.

One command runs one workload of the paper-config stack for a fixed
number of host seconds, checks every run for correctness, and prints
its metrics; the last line of standard output is one JSON object::

    python3 simbench/run.py --workload tpcc_lbica --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics (host throughput, set-up
time, peak memory).  ``--trace 1`` runs the same untraced rounds, then
a few traced runs, and reports the per-layer metrics instead.  The
workloads, metrics and protocol are described in ``simbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: make the simbench package importable
    sys.path.insert(0, str(ROOT))

from simbench.hostspeed import NOMINAL_KERNEL_S, kernel_seconds  # noqa: E402

#: Scratch files of a run (the replay trace, the written spans).
WORKDIR = ROOT / ".simbench"

#: Untimed rounds before timing starts; the first also fixes each input's
#: reference fingerprint digest.
WARMUP_ROUNDS = 1
#: Timed rounds run even when ``--seconds`` is shorter than they take.
MIN_TIMED_ROUNDS = 3
#: Traced runs of the first input (per-layer times are their medians).
TRACED_REPEATS = 3
#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_SAMPLES = 5

#: ``name: unit`` of every end-to-end metric (--trace 0).
END_TO_END: dict[str, str] = {
    "sim_ios_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: ``name: unit`` of every per-layer metric (--trace 1).
PER_LAYER: dict[str, str] = {
    "sim.events": "count",
    "sim.events_per_io": "events/req",
    "sim.self_ms": "ms",
    "sim.ns_per_event": "ns",
    "workloads.arrivals": "count",
    "workloads.throttled": "count",
    "workloads.self_ms": "ms",
    "workloads.ns_per_arrival": "ns",
    "cache.read_hit_ratio": "ratio",
    "cache.promote_waste": "ratio",
    "cache.evict_flushes": "count",
    "cache.bypassed_share": "ratio",
    "cache.dirty_scans": "count",
    "cache.self_ms": "ms",
    "cache.ns_per_request": "ns",
    "devices.ssd_ops": "count",
    "devices.hdd_ops": "count",
    "devices.ssd_qtime_us": "sim_us",
    "devices.hdd_qtime_us": "sim_us",
    "devices.self_ms": "ms",
    "devices.ns_per_op": "ns",
    "io.ssd_merge_ratio": "ratio",
    "io.hdd_merge_ratio": "ratio",
    "io.ssd_stolen": "count",
    "trace.records_parsed": "count",
    "trace.ns_per_record": "ns",
    "trace.self_ms": "ms",
    "schemes.decisions": "count",
    "schemes.policy_switches": "count",
    "schemes.blocks_moved": "count",
    "schemes.self_ms": "ms",
    "experiments.self_ms": "ms",
    "traced.unattributed_ms": "ms",
    "traced.overhead": "ratio",
    "model.completed": "count",
    "model.mean_latency_us": "sim_us",
    "model.p99_latency_us": "sim_us",
}


def _bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"simbench: cannot import repro from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        print(f"simbench: repro came from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


@dataclass
class Outcome:
    """One round that passed the gate.

    An untimed round runs every input of the session once; a traced round
    runs the first input only.  ``kernel_s`` holds, per run, the mean
    reference-kernel time just before and just after it, which turns the
    run's host times into times on the nominal host (see
    ``simbench/hostspeed.py``).
    """

    wall_ns: list[int]
    kernel_s: list[float]
    profile: Any = None

    @property
    def scale(self) -> float:
        """Host-time scale factor of the round's first run."""
        return NOMINAL_KERNEL_S / self.kernel_s[0]

    @property
    def scaled_s(self) -> float:
        return sum(
            wall / 1e9 * NOMINAL_KERNEL_S / kernel
            for wall, kernel in zip(self.wall_ns, self.kernel_s)
        )


class Session:
    """Runs rounds over one workload's inputs and keeps the tally.

    Each run of one input is one operation: it fails if it raises or
    fails the gate, including a fingerprint digest that differs from that
    input's first run.  Only each input's first passing ``RunResult`` is
    kept (:attr:`first_results`), so memory does not grow with the number
    of rounds.
    """

    def __init__(self, inputs: list[Any]) -> None:
        self.inputs = inputs
        self.first_digests: list[Optional[str]] = [None] * len(inputs)
        self.first_results: list[Any] = [None] * len(inputs)
        self.attempted = 0
        self.failed = 0
        self._kernel_s = kernel_seconds()

    def _run(self, index: int, recorder: Any) -> Optional[tuple[int, Any]]:
        """Run input ``index`` once: ``(wall_ns, spans)``, or ``None`` on failure."""
        from simbench.workloads import check_repeat, digest

        prepared = self.inputs[index]
        self.attempted += 1
        spans = None
        try:
            gc.collect()
            system = prepared.build()
            if recorder is not None:
                recorder.active = True
            start = time.perf_counter_ns()
            try:
                result = system.run()
            finally:
                wall_ns = time.perf_counter_ns() - start
                if recorder is not None:
                    recorder.active = False
                    spans = recorder.take(self.attempted)
            problems = check_repeat(prepared, system, result)
            found = digest(result)
        except Exception:  # a failed run is counted, the benchmark goes on
            traceback.print_exc()
            self.failed += 1
            return None
        first = self.first_digests[index]
        if first is None:
            self.first_digests[index] = found
        elif found != first:
            problems.append(
                f"fingerprint {found[:12]} differs from the first run's {first[:12]}"
            )
        if problems:
            print(
                f"simbench: seed {prepared.seed} run failed: {'; '.join(problems)}",
                file=sys.stderr,
            )
            self.failed += 1
            return None
        if self.first_results[index] is None:
            self.first_results[index] = result
        return wall_ns, spans

    def round(self, recorder: Any = None) -> Optional[Outcome]:
        """Run every input once (only the first when traced by ``recorder``).

        Returns ``None`` if any run failed.  With a ``recorder`` (its entry
        points installed before the call) the outcome carries the traced
        run's self-time profile.
        """
        from simbench.tracing import profile

        runs = []
        kernels = []
        for index in range(1 if recorder is not None else len(self.inputs)):
            runs.append(self._run(index, recorder))
            # Pair each run with the kernel times on both sides of it.
            before, self._kernel_s = self._kernel_s, kernel_seconds()
            kernels.append((before + self._kernel_s) / 2)
        if any(run is None for run in runs):
            return None
        walls = [run[0] for run in runs if run is not None]
        spans = runs[0][1] if runs[0] is not None else None
        traced = None if spans is None else profile(spans, recorder.names)
        return Outcome(walls, kernels, traced)

    def timed(self, seconds: float) -> list[Outcome]:
        """Warm up, then run rounds for ``seconds`` of host time."""
        for _ in range(WARMUP_ROUNDS):
            self.round()
        outcomes: list[Outcome] = []
        tries = 0
        deadline = time.perf_counter() + seconds
        while tries < MIN_TIMED_ROUNDS or time.perf_counter() < deadline:
            tries += 1
            outcome = self.round()
            if outcome is not None:
                outcomes.append(outcome)
        return outcomes


def _setup_samples(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh process to its stacks being ready."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-only",
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=ROOT
        ) as child:
            assert child.stdout is not None
            ready = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        if code != 0 or ready.strip() != "ready":
            raise RuntimeError(f"set-up process exited with {code} before being ready")
        samples.append(elapsed)
    return samples


def _setup_only(workload: str, seed: int) -> None:
    """The set-up process: prepare the inputs, build their stacks, report ready."""
    from simbench.workloads import prepare_inputs

    inputs = prepare_inputs(workload, seed, WORKDIR)
    try:
        for prepared in inputs:
            prepared.build()
        print("ready", flush=True)
    finally:
        for prepared in inputs:
            prepared.close()


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _metrics(values: dict[str, float], units: dict[str, str]) -> dict[str, Any]:
    """``values`` in the output format, in the order of ``units``."""
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def end_to_end_metrics(
    session: Session, outcomes: list[Outcome], setup: list[float]
) -> dict[str, Any]:
    """The ``--trace 0`` metrics of the timed rounds ``outcomes``.

    Run times are scaled to the nominal host run by run, and the raw
    figures are printed next to them.  ``setup_s`` is not scaled: it
    is mostly imports, which do not slow down with the reference kernel
    when the host is busy, and scaling made it noisier.
    """
    completed = sum(result.completed for result in session.first_results)
    q1, median_s, q3 = _quartiles([o.scaled_s for o in outcomes])
    raw_s = statistics.median(sum(o.wall_ns) / 1e9 for o in outcomes)
    speed = statistics.median(
        NOMINAL_KERNEL_S / kernel for o in outcomes for kernel in o.kernel_s
    )
    setup_s = statistics.median(setup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"host speed: {speed:.2f}x the nominal host (reference kernel "
        f"{NOMINAL_KERNEL_S} s there); scaled (raw) figures follow"
    )
    print(
        f"sim_ios_per_s  {completed / median_s:12.1f} req/s   "
        f"({completed / raw_s:.1f}) {completed} requests / median {median_s:.4f} s "
        f"({raw_s:.4f} s), quartiles {q1:.4f}-{q3:.4f} s, "
        f"{len(outcomes)} timed rounds"
    )
    print(
        f"setup_s        {setup_s:12.4f} s       median of {len(setup)} fresh "
        f"processes ({min(setup):.4f}-{max(setup):.4f} s), not scaled"
    )
    print(f"peak_rss_mb    {rss_mb:12.1f} MiB")
    values = {
        "sim_ios_per_s": completed / median_s,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    return _metrics(values, END_TO_END)


#: The trace parser's entry point; its spans give the parse cost.
PARSE = "NativeAdapter.parse_line"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    result: Any, untraced: list[Outcome], traced: list[Outcome]
) -> tuple[dict[str, Any], int]:
    """The ``--trace 1`` metrics of ``result``'s run.

    ``result`` is the first input's run; ``untraced`` are the timed
    rounds and ``traced`` the traced runs of that input.  Also returns the
    largest accounting-identity gap (ns) of the traced runs.  Host times
    are scaled to the nominal host run by run.
    """
    from repro.analysis.metrics import percentile

    from simbench.tracing import LAYERS

    cache = result.cache_stats
    ssd = result.ssd_queue_stats
    hdd = result.hdd_queue_stats
    work = result.workload_stats
    scheme = result.scheme_stats
    profiles = [o.profile for o in traced]
    pairs = list(zip(traced, profiles))

    def self_ns(layer: str) -> float:
        return statistics.median(p.layer_self_ns[layer] * o.scale for o, p in pairs)

    def calls(name: str) -> float:
        return statistics.median(p.name_calls.get(name, 0) for p in profiles)

    generated = work.get("generated", 0)
    parsed = generated + work.get("skipped", 0) if calls(PARSE) else 0
    # Records the trace layer takes in: parsed lines, completions the
    # iostat monitor records and device-queue observations (every trace
    # entry point but the monitor tick).
    trace_records = statistics.median(
        p.layer_calls["trace"] - p.name_calls.get("IostatMonitor._tick", 0)
        for p in profiles
    )
    untraced_s = statistics.median(o.wall_ns[0] / 1e9 * o.scale for o in untraced)
    traced_s = statistics.median(o.scaled_s for o in traced)
    traced_wall = [o.wall_ns[0] for o in traced]
    unattributed = [wall - p.root_ns for wall, p in zip(traced_wall, profiles)]
    left_ns = statistics.median(n * o.scale for n, o in zip(unattributed, traced))
    gap = max(abs(p.identity_gap_ns) for p in profiles)
    ops = ssd["dispatched"] + hdd["dispatched"]
    values: dict[str, float] = {
        "sim.events": result.events_processed,
        "sim.events_per_io": _ratio(result.events_processed, result.completed),
        "sim.self_ms": self_ns("sim") / 1e6,
        "sim.ns_per_event": _ratio(self_ns("sim"), result.events_processed),
        "workloads.arrivals": generated,
        "workloads.throttled": work.get("throttled", 0),
        "workloads.self_ms": self_ns("workloads") / 1e6,
        "workloads.ns_per_arrival": _ratio(self_ns("workloads"), generated),
        "cache.read_hit_ratio": cache["read_hit_ratio"],
        "cache.promote_waste": _ratio(
            cache["promotes_cancelled"], cache["promotes_issued"]
        ),
        "cache.evict_flushes": cache["evict_flushes"],
        "cache.bypassed_share": _ratio(result.bypassed_requests, result.completed),
        "cache.dirty_scans": calls("CacheStore.dirty_blocks"),
        "cache.self_ms": self_ns("cache") / 1e6,
        "cache.ns_per_request": _ratio(self_ns("cache"), cache["requests"]),
        "devices.ssd_ops": ssd["dispatched"],
        "devices.hdd_ops": hdd["dispatched"],
        "devices.ssd_qtime_us": statistics.fmean(result.cache_load_series() or [0.0]),
        "devices.hdd_qtime_us": statistics.fmean(result.disk_load_series() or [0.0]),
        "devices.self_ms": self_ns("devices") / 1e6,
        "devices.ns_per_op": _ratio(self_ns("devices"), ops),
        "io.ssd_merge_ratio": _ratio(ssd["merged"], ssd["enqueued"]),
        "io.hdd_merge_ratio": _ratio(hdd["merged"], hdd["enqueued"]),
        "io.ssd_stolen": ssd["stolen"],
        "trace.records_parsed": parsed,
        "trace.ns_per_record": _ratio(self_ns("trace"), trace_records),
        "trace.self_ms": self_ns("trace") / 1e6,
        "schemes.decisions": len(result.scheme_decisions),
        "schemes.policy_switches": cache["policy_switches"],
        "schemes.blocks_moved": scheme.get("blocks_moved", 0),
        "schemes.self_ms": self_ns("schemes") / 1e6,
        "experiments.self_ms": self_ns("experiments") / 1e6,
        "traced.unattributed_ms": left_ns / 1e6,
        "traced.overhead": traced_s / untraced_s - 1.0,
        "model.completed": result.completed,
        "model.mean_latency_us": result.mean_latency,
        "model.p99_latency_us": percentile(result.latencies, 99.0),
    }

    print(
        f"{'layer':<12} {'self ms':>10} {'share':>7}   (median of {len(profiles)} "
        f"traced repeats, scaled to the nominal host)"
    )
    for layer in LAYERS:
        if layer == "io":
            print(f"{layer:<12} {'-':>10} {'-':>7}   counted under devices (inlined)")
            continue
        share = _ratio(self_ns(layer), traced_s * 1e9)
        print(f"{layer:<12} {self_ns(layer) / 1e6:10.2f} {share:7.1%}")
    print(f"{'unattributed':<12} {values['traced.unattributed_ms']:10.4f}")
    if parsed:
        parse_ns = statistics.median(p.name_self_ns[PARSE] * o.scale for o, p in pairs)
        print(f"trace parser: {parse_ns / parsed:.1f} ns per parsed record (scaled)")
    print("accounting identity per traced repeat (raw host time):")
    for wall, p, left in zip(traced_wall, profiles, unattributed):
        total_self = sum(p.layer_self_ns.values())
        print(
            f"  layer self times {total_self / 1e6:.3f} ms + unattributed "
            f"{left / 1e6:.4f} ms = {(total_self + left) / 1e6:.3f} ms; traced "
            f"ExperimentSystem.run wall {wall / 1e6:.3f} ms; gap "
            f"{total_self - p.root_ns} ns"
        )
    print(
        f"traced overhead {values['traced.overhead']:.1%} (traced "
        f"{traced_s * 1e3:.1f} ms vs untraced {untraced_s * 1e3:.1f} ms, scaled)"
    )
    return _metrics(values, PER_LAYER), gap


def traced_run(session: Session, spans_path: Path) -> list[Outcome]:
    """Trace :data:`TRACED_REPEATS` runs of the first input; write the spans."""
    from simbench.tracing import SpanRecorder, installed, write_spans

    recorder = SpanRecorder()
    outcomes = []
    with installed(recorder):
        for _ in range(TRACED_REPEATS):
            outcome = session.round(recorder)
            if outcome is not None:
                outcomes.append(outcome)
    path = write_spans(recorder, spans_path)
    count = sum(len(spans) for spans in recorder.repeats.values())
    print(f"spans: {count} written to {path}")
    return outcomes


def _pin_to_one_cpu() -> None:
    """Keep this process and its set-up processes on one CPU.

    The host's cores do not always run at the same speed, so a repeat and
    the reference kernel timed next to it must run on the same one.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not Linux, or not permitted
        pass


def _parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="prepare the workload, print 'ready' and exit (times setup_s)",
    )
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse_args(argv)
    _bootstrap()
    from simbench.workloads import WORKLOADS, prepare_inputs

    if args.workload not in WORKLOADS:
        choices = ", ".join(sorted(WORKLOADS))
        print(
            f"simbench: unknown workload {args.workload!r}; choose from {choices}",
            file=sys.stderr,
        )
        return 2
    if args.setup_only:
        _setup_only(args.workload, args.seed)
        return 0

    _pin_to_one_cpu()
    setup = [] if args.trace else _setup_samples(args.workload, args.seed)
    inputs = prepare_inputs(args.workload, args.seed, WORKDIR)
    try:
        session = Session(inputs)
        untraced = session.timed(args.seconds)
        traced = []
        if args.trace:
            traced = traced_run(session, WORKDIR / f"spans-{args.workload}")
    finally:
        for prepared in inputs:
            prepared.close()
    if not untraced or (args.trace and not traced):
        print("simbench: no round passed the correctness gate", file=sys.stderr)
        return 1

    print(f"simbench {args.workload} seed={args.seed}: inputs (simulated, not gated)")
    for prepared, result, found in zip(
        inputs, session.first_results, session.first_digests
    ):
        print(
            f"  seed {prepared.seed:>10}: {result.completed} requests, "
            f"{result.events_processed} events, fingerprint sha256 {found}"
        )
    correct = session.failed == 0
    if args.trace:
        metrics, gap = per_layer_metrics(session.first_results[0], untraced, traced)
        if gap != 0:
            print(f"simbench: accounting identity gap of {gap} ns", file=sys.stderr)
            correct = False
    else:
        metrics = end_to_end_metrics(session, untraced, setup)
    summary = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
