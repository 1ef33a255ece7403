"""``repro obs`` — record, summarize, and export run telemetry.

Examples::

    repro obs record fig4_single_vm --quick --horizon 6 --trace --out obs_out
    repro obs record churn_consolidated --heartbeat 2 --out obs_out
    repro obs summary obs_out/metrics.jsonl
    repro obs summary results/store/<digest>.json      # stored artifact
    repro obs export-trace fig4_single_vm --quick --horizon 6 --out trace.json
    python -m repro obs record ...                      # module form

``record`` builds the named (or spec-file) scenario with telemetry
armed, runs it, and writes ``metrics.jsonl`` (the per-interval series)
and — with ``--trace`` — ``trace.json`` (Chrome trace-event JSON; open
it at https://ui.perfetto.dev).  The simulation itself is bit-identical
to an untelemetered run: same fingerprints, same event counts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro obs`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Record, summarize, and export run telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record_p = sub.add_parser(
        "record", help="run a scenario with telemetry and export the results"
    )
    _add_scenario_args(record_p)
    record_p.add_argument(
        "--out",
        default="obs_out",
        help="output directory for metrics.jsonl / trace.json (default obs_out)",
    )
    record_p.add_argument(
        "--trace",
        action="store_true",
        help="also record lifecycle spans and write trace.json",
    )
    record_p.add_argument(
        "--no-metrics",
        action="store_true",
        help="skip the metrics series (with --trace: spans only)",
    )
    record_p.add_argument(
        "--heartbeat",
        type=float,
        default=0.0,
        metavar="S",
        help="print a live progress line every S wall-clock seconds",
    )
    record_p.add_argument(
        "--trace-capacity",
        type=int,
        default=None,
        metavar="N",
        help="retain at most N spans (default: ObsConfig default)",
    )

    summary_p = sub.add_parser(
        "summary",
        help="summarize a metrics.jsonl series or a stored artifact's telemetry",
    )
    summary_p.add_argument(
        "path", help="metrics .jsonl file, or an artifact/summary .json"
    )

    export_p = sub.add_parser(
        "export-trace",
        help="record a scenario (spans only) and write one Chrome trace file",
    )
    _add_scenario_args(export_p)
    export_p.add_argument(
        "--out", default="trace.json", help="trace file path (default trace.json)"
    )
    export_p.add_argument(
        "--trace-capacity",
        type=int,
        default=None,
        metavar="N",
        help="retain at most N spans (default: ObsConfig default)",
    )
    return parser


def _add_scenario_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "scenario", help="registered scenario name, or a scenario spec .json file"
    )
    sub.add_argument(
        "--quick",
        action="store_true",
        help="run on the quick config base instead of the spec's own",
    )
    sub.add_argument(
        "--horizon",
        type=int,
        default=None,
        metavar="N",
        help="truncate the run at N monitoring intervals",
    )


def _load_spec(name: str) -> Any:
    """A scenario by registry name, or parsed from a spec file path."""
    from repro.scenario.registry import get_scenario
    from repro.scenario.spec import load_scenario

    if name.endswith(".json") or Path(name).exists():
        return load_scenario(name)
    return get_scenario(name)


def _record(args: argparse.Namespace, *, trace: bool, metrics: bool) -> Any:
    """Build + run one telemetered scenario; returns the live system."""
    spec = _load_spec(args.scenario)
    if args.quick:
        spec = dataclasses.replace(spec, base="quick")
    if args.horizon is not None:
        spec = dataclasses.replace(spec, horizon_intervals=args.horizon)
    cfg = spec.to_config()
    obs = dataclasses.replace(
        cfg.obs,
        enabled=True,
        metrics=metrics,
        trace=trace,
        heartbeat_s=getattr(args, "heartbeat", 0.0),
    )
    if getattr(args, "trace_capacity", None) is not None:
        obs = dataclasses.replace(obs, trace_capacity=args.trace_capacity)
    obs.validate()
    cfg = dataclasses.replace(cfg, obs=obs)
    system = spec.build(cfg, trace_records=False)
    until = None
    if spec.horizon_intervals is not None:
        until = spec.horizon_intervals * cfg.interval_us
    result = system.run(until_us=until)
    print(
        f"[obs] {spec.name}: {result.completed} requests, "
        f"{result.events_processed} events, "
        f"mean latency {result.mean_latency:.1f}us"
    )
    return system


def _summarize_series(rows: Sequence[dict[str, Any]]) -> str:
    lines = [f"intervals: {len(rows)}"]
    if rows:
        last = rows[-1]
        events = last.get("events_total")
        if events is not None:
            lines.append(f"events: {events}")
        cache = last.get("cache") or {}
        if "read_hit_ratio" in cache:
            lines.append(f"final read hit ratio: {cache['read_hit_ratio']:.4f}")
        if "dirty_ratio" in cache:
            lines.append(f"final dirty ratio: {cache['dirty_ratio']:.4f}")
        wall = last.get("wall") or {}
        if "s" in wall:
            lines.append(f"wall: {wall['s']:.3f}s")
            if events is not None and wall["s"]:
                lines.append(f"events/s (wall): {round(events / wall['s'])}")
    return "\n".join(lines)


def _summarize_telemetry(telemetry: dict[str, Any]) -> str:
    lines = []
    wall = telemetry.get("wall") or {}
    if "run_s" in wall:
        lines.append(f"wall run: {wall['run_s']:.3f}s")
    metrics = telemetry.get("metrics") or {}
    series = metrics.get("series") or []
    if series:
        lines.append(_summarize_series(series))
    for kind in ("counters", "gauges"):
        table = metrics.get(kind) or {}
        for name in sorted(table):
            lines.append(f"{kind[:-1]} {name}: {table[name]}")
    for name, hist in sorted((metrics.get("histograms") or {}).items()):
        lines.append(
            f"histogram {name}: count={hist['count']} mean={hist['mean']:.1f} "
            f"max={hist['max']:.1f}"
        )
    trace = telemetry.get("trace") or {}
    if trace:
        lines.append(
            f"trace: {trace.get('events', 0)} spans, "
            f"{trace.get('dropped', 0)} dropped"
        )
    return "\n".join(lines) if lines else "no telemetry recorded"


def _summary(path: str) -> int:
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".jsonl"):
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        print(_summarize_series(rows))
        return 0
    payload = json.loads(text)
    telemetry = payload.get("telemetry") if isinstance(payload, dict) else None
    if not telemetry:
        print(f"{path}: no 'telemetry' section", file=sys.stderr)
        return 1
    print(_summarize_telemetry(telemetry))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "record":
            metrics = not args.no_metrics
            system = _record(args, trace=args.trace, metrics=metrics)
            telemetry = system.telemetry
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            if metrics:
                path = telemetry.write_metrics_jsonl(out / "metrics.jsonl")
                print(f"wrote {path}")
            if args.trace:
                path = telemetry.write_trace(out / "trace.json")
                print(f"wrote {path}")
            return 0

        if args.command == "summary":
            return _summary(args.path)

        if args.command == "export-trace":
            system = _record(args, trace=True, metrics=False)
            path = system.telemetry.write_trace(args.out)
            print(f"wrote {path}")
            return 0

    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
