"""Text trace format: writer and lazy parser.

The native format is a simplified blkparse line, one event per line::

    <time_us> <device> <action> <tag> <rw> <lba> <nblocks> <op_id>

e.g. ``1234.500 ssd Q P W 8192 1 42``.  Lines starting with ``#`` and
blank lines are ignored.  :func:`save_trace` / :func:`load_trace` round-
trip :class:`~repro.trace.records.TraceRecord` sequences; the workload
replay module consumes only ``Q`` records of application tags.

Streaming
---------
:func:`iter_trace` is the lazy core: it yields records one at a time
while the file is read, so a multi-gigabyte trace replays in constant
memory (:class:`~repro.workloads.replay.ReplayWorkload` pulls it in
chunks).  :func:`load_trace` is simply ``list(iter_trace(path))`` for
callers that want the materialized form.

Foreign formats (blkparse output, MSR-Cambridge CSV) parse through the
same entry points via the ``adapter`` argument — see
:mod:`repro.trace.adapters` for the registry and the field mappings.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, TextIO, Union

from repro.io.request import OpTag
from repro.trace.records import ACTIONS, TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.adapters import TraceAdapter

__all__ = [
    "save_trace",
    "load_trace",
    "loads_trace",
    "iter_trace",
    "dumps_trace",
    "TraceParseError",
]

_VALID_TAGS = {tag.value: tag for tag in OpTag}
_INF = float("inf")
_new_tuple = tuple.__new__

#: An adapter argument: a registered name or a live adapter instance.
AdapterLike = Union[str, "TraceAdapter"]


class TraceParseError(ValueError):
    """Raised for malformed trace lines.

    Attributes:
        lineno: 1-based line number of the offending line.
        line: The offending line (stripped).
        reason: Human-readable description of what is wrong.
        path: The file being parsed, when known (``None`` for strings).
    """

    def __init__(
        self, lineno: int, line: str, reason: str, path: str | Path | None = None
    ) -> None:
        where = f"{path}:{lineno}" if path is not None else f"line {lineno}"
        super().__init__(f"{where}: {reason}: {line!r}")
        self.lineno = lineno
        self.line = line
        self.reason = reason
        self.path = None if path is None else str(path)


def _resolve_adapter(adapter: AdapterLike) -> "TraceAdapter":
    # Imported lazily: the adapter registry's builtin modules import this
    # module for the native line parser, so a load-time import here would
    # be circular.
    from repro.trace.adapters import get_adapter

    if isinstance(adapter, str):
        return get_adapter(adapter)
    return adapter


def dumps_trace(
    records: Iterable[TraceRecord], adapter: AdapterLike = "native"
) -> str:
    """Serialize records to text (with a header line when the format has one)."""
    adp = _resolve_adapter(adapter)
    buf = io.StringIO()
    header = adp.header()
    if header is not None:
        buf.write(header)
        buf.write("\n")
    for rec in records:
        buf.write(adp.format_record(rec))
        buf.write("\n")
    return buf.getvalue()


def save_trace(
    records: Iterable[TraceRecord],
    path: str | Path,
    adapter: AdapterLike = "native",
) -> int:
    """Write records to ``path``; returns the number of records written."""
    records = list(records)
    Path(path).write_text(dumps_trace(records, adapter), encoding="utf-8")
    return len(records)


def parse_native_line(lineno: int, line: str) -> TraceRecord:
    """Parse one non-comment line of the native 8-field format."""
    parts = line.split()
    if len(parts) != 8:
        raise TraceParseError(lineno, line, f"expected 8 fields, got {len(parts)}")
    time_s, device, action, tag_s, rw, lba_s, nblocks_s, op_id_s = parts
    try:
        time = float(time_s)
        lba = int(lba_s)
        nblocks = int(nblocks_s)
        op_id = int(op_id_s)
    except ValueError as exc:
        raise TraceParseError(lineno, line, f"bad numeric field ({exc})") from None
    if action not in ACTIONS:
        raise TraceParseError(lineno, line, f"unknown action {action!r}")
    tag = _VALID_TAGS.get(tag_s)
    if tag is None:
        raise TraceParseError(lineno, line, f"unknown tag {tag_s!r}")
    if rw not in ("R", "W"):
        raise TraceParseError(lineno, line, f"rw must be R or W, got {rw!r}")
    # The chained comparison is false for nan too, so this also rejects it.
    if not 0.0 <= time < _INF or lba < 0 or nblocks <= 0:
        raise TraceParseError(
            lineno, line, "time must be finite and >= 0, lba >= 0 and size > 0"
        )
    # Positional ``tuple.__new__`` skips the NamedTuple constructor's
    # keyword handling; one record is built per parsed line.
    return _new_tuple(
        TraceRecord, (time, device, action, tag, rw == "W", lba, nblocks, op_id)
    )


def _iter_stream(
    stream: TextIO, adapter: "TraceAdapter", path: str | Path | None = None
) -> Iterator[TraceRecord]:
    """Lazily parse a line stream through one adapter instance.

    Parse errors are re-raised with ``path`` attached so an error deep in
    a multi-file scenario names the offending file, not just a line.
    """
    parse = adapter.parse_line
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = parse(lineno, line)
        except TraceParseError as exc:
            if path is not None and exc.path is None:
                raise TraceParseError(
                    exc.lineno, exc.line, exc.reason, path=path
                ) from None
            raise
        if rec is not None:
            yield rec


def iter_trace(
    path: str | Path, adapter: AdapterLike = "native"
) -> Iterator[TraceRecord]:
    """Lazily parse records from a file — the streaming core.

    The file is opened when iteration starts and closed when the
    generator is exhausted or garbage-collected; no list is ever built,
    so memory stays constant regardless of trace length.

    Args:
        path: Trace file path.
        adapter: Format adapter — a registered name (``native`` /
            ``blkparse`` / ``msr``) or a :class:`TraceAdapter` instance.

    Raises:
        TraceParseError: On the first malformed line, carrying ``path``
            and the 1-based line number.
    """
    adp = _resolve_adapter(adapter)
    with open(path, "r", encoding="utf-8") as fh:
        yield from _iter_stream(fh, adp, path=path)


def loads_trace(text: str, adapter: AdapterLike = "native") -> list[TraceRecord]:
    """Parse records from a string."""
    return list(_iter_stream(io.StringIO(text), _resolve_adapter(adapter)))


def load_trace(path: str | Path, adapter: AdapterLike = "native") -> list[TraceRecord]:
    """Parse records from a file, materialized (``list(iter_trace(...))``)."""
    return list(iter_trace(path, adapter))
