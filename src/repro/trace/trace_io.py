"""Trace serialisation: JSON-lines.

One event per line so very long runs can be streamed; the first line is
a header record with run-level metadata.

This layer is a fault boundary: :func:`write_trace` honours the active
:class:`~repro.faults.FaultPlan` (records can be dropped, mangled or
reordered on the way to disk -- modelling lossy production tracing),
and :func:`read_trace` can *recover* from such damage by skipping
malformed records instead of aborting, reporting what it skipped via
telemetry, ``run.meta`` and an optional quarantine. Every fault
decision is a pure hash of ``(plan.seed, site, record index)``, so one
plan damages the same records on every write.
"""

import json

from repro import faults as _faults
from repro import telemetry
from repro.common.errors import TraceError
from repro.trace.events import EventKind, TraceEvent, TraceRun

_FORMAT_VERSION = 1


def _event_record(e):
    """The JSON-lines record (a list) for one event."""
    rec = [e.tid, e.pc, e.kind.value]
    if e.kind.is_memory():
        rec.append(e.addr)
        if e.is_stack:
            rec.append(1)
    elif e.kind == EventKind.BRANCH:
        rec.append(1 if e.taken else 0)
    return rec


def _mangle(line, plan, index):
    """Deterministically corrupt one serialised record."""
    cut = max(1, int(plan.uniform("trace_corrupt_cut", index) * len(line)))
    # A truncated JSON array/object is never valid JSON, so the damage
    # is always *detectable* -- modelling torn writes, not bit flips
    # that happen to decode.
    return line[:cut]


def _faulted_lines(events, plan, tele):
    """Apply the plan's trace faults to the serialised event records.

    Each record is dropped, or kept and maybe corrupted
    (:func:`_mangle`); then adjacent survivors swap, each swap keyed by
    the original index at that position before any swap.
    """
    kept = []
    lines = []
    for index, e in enumerate(events):
        if plan.fires("trace_drop", index):
            if tele.enabled:
                tele.inc("faults.trace_drops")
            continue
        line = json.dumps(_event_record(e))
        if plan.fires("trace_corrupt", index):
            line = _mangle(line, plan, index)
            if tele.enabled:
                tele.inc("faults.trace_corruptions")
        kept.append(index)
        lines.append(line)
    for pos in range(len(lines) - 1):
        if plan.fires("trace_reorder", kept[pos]):
            lines[pos], lines[pos + 1] = lines[pos + 1], lines[pos]
            if tele.enabled:
                tele.inc("faults.trace_reorders")
    return lines


def write_trace(run, path, faults=None):
    """Write a :class:`TraceRun` to ``path``.

    ``faults`` (or the process-wide active plan) may drop, corrupt or
    reorder event records on the way out; the header is always written
    intact. With a zero plan the output is byte-identical to the
    fault-free writer.
    """
    plan = faults if faults is not None else _faults.get_plan()
    with open(path, "w", encoding="utf-8") as f:
        header = {
            "version": _FORMAT_VERSION,
            "failed": run.failed,
            "n_threads": run.n_threads,
            "seed": run.seed,
            "failure": str(run.failure) if run.failure else None,
        }
        f.write(json.dumps(header) + "\n")
        if plan.enabled:
            for line in _faulted_lines(run.events, plan,
                                       telemetry.get_registry()):
                f.write(line + "\n")
            return
        for e in run.events:
            f.write(json.dumps(_event_record(e)) + "\n")


def _parse_record(rec):
    tid, pc, kind_str = rec[0], rec[1], rec[2]
    kind = EventKind(kind_str)
    if kind.is_memory():
        addr = rec[3]
        is_stack = len(rec) > 4 and bool(rec[4])
        return TraceEvent(tid, pc, kind, addr=addr, is_stack=is_stack)
    if kind == EventKind.BRANCH:
        return TraceEvent(tid, pc, kind, taken=bool(rec[3]))
    return TraceEvent(tid, pc, kind)


def read_trace(path, recover=False, quarantine=None):
    """Read a trace written by :func:`write_trace`.

    Args:
        path: trace file.
        recover: skip malformed event records (not JSON, not UTF-8, or
            not an event) instead of raising. Skipped records are
            counted in telemetry (``faults.trace_records_skipped``) and
            in ``run.meta["skipped_records"]``.
        quarantine: optional :class:`~repro.faults.Quarantine`; implies
            ``recover`` and receives one record per damaged file.

    A missing or malformed *header* -- including one that is not UTF-8
    or lacks a run field -- is never recoverable (there is no run to
    attach events to) and always raises :class:`TraceError`.
    """
    recover = recover or quarantine is not None
    tele = telemetry.get_registry()
    skipped = 0
    with open(path, "rb") as f:
        header_line = f.readline()
        if not header_line:
            raise TraceError(f"{path}: empty trace file")
        try:
            header = json.loads(header_line.decode("utf-8"))
        except ValueError as e:
            raise TraceError(f"{path}: corrupt trace header ({e})")
        if not isinstance(header, dict):
            raise TraceError(f"{path}: corrupt trace header")
        if header.get("version") != _FORMAT_VERSION:
            raise TraceError(f"{path}: unsupported trace version")
        missing = [k for k in ("failed", "n_threads", "seed")
                   if k not in header]
        if missing:
            raise TraceError(f"{path}: trace header lacks "
                             f"{', '.join(missing)}")
        events = []
        for lineno, line in enumerate(f, start=2):
            try:
                events.append(_parse_record(json.loads(line.decode("utf-8"))))
            except (ValueError, IndexError, KeyError, TypeError) as e:
                if not recover:
                    raise TraceError(f"{path}:{lineno}: bad trace "
                                     f"record ({e})")
                skipped += 1
                if tele.enabled:
                    tele.inc("faults.trace_records_skipped")
    run = TraceRun(events=events, failed=header["failed"],
                   n_threads=header["n_threads"], seed=header["seed"])
    if skipped:
        run.meta["skipped_records"] = skipped
        if quarantine is not None:
            quarantine.admit(
                "trace.read", str(path),
                TraceError(f"{skipped} corrupt record(s) skipped"),
                attempts=1)
    return run
