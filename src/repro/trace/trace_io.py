"""Trace serialisation: JSON-lines.

One event per line so very long runs can be streamed; the first line is
a header record with run-level metadata.

The files hold exactly the events of the run they are given. Trace
damage is modelled where a diagnosis reads the trace, in
:func:`repro.workloads.framework.run_program`, so a run recorded under
a fault plan is written with its damage and read back as written.
:func:`read_trace` is strict: a malformed file is an error, never
partly loaded.
"""

import json

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


def write_trace(run, path):
    """Write a :class:`TraceRun` to ``path``: a header line, then one
    record per event."""
    with open(path, "w", encoding="utf-8") as f:
        header = {
            "version": _FORMAT_VERSION,
            "failed": run.failed,
            "n_threads": run.n_threads,
            "seed": run.seed,
            "failure": str(run.failure) if run.failure else None,
        }
        f.write(json.dumps(header) + "\n")
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


def read_trace(path):
    """Read a trace written by :func:`write_trace`.

    Strict: a missing or malformed header (not UTF-8, not JSON, or
    lacking a run field) and any malformed event record raise
    :class:`TraceError` naming the file.
    """
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
                raise TraceError(f"{path}:{lineno}: bad trace record ({e})")
    return TraceRun(events=events, failed=header["failed"],
                    n_threads=header["n_threads"], seed=header["seed"])
