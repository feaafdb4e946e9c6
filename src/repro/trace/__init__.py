"""Execution traces and RAW-dependence extraction.

This subsystem plays the role of the paper's PIN-based tracing tool plus
the *Input Generator* front half: it records per-thread memory-access
instruction streams and turns them into labelled RAW dependences and
dependence sequences.
"""

from repro.trace.events import EventKind, TraceEvent, TraceRun
from repro.trace.raw import (
    RawDep,
    RawDepExtractor,
    extract_raw_deps,
    extract_raw_deps_with_negatives,
)
from repro.trace.trace_io import read_trace, write_trace

__all__ = [
    "EventKind",
    "TraceEvent",
    "TraceRun",
    "RawDep",
    "RawDepExtractor",
    "extract_raw_deps",
    "extract_raw_deps_with_negatives",
    "read_trace",
    "write_trace",
]
