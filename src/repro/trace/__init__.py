"""Execution traces and RAW-dependence extraction.

This subsystem plays the role of the paper's PIN-based tracing tool plus
the *Input Generator* front half: it records per-thread memory-access
instruction streams and turns them into labelled RAW dependences and
dependence sequences. The names below are imported from their
submodules on first access.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.trace.events": ("EventKind", "TraceEvent", "TraceRun"),
    "repro.trace.raw": ("RawDep", "RawDepExtractor", "extract_raw_deps",
                        "extract_raw_deps_with_negatives"),
    "repro.trace.trace_io": ("read_trace", "write_trace"),
})
