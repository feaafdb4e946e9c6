"""Telemetry: counters, spans and exportable run profiles for ACT.

ACT's pitch is visibility into production runs; this package gives the
reproduction the same property. Every layer (ACT module, buffers,
offline training, diagnosis, timing simulator, workload scheduler)
reports into a process-wide *active registry*:

- **counters/gauges/histograms** (:mod:`repro.telemetry.registry`) --
  cheap always-on aggregates: invalid predictions, mode switches, FIFO
  stalls, debug-buffer overflows, cache hits/misses, ...
- **spans** (:mod:`repro.telemetry.spans`) -- nested wall-time phases:
  one ``diagnose`` root decomposes into offline training, the failure
  run, deployment, pruning runs and post-processing.
- **run profiles** (:mod:`repro.telemetry.export`) -- the one
  telemetry record: a registry snapshot written as one JSON object,
  rendered for humans as tables, folded flame stacks or the critical
  path (:mod:`repro.telemetry.flame`).

The default active registry is a :class:`NullRegistry`: every mutator
is a no-op and ``enabled`` is False, so instrumentation is zero-cost
and results are byte-identical to an uninstrumented build. Enable it
per run::

    from repro import telemetry

    with telemetry.use_registry(telemetry.Registry()) as reg:
        diagnose_failure(program)
    telemetry.write_profile(reg, "profile.json")

or process-wide with :func:`set_registry`. The CLI installs a
recording registry only when ``--telemetry PATH`` is given, and writes
its profile there when the command returns. Instrumented code fetches the registry at call time
(``telemetry.get_registry()``), so installation order never matters;
hot paths guard multi-metric blocks with ``if tele.enabled``.
"""

from contextlib import contextmanager

from repro.telemetry.catalog import CATALOG, MetricSpec, format_catalog
from repro.telemetry.clock import WALL, TickClock, clock_from_spec, clock_spec
from repro.telemetry.export import (
    format_profile,
    profile_dict,
    read_profile,
    write_profile,
)
from repro.telemetry.flame import (
    critical_path,
    folded_stacks,
    format_critical_path,
    format_flame,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    NullRegistry,
    Registry,
)
from repro.telemetry.spans import Span, SpanTracer

__all__ = [
    "CATALOG", "MetricSpec", "format_catalog",
    "WALL", "TickClock", "clock_from_spec", "clock_spec",
    "Counter", "Gauge", "Histogram", "NullRegistry", "Registry",
    "Span", "SpanTracer",
    "critical_path", "folded_stacks", "format_critical_path",
    "format_flame",
    "format_profile", "profile_dict", "read_profile", "write_profile",
    "enabled", "get_registry", "set_registry", "use_registry",
]

_NULL = NullRegistry()
_active = _NULL


def get_registry():
    """The process-wide active registry (a NullRegistry when disabled)."""
    return _active


def set_registry(registry):
    """Install ``registry`` (None disables); returns the previous one."""
    global _active
    previous = _active
    _active = _NULL if registry is None else registry
    return previous


def enabled():
    """True when the active registry records anything."""
    return _active.enabled


@contextmanager
def use_registry(registry):
    """Scoped installation: restore the previous registry on exit."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
