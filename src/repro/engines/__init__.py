"""Pluggable predictor engines behind one ``Predictor`` protocol.

See ``docs/engines.md``. ``registry.create(name)`` is the entry point;
``--engine NAME`` on the CLI routes through it. :class:`TrainedStateDir`
is the on-disk trained-state store behind ``diagnose --cache-dir``.
The names below are imported from their submodules on first access.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.engines.base": ("EngineCapabilities", "Predictor",
                           "TrainedStateDir", "candidate",
                           "candidate_report", "report_candidates"),
    "repro.engines.registry": ("create", "names", "register"),
})
