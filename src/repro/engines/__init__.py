"""Pluggable predictor engines behind one ``Predictor`` protocol.

See ``docs/engines.md``. ``registry.create(name)`` is the entry point;
``--engine NAME`` on the CLI routes through it. :class:`TrainedStateDir`
is the on-disk trained-state store behind ``diagnose --cache-dir``.
"""

from repro.engines.base import (
    EngineCapabilities,
    Predictor,
    TrainedStateDir,
    candidate,
    candidate_report,
    report_candidates,
)
from repro.engines.registry import create, names, register

__all__ = [
    "EngineCapabilities",
    "Predictor",
    "TrainedStateDir",
    "candidate",
    "candidate_report",
    "create",
    "names",
    "register",
    "report_candidates",
]
