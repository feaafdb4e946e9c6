"""Experiment harness: one runner per table/figure of the paper.

Every runner returns plain result dataclasses and has a ``format_*``
helper that renders the same rows the paper prints. The benchmarks in
``benchmarks/`` are thin wrappers over these runners. The names below
are imported from their submodules on first access.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.analysis.presets": ("FAST", "FULL", "Preset"),
    "repro.analysis.experiments": ("Experiment", "experiment_names",
                                   "get_experiment", "run_experiment"),
})
