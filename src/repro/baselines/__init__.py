"""Comparison schemes from the paper's evaluation.

- :mod:`repro.baselines.pbi` -- PBI-style sampling diagnosis: per
  instruction, sample hardware events (MESI state at memory accesses,
  branch outcomes) across correct and failing runs and rank predicates
  by a CBI/PBI statistical score. We implement the paper's "extreme"
  variant that samples *every* instruction.
- :mod:`repro.baselines.aviso` -- Aviso-style constraint learning from
  failure runs: candidate event-pair constraints harvested near the
  failure point, refined as more failures are observed. Needs at least
  one (usually several) failure reproductions and only works for
  multi-threaded programs.
- :mod:`repro.baselines.pset` -- PSet-style static communication
  invariants (exact valid-writer sets per load), the class of scheme
  ACT's adaptivity argument is made against.

These modules hold the scoring math; each baseline's diagnosis flow is
its engine in :mod:`repro.engines.baseline_engines` (``aviso``,
``pbi``, ``pset``). The names below are imported from their submodules
on first access.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.baselines.pset": ("PSetInvariants",),
})
