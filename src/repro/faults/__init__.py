"""Fault injection and resilience for the ACT pipeline.

ACT is a *production-run* diagnosis system, so this reproduction must
keep diagnosing when the data it reads is damaged: lossy traces,
NaN-poisoned weights, overrun hardware FIFOs. This package provides
both halves:

- **Injection** (:mod:`repro.faults.plan`): a seeded, deterministic
  :class:`FaultPlan` activated process-wide via :func:`use_plan`.
  Instrumented boundaries (``workloads.framework.run_program`` for
  trace drops and reorders, ``core.offline`` for weight flips,
  ``core.buffers`` for FIFO overruns) consult the active plan through
  :func:`get_plan`; the default :data:`ZERO_PLAN` never fires and costs
  one attribute check.
- **Recovery**:
  :class:`~repro.faults.quarantine.Quarantine` turns per-unit failures
  into skip-and-report records instead of aborted runs. It records
  failed "correct" runs (``core.offline.collect_runs_for_seeds``), a
  work unit's :class:`~repro.common.errors.ReproError`
  (:func:`repro.parallel.run_tasks`) and AMs whose non-finite weights
  were healed at deployment (``core.deploy``).

The regression contract (``tests/test_faults_differential.py``): with a
zero plan every output is byte-identical to the unfaulted path; with
any plan, diagnosis completes with a quarantine report instead of an
unhandled exception.
"""

from contextlib import contextmanager

from repro.common.lazy import lazy_exports
from repro.faults.plan import RATE_SITES, ZERO_PLAN, FaultPlan, flip_weights

# The quarantine loads when first used: a plain diagnosis consults only
# the active plan.
__getattr__, __dir__, _LAZY = lazy_exports(__name__, {
    "repro.faults.quarantine": ("Quarantine", "QuarantineRecord"),
})

__all__ = [
    "FaultPlan", "RATE_SITES", "ZERO_PLAN", "flip_weights",
    "get_plan", "set_plan", "use_plan", *_LAZY,
]

_active = ZERO_PLAN


def get_plan():
    """The process-wide active fault plan (ZERO_PLAN when none is set)."""
    return _active


def set_plan(plan):
    """Install ``plan`` (None resets to ZERO_PLAN); returns the previous."""
    global _active
    previous = _active
    _active = ZERO_PLAN if plan is None else plan
    return previous


@contextmanager
def use_plan(plan):
    """Activate ``plan`` for the duration of a ``with`` block."""
    previous = set_plan(plan)
    try:
        yield _active
    finally:
        set_plan(previous)
