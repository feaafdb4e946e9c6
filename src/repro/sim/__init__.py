"""Multicore timing simulator.

Trace-driven model of the Table III machine: private L1/L2 per core,
snoopy MESI coherence, cache-line last-writer metadata with the
Section V simplifications, and the ACT Module's NN-pipeline
back-pressure on load retirement. Used for the overhead and
false-sharing studies; the functional replay also supplies the
cache-event annotations the PBI baseline samples. The names below are
imported from their submodules on first access.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sim.cache": ("Cache", "CacheLine"),
    "repro.sim.coherence": ("AccessResult", "CoherentMemorySystem",
                            "MESIState"),
    "repro.sim.machine": ("Machine", "MachineResult", "simulate_run"),
    "repro.sim.params": ("MachineParams",),
})
