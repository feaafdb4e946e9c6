"""Workloads: a mini concurrent-program framework plus kernels and bugs.

Programs are written as generator threads that yield typed operations
(loads, stores, branches, ALU ops, synchronisation). A seeded scheduler
interleaves them, producing :class:`~repro.trace.events.TraceRun` objects
-- the same artifact the paper collects with PIN, but with controllable,
reproducible interleaving so concurrency bugs can be injected and
triggered deterministically. The names below are imported from their
submodules on first access.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workloads.framework": ("AddressSpace", "CodeMap", "Program",
                                  "ProgramInstance", "Scheduler",
                                  "ThreadCtx", "run_program"),
    "repro.workloads.generator": ("ARCHETYPES", "MOTIFS",
                                  "GeneratedProgram", "ProgramSpec",
                                  "generate_program"),
    "repro.workloads.registry": ("all_bug_names", "all_kernel_names",
                                 "get_bug", "get_kernel", "get_workload"),
})
