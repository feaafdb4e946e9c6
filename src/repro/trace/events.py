"""Trace record types.

A trace is what the paper collects with PIN: "a sequence of memory access
instructions along with the memory addresses" (Section III.B), here
extended with branch/ALU events so the timing simulator and the PBI
baseline can replay the same runs.
"""

import enum
from dataclasses import dataclass, field
from typing import Optional


class EventKind(enum.Enum):
    """Dynamic instruction classes recorded in a trace."""

    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    ALU = "alu"

    def is_memory(self):
        return self in (EventKind.LOAD, EventKind.STORE)


@dataclass(frozen=True)
class TraceEvent:
    """One dynamic instruction.

    Attributes:
        tid: id of the thread that executed the instruction. Thread ids
            are assigned by spawn order (parent id, spawn index), which the
            paper relies on for stable per-thread weights (Section IV.C).
        pc: static instruction address.
        kind: dynamic instruction class.
        addr: effective word address for memory events, else ``None``.
        is_stack: True for stack accesses; ACT filters these loads
            (Section V, "Filtering of Loads").
        taken: branch outcome for BRANCH events, else ``None``.
    """

    tid: int
    pc: int
    kind: EventKind
    addr: Optional[int] = None
    is_stack: bool = False
    taken: Optional[bool] = None

    def __post_init__(self):
        if self.kind.is_memory() and self.addr is None:
            raise ValueError(f"memory event at pc={self.pc} needs an address")


@dataclass
class TraceRun:
    """A full recorded execution: events in global (interleaved) order.

    Attributes:
        events: dynamic instructions in the global order the scheduler
            committed them.
        failed: whether the run ended in a modelled software failure.
        failure: the :class:`~repro.common.errors.SimulatedFailure`, if any.
        code_map: the program's static code map (pc -> metadata); carried
            along so downstream stages can report function names.
        n_threads: number of threads that executed.
        seed: scheduler seed that produced this interleaving.
    """

    events: list
    failed: bool = False
    failure: Optional[object] = None
    code_map: Optional[object] = None
    n_threads: int = 1
    seed: int = 0
    meta: dict = field(default_factory=dict)

    def events_of_thread(self, tid):
        """Events of one thread, in that thread's program order."""
        return [e for e in self.events if e.tid == tid]

    def memory_events(self):
        return [e for e in self.events if e.kind.is_memory()]

    def __len__(self):
        return len(self.events)
