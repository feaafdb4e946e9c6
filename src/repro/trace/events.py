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


_MEMORY_KINDS = frozenset((EventKind.LOAD, EventKind.STORE))
_FIELDS = ("tid", "pc", "kind", "addr", "is_stack", "taken")


class TraceEvent:
    """One dynamic instruction (immutable).

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
        value: the value a STORE writes, which the scheduler commits to
            program memory. It is execution state, not part of the trace
            record: equality, hashing, ``repr`` and the trace file leave
            it out.

    A slotted class rather than a frozen dataclass or a tuple: the
    scheduler builds one per executed instruction, and the timing
    simulator reads every field of every event, which CPython does
    fastest through slots.
    """

    __slots__ = _FIELDS + ("value",)

    def __new__(cls, tid, pc, kind, addr=None, is_stack=False, taken=None,
                value=None):
        if addr is None and kind in _MEMORY_KINDS:
            raise ValueError(f"memory event at pc={pc} needs an address")
        return build_event(tid, pc, kind, addr, is_stack, taken, value)

    def _record(self):
        return (self.tid, self.pc, self.kind, self.addr, self.is_stack,
                self.taken)

    def __setattr__(self, name, value):
        raise AttributeError(f"TraceEvent is immutable (cannot set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(
            f"TraceEvent is immutable (cannot delete {name!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._record() == other._record()

    def __hash__(self):
        return hash(self._record())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in _FIELDS)
        return f"TraceEvent({body})"

    def __reduce__(self):
        return TraceEvent, self._record() + (self.value,)


_new = object.__new__
(_set_tid, _set_pc, _set_kind, _set_addr, _set_is_stack, _set_taken,
 _set_value) = (getattr(TraceEvent, name).__set__
                for name in TraceEvent.__slots__)


def build_event(tid, pc, kind, addr, is_stack, taken, value):
    """A :class:`TraceEvent` filled through its slot descriptors, with no
    address check: the constructor's body, and the scheduler's."""
    event = _new(TraceEvent)
    _set_tid(event, tid)
    _set_pc(event, pc)
    _set_kind(event, kind)
    _set_addr(event, addr)
    _set_is_stack(event, is_stack)
    _set_taken(event, taken)
    _set_value(event, value)
    return event


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
