"""Hardware buffers of the ACT Module.

- :class:`InputGeneratorBuffer`: FIFO of the most recent RAW
  dependences; the newest dependence plus the previous ``N - 1`` form
  one NN input (Section III.C). When full, the oldest entry is dropped.
- :class:`DebugBuffer`: circular log of the most recent
  predicted-invalid sequences together with the NN output; its contents
  are what offline post-processing consumes after a failure.
"""

from collections import deque
from dataclasses import dataclass
from typing import Tuple

from repro import faults as _faults
from repro import telemetry
from repro.common.errors import ConfigError


class InputGeneratorBuffer:
    """FIFO of recent RAW dependences (Table III: 5 entries).

    ``tid`` names the owning core so the fault layer can key injected
    FIFO overruns deterministically per (core, push ordinal).
    """

    def __init__(self, capacity=5, tid=0):
        if capacity < 1:
            raise ConfigError("input generator buffer needs capacity >= 1")
        self.capacity = capacity
        self.tid = tid
        self._deps = deque(maxlen=capacity)
        self._pushes = 0

    def push(self, dep):
        self._pushes += 1
        plan = _faults.get_plan()
        if plan.enabled and plan.fires("fifo_overflow", self.tid,
                                       self._pushes):
            # Injected overrun: the hardware FIFO wrapped before the NN
            # pipeline drained it, losing the unconsumed entries. The
            # window restarts from this dependence (a warm-up gap, not
            # a crash -- predictions resume once the buffer refills).
            self._deps.clear()
            telemetry.get_registry().inc("faults.fifo_overflows")
        self._deps.append(dep)

    @property
    def pushes(self):
        """Total dependences ever pushed through :meth:`push`, the only
        way in (the per-core ordinal that keys deterministic per-push
        decisions -- fault-plan FIFO overruns here, and the sampling
        draws in :mod:`repro.core.policy`, which gate *before* the push
        so a shed dependence never advances this counter)."""
        return self._pushes

    def sequence(self, n):
        """The newest ``n`` dependences (oldest first), or None if not warm."""
        if n > self.capacity:
            raise ConfigError(f"sequence length {n} exceeds capacity "
                              f"{self.capacity}")
        if len(self._deps) < n:
            return None
        # A slice covering the whole tuple returns the tuple itself.
        return tuple(self._deps)[-n:]

    def __len__(self):
        return len(self._deps)

    def clear(self):
        self._deps.clear()


@dataclass(frozen=True)
class DebugEntry:
    """One logged predicted-invalid sequence."""

    seq: Tuple          # tuple of RawDep, oldest first
    output: float       # NN output (< 0.5 since it was predicted invalid)
    index: int          # dynamic position (dep count) when logged
    tid: int = 0


class DebugBuffer:
    """Circular buffer of the last ``capacity`` invalid sequences."""

    def __init__(self, capacity=60):
        if capacity < 1:
            raise ConfigError("debug buffer needs capacity >= 1")
        self.capacity = capacity
        self._entries = deque(maxlen=capacity)
        self.total_logged = 0  # including overwritten entries

    def log(self, entry):
        tele = telemetry.get_registry()
        if tele.enabled:
            tele.inc("debug_buffer.logged")
            if len(self._entries) >= self.capacity:
                # The append below overwrites the oldest entry -- the
                # overflow mode Table V's MySQL#1 row is about.
                tele.inc("debug_buffer.overflows")
            tele.observe("debug_buffer.occupancy",
                         min(len(self._entries) + 1, self.capacity))
        self._entries.append(entry)
        self.total_logged += 1

    @property
    def entries(self):
        """Entries oldest-first."""
        return list(self._entries)

    @property
    def overflowed(self):
        """True when older entries have been overwritten."""
        return self.total_logged > self.capacity

    def position_from_newest(self, predicate):
        """1-based distance from the newest entry to the first match.

        Table V's "Debug Buf. Pos." column: how deep in the buffer the
        root cause sat when the failure struck. Returns None when no
        entry matches (e.g. overwritten -- the MySQL#1 case).
        """
        for i, entry in enumerate(reversed(self._entries), start=1):
            if predicate(entry):
                return i
        return None

    def __len__(self):
        return len(self._entries)

    def clear(self):
        self._entries.clear()
        self.total_logged = 0
