"""Injectable clocks for the telemetry layer.

Every timestamp telemetry records -- span start/end, events/sec
gauges -- comes from the owning registry's *clock*, a zero-argument
callable returning seconds. Two implementations:

- :data:`WALL` -- ``time.perf_counter``, the default: real wall time.
- :class:`TickClock` -- a deterministic counter that advances by a
  fixed ``step`` on every call. Two runs that make the same sequence
  of telemetry calls read the same sequence of timestamps, which is
  what makes exported profiles *byte-identical* across reruns (the golden-file tests and the seed-pinned CLI
  acceptance check both rely on it).

Clocks cross the process-pool boundary as *specs* (plain tuples), not
as objects: a worker reconstructs its own clock from the spec and
starts it at zero, so a task's timestamps depend only on the work the
task does -- never on which OS process ran it or what ran before.
"""

import time

WALL = time.perf_counter


class TickClock:
    """Deterministic clock: each call returns ``start + n * step``.

    ``step`` defaults to one millisecond, so a span that makes no
    nested telemetry calls lasts exactly one tick and every duration is
    an exact multiple of ``step`` -- stable under ``repr`` and JSON.
    """

    __slots__ = ("start", "step", "_n")

    def __init__(self, start=0.0, step=0.001):
        self.start = start
        self.step = step
        self._n = 0

    def __call__(self):
        now = self.start + self._n * self.step
        self._n += 1
        return now


def clock_spec(clock):
    """Picklable description of ``clock`` for worker propagation."""
    if isinstance(clock, TickClock):
        return ("tick", clock.step)
    return ("wall",)


def clock_from_spec(spec):
    """Rebuild a clock from :func:`clock_spec` (ticks restart at zero)."""
    if spec and spec[0] == "tick":
        return TickClock(step=spec[1])
    return WALL
