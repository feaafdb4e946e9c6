"""Cycle-level timing model of the ACT three-stage neural pipeline.

Section IV.A: stage S1 is the input FIFO (1 cycle), S2 the hidden layer,
S3 the single output neuron. Each of S2/S3 takes ``T`` cycles, where a
neuron with ``M`` inputs and ``x`` multiply-add units needs

    T = ceil(M / x) * T_muladd + T_rest

cycles (``T_rest`` covers the accumulator and sigmoid-table lookups).

During *online testing* the network is pipelined: with a full FIFO it
accepts a new input every ``T`` cycles. During *online training* back
propagation makes stage connections bidirectional and an input must
drain completely before the next enters: one input every ``4T`` cycles.
When the FIFO is full the corresponding load is stalled at retirement
(the machine model in :mod:`repro.sim` uses :meth:`ACTPipelineModel.offer`
for that back-pressure).
"""

import math
from collections import deque
from dataclasses import dataclass

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class NeuronTiming:
    """Latency parameters of one hardware neuron (Table III defaults)."""

    max_inputs: int = 10
    muladd_units: int = 2
    t_muladd: int = 1
    t_accumulator: int = 1
    t_sigmoid: int = 1

    def __post_init__(self):
        if self.muladd_units < 1:
            raise ConfigError("need at least one multiply-add unit")
        if self.muladd_units > self.max_inputs:
            raise ConfigError("more multiply-add units than inputs is wasted")

    @property
    def t_rest(self):
        return self.t_accumulator + self.t_sigmoid

    def neuron_latency(self):
        """Cycles for one neuron to produce its output (``T``)."""
        return (math.ceil(self.max_inputs / self.muladd_units) * self.t_muladd
                + self.t_rest)


class ACTPipelineModel:
    """Finite-FIFO deterministic-service queue for the NN pipeline.

    The model tracks, for each accepted input, the cycle at which it
    leaves the FIFO and enters S2. Input ``j`` starts service at
    ``max(arrival_j, start_{j-1} + interval)`` where the interval is
    ``T`` in testing mode and ``4T`` in training mode. The FIFO holds
    inputs that have arrived but not yet started service; when it is
    full, :meth:`offer` rejects and reports the earliest retry cycle.
    """

    TRAINING_SLOWDOWN = 4

    def __init__(self, timing=None, fifo_depth=8):
        if fifo_depth < 1:
            raise ConfigError("FIFO depth must be positive")
        self.timing = timing or NeuronTiming()
        self.fifo_depth = fifo_depth
        self.latency = self.timing.neuron_latency()
        # Service interval by mode, indexed by ``training``.
        self._intervals = (self.latency,
                           self.latency * self.TRAINING_SLOWDOWN)
        self._pending_starts = deque()
        self._last_start = None

    def service_interval(self, training):
        """Cycles between service starts: ``T`` testing, ``4T`` training."""
        return self._intervals[bool(training)]

    def offer(self, cycle, training=False):
        """Try to insert an input at ``cycle``.

        Returns:
            (accepted, retry_cycle, occupancy): ``retry_cycle`` is the
            cycle at which the caller should retry when rejected, else
            ``cycle``; ``occupancy`` is the number of earlier inputs
            still waiting in the FIFO at ``cycle`` (``fifo_depth`` when
            rejected).
        """
        # Starts are non-decreasing (each is max(cycle, previous start +
        # interval)), so the inputs that started service are a prefix.
        starts = self._pending_starts
        while starts and starts[0] <= cycle:
            starts.popleft()
        occupancy = len(starts)
        if occupancy >= self.fifo_depth:
            return False, starts[0], occupancy
        start = cycle
        if self._last_start is not None:
            start = max(cycle, self._last_start
                        + self._intervals[bool(training)])
        starts.append(start)
        self._last_start = start
        return True, cycle, occupancy
