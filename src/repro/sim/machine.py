"""Trace-driven timing model of the multicore with ACT modules.

Each core replays its thread's events in global trace order with a
private clock:

- every traced memory event is charged the amortised front-end cost of
  the ``instrs_per_memop`` instructions it stands for (3-wide retire);
- loads/stores add their cache-hierarchy latency from the coherent
  memory system;
- with ACT enabled, a load whose RAW dependence forms must be accepted
  by the core's NN pipeline before it may retire: if the input FIFO is
  full the core stalls until a slot frees (Section III.C). The pipeline
  service interval follows the AM's current mode (T testing / 4T
  training).

Execution time is the maximum per-core clock; ACT overhead is the ratio
against an identical run without ACT.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import telemetry
from repro.nn.pipeline import ACTPipelineModel, NeuronTiming
from repro.sim.coherence import CoherentMemorySystem
from repro.sim.params import MachineParams
from repro.trace.events import EventKind
from repro.trace.raw import DepRecord, RawDep
from repro.core.act_module import Mode, publish_stats


@dataclass
class MachineResult:
    """Result of one timed replay.

    ``overhead_proxy`` is the adaptive-tracking cost figure the
    ``frontier`` experiment sweeps (see docs/adaptive.md): the traced
    dependence count scaled by the mean input-FIFO occupancy observed
    at each offer, ``deps_offered * (1 + mean_occupancy)``. Sampling
    lowers both factors; a deeper FIFO trades stalls for occupancy.
    ``deps_shed`` counts dependences an active policy dropped before
    they could reach the NN pipeline (0 on a policy-free replay).
    """

    cycles: int
    core_cycles: Dict[int, float]
    act_stall_cycles: float = 0.0
    deps_offered: int = 0
    deps_stalled: int = 0
    mem_stats: dict = field(default_factory=dict)
    act_modules: Optional[dict] = None
    deps_shed: int = 0
    deps_tightened: int = 0
    mean_occupancy: float = 0.0
    overhead_proxy: float = 0.0

    @property
    def max_core(self):
        return max(self.core_cycles, key=self.core_cycles.get)


class Machine:
    """A multicore machine bound to one trace replay."""

    def __init__(self, params=None, trained=None, act_config=None):
        """Args:
            params: :class:`MachineParams`.
            trained: optional :class:`~repro.core.offline.TrainedACT`;
                enables the per-core ACT modules and their pipelines.
            act_config: replaces ``trained.config`` in every per-core
                module and pipeline when given (muladd units, FIFO
                depth, buffer sizes, check window).
        """
        self.params = params or MachineParams()
        self.memory = CoherentMemorySystem(self.params)
        self.trained = trained
        cfg = act_config or (trained.config if trained else None)
        self._act_cfg = cfg
        self._modules = {}
        self._pipes = {}

    def _act_for(self, tid):
        if self.trained is None:
            return None, None
        core = tid % self.params.n_cores
        if core not in self._modules:
            module = self.trained.make_module(tid, config=self._act_cfg)
            timing = NeuronTiming(
                max_inputs=module.config.max_inputs,
                muladd_units=module.config.muladd_units)
            self._modules[core] = module
            self._pipes[core] = ACTPipelineModel(
                timing=timing, fifo_depth=module.config.fifo_depth)
        return self._modules[core], self._pipes[core]

    def run(self, run):
        """Replay a :class:`TraceRun`; returns a :class:`MachineResult`."""
        p = self.params
        clocks: Dict[int, float] = {}
        base_cost = p.instrs_per_memop / p.retire_width
        stall_total = 0.0
        deps_offered = 0
        deps_stalled = 0
        occ_sum = 0.0
        filter_stack = (self._act_cfg.filter_stack_loads
                        if self._act_cfg else True)
        tele = telemetry.get_registry()
        track = tele.enabled
        # Per-event constants and bound methods, hoisted out of the loop.
        n_cores = p.n_cores
        store_cap = p.l1_latency
        with_act = self.trained is not None
        load, store = self.memory.load, self.memory.store
        act_for = self._act_for
        units = {}  # core -> (module, pipe), filled on first dependence
        LOAD, STORE, TRAINING = EventKind.LOAD, EventKind.STORE, Mode.TRAINING

        for event in run.events:
            kind = event.kind
            core = event.tid % n_cores
            clock = clocks.get(core, 0.0) + base_cost
            if kind is LOAD:
                res = load(core, event.addr)
                clock += res.latency
                writer = res.writer
                if (with_act and writer is not None
                        and not (filter_stack and event.is_stack)):
                    unit = units.get(core)
                    if unit is None:
                        unit = units[core] = act_for(event.tid)
                    module, pipe = unit
                    wpc, wtid = writer
                    pred = module.process_dep(
                        RawDep(wpc, event.pc, wtid != core))
                    if pred is not None:
                        deps_offered += 1
                        training = module.mode is TRAINING
                        accepted, retry, occupancy = pipe.offer(
                            int(clock), training=training)
                        occ_sum += occupancy
                        pstate = module.policy_state
                        if pstate is not None:
                            # The backoff control signal: FIFO pressure
                            # as a fraction of depth, fed per offer.
                            pstate.note_occupancy(
                                occupancy / pipe.fifo_depth)
                        if track:
                            tele.observe("sim.fifo_occupancy", occupancy)
                        if not accepted:
                            deps_stalled += 1
                            stall = max(0.0, retry - clock)
                            stall_total += stall
                            clock = float(retry)
                            pipe.offer(int(clock), training=training)
                            if pstate is not None:
                                pstate.note_stall()
                            if track:
                                tele.inc("sim.fifo_stalls")
                                tele.inc("sim.act_stall_cycles", stall)
            elif kind is STORE:
                latency = store(core, event.addr, event.pc).latency
                # Stores retire through the write buffer; only the
                # occupancy of an upgrade/miss shows at retirement.
                clock += latency if latency < store_cap else store_cap
            # Branch/ALU events are covered by the amortised base cost.
            clocks[core] = clock

        cycles = int(max(clocks.values())) if clocks else 0
        mean_occ = occ_sum / deps_offered if deps_offered else 0.0
        proxy = deps_offered * (1.0 + mean_occ)
        deps_shed = sum(m.policy_state.shed
                        for m in self._modules.values()
                        if m.policy_state is not None)
        deps_tightened = sum(m.policy_state.tightened
                             for m in self._modules.values()
                             if m.policy_state is not None)
        if track:
            tele.inc("sim.runs")
            tele.inc("sim.cycles", cycles)
            tele.inc("sim.deps_offered", deps_offered)
            tele.set_gauge("sim.overhead_proxy", round(proxy, 4))
            self.memory.publish_telemetry(tele)
            publish_stats(self._modules.values())
        return MachineResult(cycles=cycles, core_cycles=clocks,
                             act_stall_cycles=stall_total,
                             deps_offered=deps_offered,
                             deps_stalled=deps_stalled,
                             mem_stats=dict(self.memory.stats),
                             act_modules=self._modules or None,
                             deps_shed=deps_shed,
                             deps_tightened=deps_tightened,
                             mean_occupancy=mean_occ,
                             overhead_proxy=proxy)


def simulate_run(run, params=None, trained=None, act_config=None):
    """Convenience wrapper: one replay on a fresh machine."""
    return Machine(params=params, trained=trained,
                   act_config=act_config).run(run)


def measure_overhead(run, trained, params=None, act_config=None):
    """Execution-time overhead of ACT for one trace.

    Returns (overhead_fraction, base_result, act_result).
    """
    base = simulate_run(run, params=params)
    withact = simulate_run(run, params=params, trained=trained,
                           act_config=act_config)
    if base.cycles == 0:
        return 0.0, base, withact
    overhead = withact.cycles / base.cycles - 1.0
    return overhead, base, withact


def annotate_run(run, params=None):
    """Functional replay: per-event cache annotations for PBI.

    Returns a list aligned with ``run.events``; memory events map to
    their :class:`AccessResult` (MESI state observed at access), other
    events map to None.
    """
    memory = CoherentMemorySystem(params or MachineParams())
    n_cores = memory.params.n_cores
    out = []
    for event in run.events:
        core = event.tid % n_cores
        if event.kind is EventKind.LOAD:
            out.append(memory.load(core, event.addr))
        elif event.kind is EventKind.STORE:
            out.append(memory.store(core, event.addr, event.pc))
        else:
            out.append(None)
    return out


def cache_dep_streams(run, params=None, filter_stack=True):
    """Per-thread RAW dependence streams as the *hardware* would form
    them -- from cache-line last-writer metadata with all Section V
    simplifications -- rather than from the perfect software table.

    Used by the false-sharing study to quantify how line granularity,
    eviction dropping and piggyback filtering perturb the dependences.
    """
    memory = CoherentMemorySystem(params or MachineParams())
    streams: Dict[int, List[DepRecord]] = {
        tid: [] for tid in range(run.n_threads)}
    n_cores = memory.params.n_cores
    for index, event in enumerate(run.events):
        core = event.tid % n_cores
        if event.kind is EventKind.STORE:
            memory.store(core, event.addr, event.pc)
        elif event.kind is EventKind.LOAD:
            if filter_stack and event.is_stack:
                continue
            res = memory.load(core, event.addr)
            if res.writer is None:
                continue
            wpc, wtid = res.writer
            dep = RawDep(wpc, event.pc, inter_thread=wtid != core)
            streams.setdefault(event.tid, []).append(
                DepRecord(dep=dep, tid=event.tid, addr=event.addr,
                          index=index))
    return streams
