"""Production-run deployment: replay a trace through per-core AMs.

One :class:`~repro.core.act_module.ACTModule` per thread (threads are
pinned one-per-core, Section IV.C/D); a shared last-writer tracker forms
each retired load's RAW dependence exactly as the extended cache lines
would, and hands it to the owning core's AM, one dependence at a time.
"""

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro import faults as _faults
from repro import telemetry
from repro.common.errors import FaultInjected
from repro.core.act_module import publish_stats
from repro.trace.raw import RawDepExtractor


@dataclass
class DeploymentResult:
    """State after replaying one execution through the AMs."""

    modules: Dict[int, object]
    n_deps: int = 0

    def debug_entries(self):
        """All AMs' debug-buffer entries merged in logging order."""
        merged = []
        for tid in sorted(self.modules):
            merged.extend(self.modules[tid].debug_buffer.entries)
        merged.sort(key=lambda e: e.index)
        return merged

    @property
    def n_predictions(self):
        return sum(m.stats.predictions for m in self.modules.values())

    @property
    def n_invalid(self):
        return sum(m.stats.invalid_predictions for m in self.modules.values())

    @property
    def n_mode_switches(self):
        return sum(m.stats.mode_switches for m in self.modules.values())

    @property
    def n_shed(self):
        """Dependences dropped by the active sampling policy (0 when
        the replay ran policy-free)."""
        return sum(m.policy_state.shed for m in self.modules.values()
                   if m.policy_state is not None)

    @property
    def n_tightened(self):
        """Dependences force-admitted by suspicion tightening."""
        return sum(m.policy_state.tightened for m in self.modules.values()
                   if m.policy_state is not None)


def _heal_module(module, trained, tid, quarantine):
    """Repair a module whose NN weights are non-finite (fault recovery).

    A ``weight_flip`` fault (or genuine bit-rot in restored weights)
    leaves NaN/Inf in the weight registers, which would silently poison
    every prediction for the run. Detection is the ``chkwt`` sanity pass
    a real deployment performs on context-switch-in: if any register is
    non-finite the module falls back to the pooled default weights (or
    zeros when those are damaged too), the incident is quarantined, and
    replay continues.
    """
    flat = module.net.read_weights()
    if np.isfinite(flat).all():
        return module
    fallback = np.asarray(trained.default_weights, dtype=float)
    if not np.isfinite(fallback).all():
        fallback = np.zeros_like(flat)
    module.net.write_weights(fallback)
    telemetry.get_registry().inc("faults.weights_healed")
    if quarantine is not None:
        quarantine.admit(
            "deploy.weights", tid,
            FaultInjected("non-finite NN weights healed with default "
                          f"weights (tid {tid})",
                          site="weight_flip", key=tid))
    return module


def deploy_on_run(trained, run, quarantine=None):
    """Feed every RAW dependence of ``run`` through per-thread AMs.

    One path serves every replay: each dependence goes through its
    core's :meth:`ACTModule.process_dep`, the same per-dependence step
    the timing simulator drives, so fault plans (the per-push
    FIFO-overrun site) and sampling policies (the per-dependence admit
    gate) act here with no special case.

    Args:
        trained: a :class:`~repro.core.offline.TrainedACT`.
        run: the :class:`~repro.trace.events.TraceRun` to replay (for
            diagnosis this is the failure execution).
        quarantine: optional :class:`~repro.faults.Quarantine`; records
            healed weight damage instead of replaying with NaN weights.

    Returns:
        :class:`DeploymentResult` with the AMs (and their debug buffers)
        in their end-of-run state.
    """
    heal = _faults.get_plan().enabled or quarantine is not None
    cfg = trained.config

    def fresh_module(tid):
        module = trained.make_module(tid)
        if heal:
            module = _heal_module(module, trained, tid, quarantine)
        return module

    modules = {tid: fresh_module(tid) for tid in range(run.n_threads)}
    extractor = RawDepExtractor(filter_stack=cfg.filter_stack_loads)
    result = DeploymentResult(modules=modules)
    for index, event in enumerate(run.events):
        rec = extractor.feed(event, index=index)
        if rec is None:
            continue
        module = modules.get(rec.tid)
        if module is None:  # thread spawned beyond the trained set
            module = fresh_module(rec.tid)
            modules[rec.tid] = module
        result.n_deps += 1
        module.process_dep(rec.dep)
    tele = telemetry.get_registry()
    if tele.enabled:
        tele.inc("deploy.runs")
        tele.inc("deploy.deps", result.n_deps)
        publish_stats(modules.values())
    return result
