"""Aviso-, PBI- and PSet-style baselines behind the Predictor protocol.

Each engine reuses its ``repro.baselines`` module's statistics and
ranking math but splits the flow into ``train`` (correct-run state,
shared seed range, cacheable) and ``report_trained`` (the
failure-side protocol), so ``diagnose --cache-dir`` can reuse their
trained state and the shootout can run them on the exact corpus the NN
engine sees.

Candidate keys are ``store->load`` pc pairs for Aviso/PSet and
``pc=<pc>:<event>`` predicates for PBI; a candidate's ``hit`` flag uses
the same ground-truth test the native baseline modules use (pair
membership for PSet, root-pc membership for Aviso/PBI).
"""

from collections import defaultdict

import numpy as np

from repro.baselines.aviso import AvisoDiagnoser, _sampled_pairs, _window_pairs
from repro.baselines.pbi import Predicate, _observe
from repro.baselines.pset import PSetInvariants
from repro.core.offline import collect_runs_for_seeds
from repro.engines.base import (
    EngineCapabilities,
    Predictor,
    candidate,
    candidate_report,
)
from repro.sim.params import MachineParams
from repro.trace.raw import RawDep
from repro.workloads.framework import run_program


def _failure_run(program, seed, failure_params):
    return run_program(program, seed=seed, **dict(failure_params
                                                  or {"buggy": True}))


def _truth(run, root_cause):
    return root_cause or run.meta.get("root_cause") or set()


def _root_pcs(truth):
    return {pc for pair in truth for pc in pair}


def _no_failure_report(program, run, truth, engine):
    report = candidate_report(
        run.meta.get("program", getattr(program, "name", "?")),
        failed=False, failure_description="", truth=truth,
        candidates=[], engine=engine)
    report.notes.append("failure run did not fail; nothing to diagnose")
    return report


class AvisoEngine(Predictor):
    """Failure-avoidance constraints as a root-cause ranking."""

    capabilities = EngineCapabilities(
        name="aviso",
        description="Aviso-style event-pair constraints from failure runs",
        trains_offline=True, needs_failure_runs=10,
        multithreaded_only=True, adapts_online=False, warmable=True)

    def __init__(self, config=None, window=12, good_rank=10,
                 min_failure_support=2, max_failures=10):
        super().__init__(config)
        self.window = window
        self.good_rank = good_rank
        self.min_failure_support = min_failure_support
        self.max_failures = max_failures
        self._counts = None        # (pc, pc) -> correct-run occurrences
        self._multithreaded = None

    @property
    def trained(self):
        return self._counts is not None

    def train(self, program, n_runs=10, seed0=0, quarantine=None,
              **params):
        runs = collect_runs_for_seeds(
            program, range(seed0, seed0 + n_runs), quarantine=quarantine,
            **params)
        counts = defaultdict(int)
        multithreaded = False
        for run in runs:
            multithreaded = multithreaded or run.n_threads > 1
            for pair in _sampled_pairs(run, self.window):
                counts[pair] += 1
        self._counts = dict(counts)
        self._multithreaded = multithreaded

    def predict_batch(self, seqs):
        # Background rarity of the final dependence's pc pair: a pair
        # never seen in correct windows is maximally suspicious.
        return np.array([
            1.0 / (1.0 + self._counts.get(
                (seq[-1].store_pc, seq[-1].load_pc), 0))
            for seq in seqs], dtype=float)

    def _state_payload(self):
        return {"counts": [[a, b, n] for (a, b), n
                           in sorted(self._counts.items())],
                "multithreaded": self._multithreaded}

    def _load_state_payload(self, state):
        self._counts = {(a, b): n for a, b, n in state["counts"]}
        self._multithreaded = bool(state["multithreaded"])

    def report_trained(self, program, failure_seed=12345,
                       n_pruning_runs=20, pruning_seed0=100,
                       failure_params=None, correct_params=None,
                       pruning_params=None, root_cause=None, quarantine=None):
        first = _failure_run(program, failure_seed, failure_params)
        truth = _truth(first, root_cause)
        if not self._multithreaded:
            report = candidate_report(
                first.meta.get("program", getattr(program, "name", "?")),
                failed=first.failed,
                failure_description=(str(first.failure)
                                     if first.failure else ""),
                truth=truth, candidates=[], engine=self.name,
                applicable=False)
            report.notes.append(
                "aviso is inapplicable: single-threaded program has no "
                "inter-thread event pairs")
            return report
        root_pcs = _root_pcs(truth)
        fail_counts = defaultdict(int)
        failed = False
        used = 0
        ranking = []
        for k in range(1, self.max_failures + 1):
            run = (first if k == 1
                   else _failure_run(program, failure_seed + k - 1,
                                     failure_params))
            used = k
            if not run.failed:
                continue
            failed = True
            for pair in _window_pairs(run, self.window):
                fail_counts[pair] += 1
            ranking = AvisoDiagnoser._rank(fail_counts, self._counts, k,
                                           self.min_failure_support)
            rank = AvisoDiagnoser._root_rank(ranking, truth)
            if rank is not None and rank <= self.good_rank:
                break
        if not failed:
            return _no_failure_report(program, first, truth, self.name)
        candidates = [
            candidate(f"{a:#x}->{b:#x}", score,
                      a in root_pcs and b in root_pcs)
            for (a, b), score in ranking]
        report = candidate_report(
            first.meta.get("program", getattr(program, "name", "?")),
            failed=True,
            failure_description=(str(first.failure)
                                 if first.failure else ""),
            truth=truth, candidates=candidates, engine=self.name)
        report.notes.append(f"aviso: accumulated {used} failure runs")
        return report


class PBIEngine(Predictor):
    """Sampled-predicate Increase scoring (CBI/PBI statistics)."""

    capabilities = EngineCapabilities(
        name="pbi",
        description="PBI-style predicate Increase scoring (MESI states "
                    "and branches)",
        trains_offline=True, needs_failure_runs=1,
        multithreaded_only=False, adapts_online=False, warmable=True)

    def __init__(self, config=None, params=None):
        super().__init__(config)
        self.params = params or MachineParams()
        self._succ_true = None  # Predicate -> #correct runs true
        self._succ_obs = None   # pc -> #correct runs observed
        self._n_correct = 0

    @property
    def trained(self):
        return self._succ_true is not None

    def train(self, program, n_runs=10, seed0=0, quarantine=None,
              **params):
        runs = collect_runs_for_seeds(
            program, range(seed0, seed0 + n_runs), quarantine=quarantine,
            **params)
        succ_true = defaultdict(int)
        succ_obs = defaultdict(int)
        for run in runs:
            true_preds, obs_pcs = _observe(run, self.params)
            for pred in true_preds:
                succ_true[pred] += 1
            for pc in obs_pcs:
                succ_obs[pc] += 1
        self._succ_true = dict(succ_true)
        self._succ_obs = dict(succ_obs)
        self._n_correct = len(runs)

    def predict_batch(self, seqs):
        # Rarity of the final load pc across correct runs: loads the
        # correct executions never exercise score highest.
        n = max(1, self._n_correct)
        return np.array([
            1.0 - self._succ_obs.get(seq[-1].load_pc, 0) / n
            for seq in seqs], dtype=float)

    def _state_payload(self):
        return {
            "succ_true": [[p.pc, p.event, n] for p, n
                          in sorted(self._succ_true.items(),
                                    key=lambda t: (t[0].pc, t[0].event))],
            "succ_obs": [[pc, n] for pc, n
                         in sorted(self._succ_obs.items())],
            "n_correct": self._n_correct,
        }

    def _load_state_payload(self, state):
        self._succ_true = {Predicate(pc, event): n
                           for pc, event, n in state["succ_true"]}
        self._succ_obs = {pc: n for pc, n in state["succ_obs"]}
        self._n_correct = int(state["n_correct"])

    def report_trained(self, program, failure_seed=12345,
                       n_pruning_runs=20, pruning_seed0=100,
                       failure_params=None, correct_params=None,
                       pruning_params=None, root_cause=None, quarantine=None):
        run = _failure_run(program, failure_seed, failure_params)
        truth = _truth(run, root_cause)
        if not run.failed:
            return _no_failure_report(program, run, truth, self.name)
        root_pcs = _root_pcs(truth)
        fail_true, fail_obs = _observe(run, self.params)
        all_preds = set(fail_true) | set(self._succ_true)
        ranking = []
        for pred in all_preds:
            f_true = 1 if pred in fail_true else 0
            s_true = self._succ_true.get(pred, 0)
            f_obs = 1 if pred.pc in fail_obs else 0
            s_obs = self._succ_obs.get(pred.pc, 0)
            if f_true + s_true == 0 or f_obs + s_obs == 0:
                continue
            increase = (f_true / (f_true + s_true)
                        - f_obs / (f_obs + s_obs))
            ranking.append((pred, increase, f_true))
        ranking.sort(key=lambda t: (-t[1], -t[2], t[0].pc))
        candidates = [
            candidate(str(pred), score, pred.pc in root_pcs)
            for pred, score, _f in ranking if score > 0]
        return candidate_report(
            run.meta.get("program", getattr(program, "name", "?")),
            failed=True,
            failure_description=str(run.failure) if run.failure else "",
            truth=truth, candidates=candidates, engine=self.name)


class PSetEngine(Predictor):
    """Exact per-load valid-writer invariants; violations are the report."""

    capabilities = EngineCapabilities(
        name="pset",
        description="PSet-style per-load valid-writer invariant sets",
        trains_offline=True, needs_failure_runs=1,
        multithreaded_only=False, adapts_online=False, warmable=True)

    def __init__(self, config=None):
        super().__init__(config)
        self._invariants = None

    @property
    def trained(self):
        return self._invariants is not None

    def train(self, program, n_runs=10, seed0=0, quarantine=None,
              **params):
        runs = collect_runs_for_seeds(
            program, range(seed0, seed0 + n_runs), quarantine=quarantine,
            **params)
        self._invariants = PSetInvariants.train(
            runs, filter_stack=self.config.filter_stack_loads)

    def predict_batch(self, seqs):
        return np.array([
            0.0 if self._invariants.is_valid(seq[-1]) else 1.0
            for seq in seqs], dtype=float)

    def _state_payload(self):
        return {"psets": [
            [load_pc, sorted([s, int(inter)] for s, inter in writers)]
            for load_pc, writers in sorted(self._invariants.psets.items())]}

    def _load_state_payload(self, state):
        inv = PSetInvariants()
        for load_pc, writers in state["psets"]:
            inv.psets[load_pc] = {(s, bool(inter)) for s, inter in writers}
        self._invariants = inv

    def report_trained(self, program, failure_seed=12345,
                       n_pruning_runs=20, pruning_seed0=100,
                       failure_params=None, correct_params=None,
                       pruning_params=None, root_cause=None, quarantine=None):
        run = _failure_run(program, failure_seed, failure_params)
        truth = _truth(run, root_cause)
        if not run.failed:
            return _no_failure_report(program, run, truth, self.name)
        violations = self._invariants.violations(
            run, filter_stack=self.config.filter_stack_loads)
        # Rank violating dependences by dynamic recurrence, ties broken
        # by first occurrence in the global event order.
        stats = {}
        for rec in sorted(violations, key=lambda r: r.index):
            dep = RawDep(rec.dep.store_pc, rec.dep.load_pc,
                         rec.dep.inter_thread)
            key = (dep.store_pc, dep.load_pc)
            if key not in stats:
                stats[key] = [0, rec.index]
            stats[key][0] += 1
        ordered = sorted(stats.items(),
                         key=lambda t: (-t[1][0], t[1][1], t[0]))
        total = sum(count for count, _first in stats.values()) or 1
        candidates = [
            candidate(f"{store:#x}->{load:#x}", count / total,
                      (store, load) in truth)
            for (store, load), (count, _first) in ordered]
        report = candidate_report(
            run.meta.get("program", getattr(program, "name", "?")),
            failed=True,
            failure_description=str(run.failure) if run.failure else "",
            truth=truth, candidates=candidates, engine=self.name)
        report.notes.append(
            f"pset: {len(violations)} violating dependences over "
            f"{self._invariants.n_invariants()} invariants")
        return report
