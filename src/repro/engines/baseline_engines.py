"""Aviso-, PBI- and PSet-style baselines behind the Predictor protocol.

These classes are each baseline's one diagnosis flow: Table V, the
shootout, the corpus and ``--engine`` all run them. The scoring math
lives in the ``repro.baselines`` modules; each engine splits the
protocol into ``train`` (correct-run state over a seed range,
cacheable) and ``report_trained`` (the failure side), so ``diagnose
--cache-dir`` can reuse their trained state and the shootout can run
them on the exact corpus the NN engine sees.

Candidate keys are ``store->load`` pc pairs for Aviso/PSet and
``pc=<pc>:<event>`` predicates for PBI; a candidate's ``hit`` flag is
pair membership in the ground truth for PSet and root-pc membership
for Aviso/PBI.
"""

from collections import defaultdict

import numpy as np

from repro.baselines.aviso import (
    GOOD_RANK,
    _rank,
    _root_rank,
    _sampled_pairs,
    _window_pairs,
)
from repro.baselines.pbi import Predicate, _increase_ranking, _observe
from repro.baselines.pset import PSetInvariants
from repro.core.offline import collect_runs_for_seeds
from repro.engines.base import (
    EngineCapabilities,
    Predictor,
    candidate,
    candidate_report,
)
from repro.workloads.framework import run_program


def _failure_run(program, seed, failure_params):
    return run_program(program, seed=seed, **dict(failure_params
                                                  or {"buggy": True}))


def _truth(run, root_cause):
    return root_cause or run.meta.get("root_cause") or set()


def _root_pcs(truth):
    return {pc for pair in truth for pc in pair}


def _report(program, run, truth, engine, candidates=(), failed=None,
            applicable=True):
    """A report naming ``run``'s program and failure (``failed``
    defaults to whether ``run`` failed)."""
    return candidate_report(
        run.meta.get("program", getattr(program, "name", "?")),
        failed=run.failed if failed is None else failed,
        failure_description=str(run.failure) if run.failure else "",
        truth=truth, candidates=candidates, engine=engine,
        applicable=applicable)


def _no_failure_report(program, run, truth, engine):
    report = _report(program, run, truth, engine)
    report.notes.append("failure run did not fail; nothing to diagnose")
    return report


class AvisoEngine(Predictor):
    """Failure-avoidance constraints as a root-cause ranking."""

    capabilities = EngineCapabilities(
        name="aviso",
        description="Aviso-style event-pair constraints from failure runs",
        trains_offline=True, needs_failure_runs=10,
        multithreaded_only=True, adapts_online=False, warmable=True)

    def __init__(self, config=None, max_failures=10):
        super().__init__(config)
        # Failure runs (seeds failure_seed, failure_seed + 1, ...) fed
        # before giving up; the paper feeds up to 10.
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
            for pair in _sampled_pairs(run):
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
            report = _report(program, first, truth, self.name,
                             applicable=False)
            report.notes.append(
                "aviso is inapplicable: single-threaded program has no "
                "inter-thread event pairs")
            return report
        fail_counts = defaultdict(int)
        ranking = None  # stays None until a run fails
        used = 0
        for used in range(1, self.max_failures + 1):
            run = (first if used == 1
                   else _failure_run(program, failure_seed + used - 1,
                                     failure_params))
            if not run.failed:
                continue
            for pair in _window_pairs(run):
                fail_counts[pair] += 1
            ranking = _rank(fail_counts, self._counts, used)
            rank = _root_rank(ranking, truth)
            if rank is not None and rank <= GOOD_RANK:
                break
        if ranking is None:
            report = _no_failure_report(program, first, truth, self.name)
            report.n_failure_runs = used
            return report
        root_pcs = _root_pcs(truth)
        report = _report(
            program, first, truth, self.name, failed=True,
            candidates=[candidate(f"{a:#x}->{b:#x}", score,
                                  a in root_pcs and b in root_pcs)
                        for (a, b), score in ranking])
        report.n_failure_runs = used
        report.notes.append(
            f"aviso: accumulated {report.n_failure_runs} failure runs")
        return report


class PBIEngine(Predictor):
    """Sampled-predicate Increase scoring (CBI/PBI statistics)."""

    capabilities = EngineCapabilities(
        name="pbi",
        description="PBI-style predicate Increase scoring (MESI states "
                    "and branches)",
        trains_offline=True, needs_failure_runs=1,
        multithreaded_only=False, adapts_online=False, warmable=True)

    def __init__(self, config=None):
        super().__init__(config)
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
            true_preds, obs_pcs = _observe(run)
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
        fail_true, fail_obs = _observe(run)
        return _report(program, run, truth, self.name, candidates=[
            candidate(str(pred), score, pred.pc in root_pcs)
            for pred, score in _increase_ranking(
                fail_true, fail_obs, self._succ_true, self._succ_obs)])


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
            key = (rec.dep.store_pc, rec.dep.load_pc)
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
        report = _report(program, run, truth, self.name, candidates)
        report.notes.append(
            f"pset: {len(violations)} violating dependences over "
            f"{self._invariants.n_invariants()} invariants")
        return report
