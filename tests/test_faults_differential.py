"""Differential regression suite for the fault subsystem.

Pins the three contracts the resilience machinery must keep:

1. **Zero-fault identity** -- for every bug workload, diagnosing under
   an explicit zero :class:`FaultPlan` (with a live quarantine attached)
   is indistinguishable from the plain path: identical report, identical
   telemetry counters/histograms/gauges and span tree, empty quarantine.
2. **Quarantine-subset equivalence** -- quarantining ``k`` corrupt runs
   produces exactly the result of running on the clean subset.
3. **Crash/resume equivalence** -- a diagnosis killed mid-flight and
   resumed from its checkpoint yields the same report as an
   uninterrupted run; likewise for the topology search.

Plus Hypothesis-generated random fault plans asserting that no injected
fault ever escapes the quarantine boundary.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.analysis.accuracy import CorpusSpec, run_corpus
from repro.common.errors import WorkerKilled
from repro.core.diagnosis import DiagnosisReport, diagnose_failure
from repro.core.offline import OfflineTrainer, collect_runs_for_seeds
from repro.faults import ZERO_PLAN, Checkpoint, FaultPlan, Quarantine, use_plan
from repro.trace.trace_io import read_trace, write_trace
from repro.workloads.framework import run_program
from repro.workloads.registry import all_bug_names, get_bug

_RUNS = dict(n_train_runs=3, n_pruning_runs=4)
_CORPUS = CorpusSpec(seed=3, size=4, n_train_runs=4, n_pruning_runs=6)


def _strip_spans(spans):
    """Span tree shapes (names, attrs, nesting) without wall-clock times."""
    return [{"name": s["name"], "attrs": s.get("attrs", {}),
             "children": _strip_spans(s.get("children", []))}
            for s in spans]


def _normalized(snapshot):
    """A snapshot with its only wall-clock-dependent pieces removed:
    span durations and the events/sec throughput gauge."""
    gauges = {k: v for k, v in snapshot["gauges"].items()
              if k != "sched.events_per_sec"}
    return {"counters": snapshot["counters"],
            "histograms": snapshot["histograms"],
            "gauges": gauges,
            "spans": _strip_spans(snapshot["spans"])}


@pytest.mark.slow
class TestZeroFaultIdentity:
    @pytest.mark.parametrize("bug", all_bug_names())
    def test_report_and_telemetry_identical(self, bug):
        program = get_bug(bug)
        with telemetry.use_registry(telemetry.Registry()) as plain_reg:
            plain = diagnose_failure(program, **_RUNS)
        quarantine = Quarantine()
        with telemetry.use_registry(telemetry.Registry()) as faulted_reg:
            faulted = diagnose_failure(program, faults=ZERO_PLAN,
                                       quarantine=quarantine, **_RUNS)
        assert plain == faulted
        assert faulted.quarantine is None
        assert len(quarantine) == 0
        assert (_normalized(plain_reg.snapshot())
                == _normalized(faulted_reg.snapshot()))

    def test_zero_plan_forces_no_behaviour_change_with_jobs(self):
        # The plan travels to the pool workers of a pooled corpus.
        plain = run_corpus(_CORPUS, jobs=2)
        faulted = run_corpus(_CORPUS, jobs=2, faults=ZERO_PLAN,
                             quarantine=Quarantine())
        assert faulted.metrics == plain.metrics
        assert faulted.quarantine is None


class TestQuarantineSubsetEquivalence:
    def test_collection_skips_exactly_the_corrupt_runs(self):
        program = get_bug("gzip")
        plan = FaultPlan(seed=0, corrupt_run_seeds=(2,))
        quarantine = Quarantine()
        with use_plan(plan):
            faulted = collect_runs_for_seeds(program, [0, 1, 2, 3],
                                             quarantine=quarantine,
                                             buggy=False)
        clean = collect_runs_for_seeds(program, [0, 1, 3], buggy=False)
        assert quarantine.keys() == [2]
        kept = [r for r in faulted if r is not None]
        assert [r.seed for r in kept] == [r.seed for r in clean]
        for a, b in zip(kept, clean):
            assert a.events == b.events

    def test_training_on_quarantined_set_equals_clean_subset(self):
        import numpy as np

        program = get_bug("gzip")
        trainer = OfflineTrainer()
        quarantine = Quarantine()
        with use_plan(FaultPlan(seed=0, corrupt_run_seeds=(1,))):
            faulted = trainer.train(program, n_runs=4, seed0=0,
                                    quarantine=quarantine, buggy=False)
        clean_runs = collect_runs_for_seeds(program, [0, 2, 3], buggy=False)
        clean = trainer.train(runs=clean_runs)
        assert quarantine.keys() == [1]
        assert set(faulted.weights) == set(clean.weights)
        for tid in clean.weights:
            assert np.array_equal(faulted.weights[tid], clean.weights[tid])
        assert np.array_equal(faulted.default_weights,
                              clean.default_weights)

    def test_diagnosis_with_k_quarantined_equals_clean_subset(self):
        program = get_bug("gzip")
        # Corrupt the last pruning seed (100 + 3): the surviving work is
        # exactly a 3-pruning-run diagnosis.
        quarantine = Quarantine()
        faulted = diagnose_failure(program, n_train_runs=3, n_pruning_runs=4,
                                   faults=FaultPlan(seed=0,
                                                    corrupt_run_seeds=(103,)),
                                   quarantine=quarantine)
        clean = diagnose_failure(program, n_train_runs=3, n_pruning_runs=3)
        assert quarantine.keys() == [103]
        assert faulted.quarantine == quarantine.report_dict()
        faulted.quarantine = None
        assert faulted == clean

    def test_checkpointed_diagnosis_with_k_quarantined_equals_clean_subset(
            self, tmp_path):
        # The checkpointed pruning path collects one seed at a time; a
        # quarantined seed leaves nothing to snapshot and is skipped.
        program = get_bug("gzip")
        quarantine = Quarantine()
        faulted = diagnose_failure(program, n_train_runs=3, n_pruning_runs=4,
                                   faults=FaultPlan(seed=0,
                                                    corrupt_run_seeds=(103,)),
                                   quarantine=quarantine,
                                   checkpoint=str(tmp_path / "ck.json"))
        clean = diagnose_failure(program, n_train_runs=3, n_pruning_runs=3)
        assert quarantine.keys() == [103]
        faulted.quarantine = None
        assert faulted == clean

    def test_all_training_runs_quarantined_aborts_with_report(self):
        program = get_bug("gzip")
        quarantine = Quarantine()
        report = diagnose_failure(
            program, n_train_runs=2, n_pruning_runs=2,
            faults=FaultPlan(seed=0, corrupt_run_seeds=(0, 1)),
            quarantine=quarantine)
        assert isinstance(report, DiagnosisReport)
        assert not report.found
        assert any("aborted" in note for note in report.notes)
        assert report.quarantine is not None
        assert report.quarantine["n_quarantined"] == 2


class TestKilledWorkerSpanStitching:
    """A worker killed mid-diagnosis still yields one coherent trace."""

    def _span_index(self, spans):
        index = {}
        stack = list(spans)
        while stack:
            span = stack.pop()
            index[span["id"]] = span
            stack.extend(span.get("children", []))
        return index

    def test_diagnosis_tree_flags_the_lost_run(self):
        program = get_bug("gzip")
        # Kill pruning seed 102 on every attempt; quarantine absorbs it.
        plan = FaultPlan(seed=0, kill_tasks=((102, 0), (102, 1), (102, 2)),
                         max_retries=2)
        quarantine = Quarantine()
        reg = telemetry.Registry(clock=telemetry.TickClock())
        with telemetry.use_registry(reg):
            report = diagnose_failure(program, faults=plan,
                                      quarantine=quarantine, **_RUNS)
        assert isinstance(report, DiagnosisReport)
        assert quarantine.keys() == [102]
        snap = reg.snapshot()
        index = self._span_index(snap["spans"])
        orphans = [s for s in index.values()
                   if s.get("status") == "orphaned"]
        assert len(orphans) == 1
        assert orphans[0]["name"] == "parallel.task"
        assert orphans[0]["attrs"]["key"] == 102
        # No dangling parents: every non-root span's parent exists.
        for span in index.values():
            parent = span.get("parent")
            assert parent is None or parent in index
        # The orphan sits under the pruning-runs dispatch chain.
        chain = []
        node = index[orphans[0]["parent"]]
        while node is not None:
            chain.append(node["name"])
            node = index.get(node.get("parent"))
        assert "diagnose.pruning_runs" in chain


class TestCrashResume:
    KWARGS = dict(n_train_runs=3, n_pruning_runs=4)

    def test_killed_diagnosis_resumes_to_identical_report(self, tmp_path):
        program = get_bug("gzip")
        uninterrupted = diagnose_failure(program, **self.KWARGS)
        path = str(tmp_path / "ck.json")
        # Kill pruning seed 102 on every attempt; with no quarantine the
        # retries exhaust and the diagnosis crashes mid-pruning.
        plan = FaultPlan(seed=0, kill_tasks=((102, 0), (102, 1), (102, 2)),
                         max_retries=2)
        with pytest.raises(WorkerKilled):
            diagnose_failure(program, faults=plan, checkpoint=path,
                             **self.KWARGS)
        saved = Checkpoint.load(path)
        assert "trained" in saved
        assert "pruning:100" in saved and "pruning:101" in saved
        assert "report" not in saved
        resumed = diagnose_failure(program, checkpoint=path, **self.KWARGS)
        assert resumed == uninterrupted
        # The whole report is now cached: a second resume replays it.
        again = diagnose_failure(program, checkpoint=path, **self.KWARGS)
        assert again == uninterrupted

    def test_resume_refuses_different_parameters(self, tmp_path):
        from repro.common.errors import CheckpointError

        program = get_bug("gzip")
        path = str(tmp_path / "ck.json")
        diagnose_failure(program, checkpoint=path, **self.KWARGS)
        with pytest.raises(CheckpointError):
            diagnose_failure(program, checkpoint=path, n_train_runs=3,
                             n_pruning_runs=9)

    def test_topology_search_resumes_to_identical_winner(self, tmp_path):
        import numpy as np

        program = get_bug("gzip")
        path = str(tmp_path / "search.json")
        trainer = OfflineTrainer()
        kwargs = dict(seq_lens=(2, 3), hidden_widths=(2, 3),
                      n_train_runs=3, n_test_runs=3, buggy=False)
        best0, choices0, _ = trainer.search(program, checkpoint=path,
                                            **kwargs)
        # Simulate a crash that lost one grid point: drop its snapshot
        # and resume -- only that point re-trains.
        saved = Checkpoint.load(path)
        assert saved.phases.pop("point:2-3") is not None
        saved.save()
        best1, choices1, _ = trainer.search(program, checkpoint=path,
                                            **kwargs)
        assert (best0.seq_len, best0.n_hidden) == (best1.seq_len,
                                                   best1.n_hidden)
        for a, b in zip(choices0, choices1):
            assert (a.seq_len, a.n_hidden, a.mispred_rate) == (
                b.seq_len, b.n_hidden, b.mispred_rate)
            assert np.array_equal(a.result.net.read_weights(),
                                  b.result.net.read_weights())


_RUN_CACHE = {}


def _correct_run():
    """One cached correct gzip run for the trace round-trip property."""
    if "run" not in _RUN_CACHE:
        _RUN_CACHE["run"] = run_program(get_bug("gzip"), seed=1, buggy=False)
    return _RUN_CACHE["run"]


_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2 ** 16),
    run_corrupt=st.floats(0.0, 0.5),
    worker_kill=st.floats(0.0, 0.3),
    weight_flip=st.floats(0.0, 1.0),
    fifo_overflow=st.floats(0.0, 0.05),
    max_retries=st.integers(0, 2),
)

_trace_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2 ** 16),
    trace_drop=st.floats(0.0, 0.5),
    trace_corrupt=st.floats(0.0, 0.5),
    trace_reorder=st.floats(0.0, 0.5),
)


@pytest.mark.slow
class TestNoFaultEscapesQuarantine:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plan=_plans)
    def test_diagnosis_always_completes(self, plan):
        program = get_bug("gzip")
        quarantine = Quarantine()
        report = diagnose_failure(program, n_train_runs=3, n_pruning_runs=3,
                                  faults=plan, quarantine=quarantine)
        assert isinstance(report, DiagnosisReport)
        if len(quarantine):
            assert report.quarantine == quarantine.report_dict()

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(plan=_trace_plans)
    def test_trace_round_trip_always_recovers(self, plan, tmp_path):
        run = _correct_run()
        path = tmp_path / f"t{plan.seed}.jsonl"
        write_trace(run, path, faults=plan)
        quarantine = Quarantine()
        back = read_trace(path, quarantine=quarantine)
        assert len(back.events) <= len(run.events)
        assert back.seed == run.seed
