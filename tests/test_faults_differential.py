"""Differential regression suite for the fault subsystem.

Pins the two contracts the resilience machinery must keep:

1. **Zero-fault identity** -- for every bug workload, diagnosing under
   an explicit zero :class:`FaultPlan` (with a live quarantine attached)
   is indistinguishable from the plain path: identical report, identical
   telemetry counters/histograms/gauges and span tree, empty quarantine.
2. **Quarantine-subset equivalence** -- quarantining ``k`` runs that
   could not be collected produces exactly the result of running on the
   clean subset.

Plus Hypothesis-generated random fault plans asserting that no injected
fault ever escapes the quarantine boundary.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.common.errors import ReproError
from repro.analysis.accuracy import CorpusSpec, run_corpus
from repro.core.diagnosis import DiagnosisReport, diagnose_failure
from repro.core.offline import OfflineTrainer, collect_runs_for_seeds
from repro.faults import ZERO_PLAN, FaultPlan, Quarantine, use_plan
from repro.trace.trace_io import read_trace, write_trace
from repro.workloads.bugs.gzip_bug import GzipBug
from repro.workloads.framework import run_program
from repro.workloads.registry import all_bug_names, get_bug

_RUNS = dict(n_train_runs=3, n_pruning_runs=4)
_CORPUS = CorpusSpec(seed=3, size=4, n_train_runs=4, n_pruning_runs=6)


class _GzipFailingOn(GzipBug):
    """gzip whose runs with one of ``seeds`` raise as they start: correct
    runs that cannot be collected."""

    def __init__(self, *seeds):
        self.seeds = frozenset(seeds)

    def params_for_seed(self, seed):
        if seed in self.seeds:
            raise ReproError(f"gzip run with seed {seed} could not start")
        return super().params_for_seed(seed)


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
        quarantine = Quarantine()
        faulted = collect_runs_for_seeds(_GzipFailingOn(2), [0, 1, 2, 3],
                                         quarantine=quarantine, buggy=False)
        clean = collect_runs_for_seeds(get_bug("gzip"), [0, 1, 3],
                                       buggy=False)
        assert quarantine.keys() == [2]
        kept = [r for r in faulted if r is not None]
        assert [r.seed for r in kept] == [r.seed for r in clean]
        for a, b in zip(kept, clean):
            assert a.events == b.events

    def test_training_on_quarantined_set_equals_clean_subset(self):
        import numpy as np

        trainer = OfflineTrainer()
        quarantine = Quarantine()
        faulted = trainer.train(_GzipFailingOn(1), n_runs=4, seed0=0,
                                quarantine=quarantine, buggy=False)
        clean_runs = collect_runs_for_seeds(get_bug("gzip"), [0, 2, 3],
                                            buggy=False)
        clean = trainer.train(runs=clean_runs)
        assert quarantine.keys() == [1]
        assert set(faulted.weights) == set(clean.weights)
        for tid in clean.weights:
            assert np.array_equal(faulted.weights[tid], clean.weights[tid])
        assert np.array_equal(faulted.default_weights,
                              clean.default_weights)

    def test_diagnosis_with_k_quarantined_equals_clean_subset(self):
        # Lose the last pruning seed (100 + 3): the surviving work is
        # exactly a 3-pruning-run diagnosis.
        quarantine = Quarantine()
        faulted = diagnose_failure(_GzipFailingOn(103), n_train_runs=3,
                                   n_pruning_runs=4, quarantine=quarantine)
        clean = diagnose_failure(get_bug("gzip"), n_train_runs=3,
                                 n_pruning_runs=3)
        assert quarantine.keys() == [103]
        assert faulted.quarantine == quarantine.report_dict()
        faulted.quarantine = None
        assert faulted == clean

    def test_all_training_runs_quarantined_aborts_with_report(self):
        quarantine = Quarantine()
        report = diagnose_failure(
            _GzipFailingOn(0, 1), n_train_runs=2, n_pruning_runs=2,
            quarantine=quarantine)
        assert isinstance(report, DiagnosisReport)
        assert not report.found
        assert any("aborted" in note for note in report.notes)
        assert report.quarantine is not None
        assert report.quarantine["n_quarantined"] == 2


class TestLostRunSpanStitching:
    """A run lost mid-diagnosis still yields one coherent trace."""

    def _span_index(self, spans):
        index = {}
        stack = list(spans)
        while stack:
            span = stack.pop()
            index[span["id"]] = span
            stack.extend(span.get("children", []))
        return index

    def test_diagnosis_tree_flags_the_lost_run(self):
        # Pruning seed 102 cannot be collected; quarantine absorbs it.
        quarantine = Quarantine()
        reg = telemetry.Registry(clock=telemetry.TickClock())
        with telemetry.use_registry(reg):
            report = diagnose_failure(_GzipFailingOn(102),
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


_RUN_CACHE = {}


def _correct_run():
    """One cached correct gzip run for the trace round-trip property."""
    if "run" not in _RUN_CACHE:
        _RUN_CACHE["run"] = run_program(get_bug("gzip"), seed=1, buggy=False)
    return _RUN_CACHE["run"]


_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2 ** 16),
    weight_flip=st.floats(0.0, 1.0),
    fifo_overflow=st.floats(0.0, 0.05),
    trace_drop=st.floats(0.0, 0.9),
    trace_reorder=st.floats(0.0, 0.3),
)

_trace_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2 ** 16),
    trace_drop=st.floats(0.0, 0.5),
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
        # A damaged run is recorded with its damage and reads back whole.
        with use_plan(plan):
            run = run_program(get_bug("gzip"), seed=1, buggy=False)
        assert len(run.events) <= len(_correct_run().events)
        path = tmp_path / f"t{plan.seed}.jsonl"
        write_trace(run, path)
        back = read_trace(path)
        assert back.events == run.events
        assert back.seed == run.seed
