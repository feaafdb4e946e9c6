"""End-to-end diagnosis tests."""

from dataclasses import replace

import pytest

from repro.core import diagnosis
from repro.core.config import ACTConfig
from repro.core.diagnosis import (
    _report_to_payload,
    diagnose_failure,
    diagnose_with_buffer_escalation,
)
from repro.core.offline import TrainedACT
from repro.faults import FaultPlan, Quarantine
from repro.workloads.generator import MOTIFS, GeneratedProgram, ProgramSpec
from repro.workloads.registry import get_bug


class TestTinyBugDiagnosis:
    def test_root_cause_found_rank_one(self, tinybug, fast_config):
        report = diagnose_failure(tinybug, config=fast_config,
                                  n_train_runs=4, n_pruning_runs=6)
        assert report.failed
        assert report.found
        assert report.rank == 1
        assert report.debug_buffer_position == 1

    def test_reuses_pretrained_model(self, tinybug, trained_tinybug):
        report = diagnose_failure(tinybug, trained=trained_tinybug,
                                  config=trained_tinybug.config,
                                  n_pruning_runs=6)
        assert report.found

    def test_non_failing_run_reports_nothing(self, tinybug, fast_config):
        report = diagnose_failure(tinybug, config=fast_config,
                                  n_train_runs=3, n_pruning_runs=3,
                                  failure_params={"buggy": False})
        assert not report.failed
        assert not report.found
        assert report.notes

    def test_findings_carry_outputs(self, tinybug, trained_tinybug):
        report = diagnose_failure(tinybug, trained=trained_tinybug,
                                  config=trained_tinybug.config,
                                  n_pruning_runs=6)
        for f in report.findings:
            assert 0.0 <= f.output < 0.5


class TestRealBugDiagnosis:
    """Representative Table V bugs end-to-end (one per category)."""

    @pytest.mark.parametrize("bug", ["mysql2", "gzip", "aget"])
    def test_bug_diagnosed(self, bug):
        report = diagnose_failure(get_bug(bug), config=ACTConfig(),
                                  n_train_runs=8, n_pruning_runs=10)
        assert report.failed
        assert report.found, report.notes
        assert report.rank <= 5

    def test_mysql1_overflows_default_buffer(self):
        report = diagnose_failure(get_bug("mysql1"), config=ACTConfig(),
                                  n_train_runs=8, n_pruning_runs=10)
        assert report.debug_overflowed
        assert not report.found

    def test_mysql1_found_with_escalated_buffer(self):
        report, size = diagnose_with_buffer_escalation(
            get_bug("mysql1"), config=ACTConfig(),
            n_train_runs=8, n_pruning_runs=10)
        assert size > 60
        assert report.found
        assert report.rank <= 5


def _report_key(report):
    """A report as a user reads it: rank and every ranked finding."""
    return {
        "program": report.program, "failed": report.failed,
        "found": report.found, "rank": report.rank,
        "findings": [
            [[[d.store_pc, d.load_pc, int(d.inter_thread)] for d in f.seq],
             f.matched, float(f.output), f.tid, f.index]
            for f in report.findings],
    }


def _same_report(a, b):
    assert _report_key(a) == _report_key(b)
    assert _report_to_payload(a) == _report_to_payload(b)
    assert a.quarantine == b.quarantine


class TestCorrectSetReuse:
    """A warm diagnosis reuses the Correct Set kept in its TrainedACT."""

    @pytest.fixture
    def collected(self, monkeypatch):
        """The seed lists of the pruning-run collections a diagnosis makes."""
        calls = []
        real = diagnosis.collect_runs_for_seeds

        def counting(program, seeds, **kwargs):
            calls.append(list(seeds))
            return real(program, seeds, **kwargs)

        monkeypatch.setattr(diagnosis, "collect_runs_for_seeds", counting)
        return calls

    @pytest.fixture
    def fresh(self, trained_tinybug):
        """The shared trained state with an empty Correct Set memo."""
        return replace(trained_tinybug)

    def _diagnose(self, program, trained, **kwargs):
        kwargs.setdefault("config", trained.config)
        kwargs.setdefault("n_pruning_runs", 4)
        return diagnose_failure(program, trained=trained, **kwargs)

    def test_tinybug_warm_report_equals_cold(self, tinybug, fresh,
                                             collected):
        cold = self._diagnose(tinybug, fresh)
        warm = self._diagnose(tinybug, fresh)
        assert len(collected) == 1
        assert cold.found
        _same_report(cold, warm)
        _same_report(cold, self._diagnose(tinybug, replace(fresh)))

    def test_generated_warm_reports_equal_cold(self, collected):
        config = ACTConfig(seq_len=3)
        runs = {"n_train_runs": 6, "n_pruning_runs": 8}
        for archetype in ("order", "use_after_reset"):
            for motif in MOTIFS:
                program = GeneratedProgram(ProgramSpec.from_seed(
                    7, archetype=archetype, motif=motif))
                sink = []
                cold = diagnose_failure(program, config=config,
                                        trained_sink=sink.append, **runs)
                n = len(collected)
                warm = diagnose_failure(program, config=config,
                                        trained=sink[0], **runs)
                assert len(collected) == n
                _same_report(cold, warm)
        assert len(collected) == 8

    @pytest.mark.parametrize("change", [
        {"pruning_seed0": 101},
        {"n_pruning_runs": 5},
        {"pruning_params": {"buggy": False, "n": 9}},
        {"config": "seq_len"},
        {"config": "filter_stack_loads"},
    ], ids=["pruning_seed0", "n_pruning_runs", "pruning_param", "seq_len",
            "filter_stack_loads"])
    def test_changed_key_misses(self, tinybug, fresh, collected, change):
        self._diagnose(tinybug, fresh)
        self._diagnose(tinybug, fresh)
        assert len(collected) == 1
        change = dict(change)
        if change.get("config") == "seq_len":
            change["config"] = fresh.config.with_(seq_len=2)
        elif change.get("config") == "filter_stack_loads":
            change["config"] = fresh.config.with_(filter_stack_loads=False)
        self._diagnose(tinybug, fresh, **change)
        assert len(collected) == 2
        # The changed build is kept beside the first, not over it.
        self._diagnose(tinybug, fresh, **change)
        self._diagnose(tinybug, fresh)
        assert len(collected) == 2

    def test_same_name_other_program_misses(self, tinybug, fresh,
                                            collected):
        self._diagnose(tinybug, fresh)
        twin = type(tinybug)()
        assert twin.name == tinybug.name
        self._diagnose(twin, fresh)
        assert len(collected) == 2

    @pytest.mark.parametrize("plan, n_records", [
        (FaultPlan(seed=0, corrupt_run_seeds=(101,)), 1),
        # Enabled, but nothing it names ever runs: the build is clean.
        (FaultPlan(seed=0, kill_tasks=((999, 0),)), 0),
    ], ids=["corrupt-run", "clean-build"])
    def test_enabled_fault_plan_bypasses_the_memo(self, tinybug, fresh,
                                                  collected, plan,
                                                  n_records):
        cold_q, warm_q = Quarantine(), Quarantine()
        cold = self._diagnose(tinybug, fresh, faults=plan,
                              quarantine=cold_q)
        warm = self._diagnose(tinybug, fresh, faults=plan,
                              quarantine=warm_q)
        assert len(collected) == 2
        assert len(cold_q) == n_records
        assert cold_q.report_dict() == warm_q.report_dict()
        _same_report(cold, warm)
        assert fresh._correct_sets == {}

    def test_checkpoint_bypasses_the_memo(self, tinybug, fresh, collected,
                                          tmp_path):
        first = self._diagnose(tinybug, fresh,
                               checkpoint=tmp_path / "a.json")
        second = self._diagnose(tinybug, fresh,
                                checkpoint=tmp_path / "b.json")
        # Serial checkpointed pruning collects one seed at a time.
        assert collected == [[100], [101], [102], [103]] * 2
        assert fresh._correct_sets == {}
        _same_report(first, second)
        _same_report(first, self._diagnose(tinybug, fresh))

    def test_quarantined_build_is_not_kept(self, tinybug, fresh,
                                           collected):
        # Failing "correct" runs are quarantined, not kept.
        failing = {"pruning_params": {"buggy": True}}
        cold_q, warm_q = Quarantine(), Quarantine()
        cold = self._diagnose(tinybug, fresh, quarantine=cold_q, **failing)
        warm = self._diagnose(tinybug, fresh, quarantine=warm_q, **failing)
        assert len(collected) == 2
        assert len(cold_q) == 4
        assert cold_q.report_dict() == warm_q.report_dict()
        _same_report(cold, warm)
        assert fresh._correct_sets == {}

    def test_memo_is_not_carried(self, tinybug, fresh):
        blank = replace(fresh)
        self._diagnose(tinybug, fresh)
        assert len(fresh._correct_sets) == 1
        assert blank._correct_sets == {}
        assert fresh == blank
        assert fresh.to_payload() == blank.to_payload()
        assert "correct_sets" not in repr(fresh)
        restored = TrainedACT.from_payload(fresh.to_payload(), fresh.config)
        assert restored._correct_sets == {}
