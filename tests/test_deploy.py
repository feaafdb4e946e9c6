"""Tests for production-run deployment (trace replay through AMs)."""

from repro.core.deploy import deploy_on_run
from repro.workloads.framework import run_program


class TestDeploy:
    def test_module_per_thread(self, trained_tinybug, tinybug):
        run = run_program(tinybug, seed=9, buggy=False)
        result = deploy_on_run(trained_tinybug, run)
        assert set(result.modules) == {0}

    def test_dep_count_positive(self, trained_tinybug, tinybug):
        run = run_program(tinybug, seed=9, buggy=False)
        result = deploy_on_run(trained_tinybug, run)
        assert result.n_deps > 0
        assert result.n_predictions <= result.n_deps

    def test_debug_entries_merged_in_order(self, trained_tinybug, tinybug):
        run = run_program(tinybug, seed=9, buggy=True)
        result = deploy_on_run(trained_tinybug, run)
        entries = result.debug_entries()
        indices = [e.index for e in entries]
        assert indices == sorted(indices)

    def test_buggy_run_flags_root_dependence(self, trained_tinybug, tinybug):
        run = run_program(tinybug, seed=9, buggy=True)
        truth = run.meta["root_cause"]
        result = deploy_on_run(trained_tinybug, run)
        hits = [e for e in result.debug_entries()
                if any((d.store_pc, d.load_pc) in truth for d in e.seq)]
        assert hits

    def test_clean_run_mostly_silent(self, trained_tinybug, tinybug):
        run = run_program(tinybug, seed=9, buggy=False)
        result = deploy_on_run(trained_tinybug, run)
        assert result.n_invalid <= result.n_predictions * 0.2
