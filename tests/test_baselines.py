"""Tests for the Aviso / PBI / PSet baselines.

Aviso and PBI run through their engines on Table V's seeds.
"""

import pytest

from repro.analysis.table5 import (
    AVISO_CORRECT_SEED0,
    AVISO_FAILURE_SEED,
    PBI_CORRECT_SEED0,
    PBI_FAILURE_SEED,
)
from repro.baselines import aviso
from repro.baselines.pbi import Predicate
from repro.baselines.pset import PSetInvariants
from repro.core.offline import collect_correct_runs
from repro.engines.baseline_engines import AvisoEngine, PBIEngine
from repro.trace.events import EventKind, TraceEvent, TraceRun
from repro.trace.raw import RawDep
from repro.workloads.framework import run_program
from repro.workloads.registry import get_bug, get_kernel


class TestPSet:
    def test_trained_invariants_accept_training_deps(self, tinybug):
        runs = collect_correct_runs(tinybug, 3, buggy=False)
        inv = PSetInvariants.train(runs)
        for run in runs:
            assert inv.violations(run) == []

    def test_flags_buggy_dependence(self, tinybug):
        runs = collect_correct_runs(tinybug, 3, buggy=False)
        inv = PSetInvariants.train(runs)
        buggy = run_program(tinybug, seed=9, buggy=True)
        viols = inv.violations(buggy)
        truth = buggy.meta["root_cause"]
        assert any((v.dep.store_pc, v.dep.load_pc) in truth for v in viols)

    def test_violation_rate_bounds(self, tinybug):
        runs = collect_correct_runs(tinybug, 2, buggy=False)
        inv = PSetInvariants.train(runs)
        buggy = run_program(tinybug, seed=9, buggy=True)
        rate = inv.violation_rate(buggy)
        assert 0.0 < rate <= 1.0

    def test_label_is_part_of_invariant(self):
        inv = PSetInvariants()
        inv.psets[0x20].add((0x10, False))
        assert inv.is_valid(RawDep(0x10, 0x20, inter_thread=False))
        assert not inv.is_valid(RawDep(0x10, 0x20, inter_thread=True))

    def test_n_invariants(self, tinybug):
        runs = collect_correct_runs(tinybug, 2, buggy=False)
        inv = PSetInvariants.train(runs)
        assert inv.n_invariants() > 0

    def test_new_code_always_violates(self, tinybug):
        """The rigidity ACT's adaptivity argument targets."""
        inv = PSetInvariants()  # trained on nothing
        run = run_program(tinybug, seed=0, buggy=False)
        assert inv.violation_rate(run) == 1.0


def _pbi(bug, n_correct):
    return PBIEngine().diagnose_report(
        get_bug(bug), n_train_runs=n_correct, train_seed0=PBI_CORRECT_SEED0,
        failure_seed=PBI_FAILURE_SEED)


def _aviso(bug, n_correct, max_failures):
    return AvisoEngine(max_failures=max_failures).diagnose_report(
        get_bug(bug), n_train_runs=n_correct,
        train_seed0=AVISO_CORRECT_SEED0, failure_seed=AVISO_FAILURE_SEED)


class TestPBI:
    def test_finds_concurrency_bug(self):
        report = _pbi("mysql2", n_correct=8)
        assert report.found
        assert report.rank <= len(report.candidates)

    def test_ranking_scores_descending(self):
        report = _pbi("apache", n_correct=8)
        scores = [c["score"] for c in report.candidates]
        assert scores == sorted(scores, reverse=True)

    def test_misses_branch_invariant_sequential_bug(self):
        """seq's branch outcomes and cache states barely change between
        correct and failing runs -- the class of bug PBI misses."""
        report = _pbi("seq", n_correct=8)
        assert report.rank is None or report.rank > 1

    def test_predicates_have_valid_events(self):
        report = _pbi("memcached", n_correct=6)
        for c in report.candidates:
            assert c["key"].rsplit(":", 1)[1] in ("M", "E", "S", "I", "T", "N")

    def test_predicate_str(self):
        assert "0x10" in str(Predicate(0x10, "M"))


class TestAviso:
    def test_inapplicable_to_sequential_bugs(self):
        report = _aviso("gzip", n_correct=4, max_failures=2)
        assert not report.applicable
        assert report.rank is None

    def test_needs_multiple_failures(self):
        report = _aviso("pbzip2", n_correct=6, max_failures=6)
        assert report.applicable
        if report.found:
            assert report.n_failure_runs >= 2

    def test_finds_order_violation_eventually(self):
        report = _aviso("pbzip2", n_correct=8, max_failures=10)
        assert report.found
        assert report.rank is not None

    def test_ranking_pairs_are_inter_thread_pcs(self):
        # Thread 0 runs pcs 0x10, 0x14 and thread 1 pcs 0x20, 0x24,
        # interleaved; each thread's own pair must not be a candidate.
        load, store = EventKind.LOAD, EventKind.STORE
        run = TraceRun(events=[
            TraceEvent(0, 0x10, load, addr=0x100),
            TraceEvent(1, 0x20, store, addr=0x100),
            TraceEvent(0, 0x14, store, addr=0x104),
            TraceEvent(1, 0x24, load, addr=0x104),
        ], n_threads=2)
        cross = {(0x10, 0x20), (0x10, 0x24), (0x20, 0x14), (0x14, 0x24)}
        assert aviso._window_pairs(run) == cross
        assert aviso._sampled_pairs(run) == cross
