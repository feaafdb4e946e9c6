"""Tests for offline training: collection, examples, augmentation."""

import numpy as np
import pytest

from repro.common.errors import ReproError
from repro.core.config import ACTConfig
from repro.core.deploy import deploy_on_run
from repro.core.offline import (
    OfflineTrainer,
    TrainedACT,
    augment_negative_sequences,
    collect_correct_runs,
    evaluate_false_positive_rate,
    evaluate_strict_false_negative_rate,
    sequences_from_runs,
    _dedupe,
)
from repro.trace.raw import RawDep
from repro.workloads.framework import run_program


class TestCollectRuns:
    def test_collects_requested_count(self, tinybug):
        runs = collect_correct_runs(tinybug, 3, buggy=False)
        assert len(runs) == 3
        assert {r.seed for r in runs} == {0, 1, 2}

    def test_rejects_failing_runs(self, tinybug):
        with pytest.raises(ReproError, match="failed"):
            collect_correct_runs(tinybug, 2, buggy=True)


class TestSequencesFromRuns:
    def test_pooled_sequences(self, pingpong):
        runs = collect_correct_runs(pingpong, 3)
        pos, neg = sequences_from_runs(runs, 3)
        assert pos
        assert all(len(s) == 3 for s in pos)

    def test_line_granularity_view_differs(self, tinybug):
        runs = collect_correct_runs(tinybug, 2, buggy=False)
        word_pos, _ = sequences_from_runs(runs, 2, granularity=4)
        line_pos, _ = sequences_from_runs(runs, 2, granularity=64)
        assert word_pos and line_pos


class TestAugmentation:
    def _seqs(self):
        return [
            (RawDep(0x10, 0x100), RawDep(0x14, 0x104)),
            (RawDep(0x14, 0x104), RawDep(0x10, 0x100)),
        ]

    def test_never_produces_valid_pairs(self):
        seqs = self._seqs()
        out = augment_negative_sequences(seqs, store_pcs=[0x10, 0x14, 0x18])
        valid = {(0x10, 0x100), (0x14, 0x104)}
        for seq in out:
            assert (seq[-1].store_pc, seq[-1].load_pc) not in valid

    def test_respects_protected_pairs(self):
        seqs = self._seqs()
        out = augment_negative_sequences(
            seqs, store_pcs=[0x10, 0x14, 0x18],
            protected_pairs={(0x18, 0x100), (0x18, 0x104)})
        for seq in out:
            assert seq[-1].store_pc != 0x18

    def test_keeps_thread_label(self):
        seqs = [(RawDep(0x10, 0x100, inter_thread=True),)]
        out = augment_negative_sequences(seqs, store_pcs=[0x10, 0x18])
        assert out
        for seq in out:
            assert seq[-1].inter_thread is True

    def test_preserves_prefix(self):
        seqs = self._seqs()
        out = augment_negative_sequences(seqs, store_pcs=[0x10, 0x14, 0x18])
        prefixes = {s[:-1] for s in seqs}
        for seq in out:
            assert seq[:-1] in prefixes

    def test_deterministic(self):
        seqs = self._seqs()
        a = augment_negative_sequences(seqs, seed=1, store_pcs=[0x10, 0x18])
        b = augment_negative_sequences(seqs, seed=1, store_pcs=[0x10, 0x18])
        assert a == b

    def test_no_candidates_yields_nothing(self):
        seqs = [(RawDep(0x10, 0x100),)]
        out = augment_negative_sequences(seqs, store_pcs=[0x10])
        assert out == []


class TestTrainer:
    def test_training_produces_deployable_model(self, trained_tinybug):
        t = trained_tinybug
        assert t.default_weights is not None
        module = t.make_module(0)
        assert module.net.n_inputs == t.config.n_inputs

    def test_chkwt_semantics(self, trained_tinybug):
        t = TrainedACT.from_payload(trained_tinybug.to_payload(),
                                    trained_tinybug.config)
        assert 5 not in t.weights  # pooled training: no per-thread set
        assert np.array_equal(t.make_module(5).save_weights(),
                              t.default_weights)
        saved = t.default_weights * 0.5
        t.record_thread_weights(5, saved)
        assert np.array_equal(t.make_module(5).save_weights(), saved)
        assert np.array_equal(t.make_module(6).save_weights(),
                              t.default_weights)
        # The patched state round-trips through the cache-dir payload.
        back = TrainedACT.from_payload(t.to_payload(), t.config)
        assert np.array_equal(back.weights_for(5), saved)

    def test_weights_for_falls_back_to_default(self, trained_tinybug):
        t = trained_tinybug
        assert np.allclose(t.weights_for(42), t.default_weights)

    def test_per_thread_training(self, pingpong):
        # Offline training pools both threads into one weight set; each
        # thread's own weights arise online, read out after deployment.
        cfg = ACTConfig(seq_len=2)
        trained = OfflineTrainer(config=cfg).train(pingpong, n_runs=3)
        assert trained.weights == {}
        deployment = deploy_on_run(trained, run_program(pingpong, seed=50))
        for module in deployment.modules.values():
            trained.record_thread_weights(module.tid, module.save_weights())
        assert set(trained.weights) == {0, 1}

    def test_needs_program_or_runs(self):
        with pytest.raises(ReproError):
            OfflineTrainer().train()

    def test_low_false_positive_on_held_out_runs(self, trained_tinybug,
                                                 tinybug):
        test_runs = collect_correct_runs(tinybug, 3, seed0=50, buggy=False)
        rate = evaluate_false_positive_rate(trained_tinybug, test_runs)
        assert rate <= 0.1

    def test_detects_synthesized_negatives(self, trained_tinybug, tinybug):
        test_runs = collect_correct_runs(tinybug, 3, seed0=50, buggy=False)
        rate, n_tested = evaluate_strict_false_negative_rate(
            trained_tinybug, test_runs)
        assert n_tested > 0
        assert rate <= 0.5  # most synthesized invalids are caught

    def test_search_returns_best_choice(self, tinybug):
        cfg = ACTConfig(seq_len=3)
        trainer = OfflineTrainer(config=cfg)
        best, choices, encoder = trainer.search(
            tinybug, seq_lens=(2, 3), hidden_widths=(3,),
            n_train_runs=3, n_test_runs=2, buggy=False)
        assert best in choices
        assert best.mispred_rate == min(c.mispred_rate for c in choices)


class TestDedupe:
    def test_preserves_first_occurrence_order(self):
        seqs = ["b", "a", "b", "c", "a"]
        assert _dedupe(seqs) == ["b", "a", "c"]
