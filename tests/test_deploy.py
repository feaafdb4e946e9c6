"""Tests for production-run deployment (trace replay through AMs)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import ACTConfig
from repro.core.deploy import deploy_on_run
from repro.core.encoding import DepEncoder
from repro.core.offline import TrainedACT
from repro.faults import FaultPlan, use_plan
from repro.nn.network import OneHiddenLayerNet
from repro.workloads import get_kernel
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


class TestSharedWindowOutputs:
    """AMs that start from the same trained weights share one window ->
    output dict, across a replay's threads and across replays."""

    @pytest.fixture(scope="class")
    def runs(self):
        lu = get_kernel("lu")
        return [run_program(lu, seed=seed) for seed in (9, 10)]

    @staticmethod
    def _trained(runs, seed=0):
        # Untrained weights: the AMs switch to online training on lu.
        cfg = ACTConfig(check_window=10)
        net = OneHiddenLayerNet(cfg.n_inputs, cfg.n_hidden, seed=seed)
        return TrainedACT(config=cfg,
                          encoder=DepEncoder(code_map=runs[0].code_map),
                          weights={}, default_weights=net.read_weights())

    @staticmethod
    def _fresh(trained):
        return TrainedACT.from_payload(trained.to_payload(), trained.config)

    @staticmethod
    def _trained_online(result):
        return sum(m.stats.online_trained for m in result.modules.values())

    def test_modules_share_one_dict(self, runs):
        t = self._trained(runs)
        shared = t.make_module(0)._outputs
        assert t.make_module(1)._outputs is shared
        assert t._scores[None][1] is shared

    def test_replay_after_another_equals_a_fresh_state(self, runs):
        t = self._trained(runs)
        deploy_on_run(t, runs[0])
        assert t._scores[None][1]
        warm = deploy_on_run(t, runs[1])
        cold = deploy_on_run(self._fresh(t), runs[1])
        assert self._trained_online(warm) > 0
        assert warm.debug_entries() == cold.debug_entries()
        assert warm.n_deps == cold.n_deps
        assert set(warm.modules) == set(cold.modules)
        for tid, module in warm.modules.items():
            other = cold.modules[tid]
            assert module.stats == other.stats
            assert module.mode is other.mode
            assert np.array_equal(module.save_weights(), other.save_weights())

    def test_online_training_leaves_shared_outputs_intact(self, runs):
        t = self._trained(runs)
        result = deploy_on_run(t, runs[0])
        assert result.n_mode_switches > 0
        assert self._trained_online(result) > 0
        shared = t._scores[None][1]
        assert shared
        net = self._fresh(t).make_network()
        for seq, output in shared.items():
            assert output == net.output(t.encoder.encode_seq(seq))
        for module in result.modules.values():
            assert (module._outputs is shared) == (
                module.stats.online_trained == 0)

    def test_weight_flip_scores_alone(self, runs):
        t = self._trained(runs, seed=1)
        clean = deploy_on_run(t, runs[0])
        assert self._trained_online(clean) == 0
        shared = t._scores[None][1]
        # A read of the shared dict would surface these outputs.
        for seq in shared:
            shared[seq] = 0.25
        poisoned = dict(shared)
        with use_plan(FaultPlan(seed=9, weight_flip=1.0)):
            assert t.make_module(0)._outputs is not shared
            healed = deploy_on_run(t, runs[0])
        assert shared == poisoned
        assert t.make_module(0)._outputs is shared
        assert healed.debug_entries() == clean.debug_entries()

    def test_recording_weights_drops_their_dict(self, runs):
        t = self._trained(runs)
        shared = t.make_module(0)._outputs
        t.record_thread_weights(3, t.default_weights + 0.125)
        own = t.make_module(3)._outputs
        assert own is not shared and t._scores[3][1] is own
        t.record_thread_weights(3, t.default_weights)
        assert 3 not in t._scores
        assert t.make_module(3)._outputs is not own
        assert set(t._scores) == {None, 3}
        assert t._scores[None][1] is shared

    @pytest.mark.parametrize("change", ["weights", "sigmoid", "encoder"])
    def test_changed_scoring_gets_a_new_dict(self, runs, change):
        t = self._trained(runs)
        shared = t.make_module(0)._outputs
        if change == "weights":
            t.default_weights = t.default_weights * 0.5
        elif change == "sigmoid":
            t.config = replace(t.config, sigmoid_resolution=1024)
        else:
            t.encoder = DepEncoder(pcs=t.encoder.pcs)
        assert t.make_module(0)._outputs is not shared
        assert len(t._scores) == 1

    def test_memo_is_not_carried(self, runs):
        t = self._trained(runs)
        blank = replace(t)
        deploy_on_run(t, runs[0])
        assert t._scores and blank._scores == {}
        assert t == blank
        assert t.to_payload() == blank.to_payload()
        assert "_scores" not in repr(t)
        assert self._fresh(t)._scores == {}
