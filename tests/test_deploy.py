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


@pytest.fixture(scope="module")
def runs():
    lu = get_kernel("lu")
    return [run_program(lu, seed=seed) for seed in (9, 10)]


class TestSharedWindowOutputs:
    """AMs that start from the same trained weights share one window ->
    output dict, across a replay's threads and across replays."""

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


class TestSharedNetwork:
    """AMs that start from the same trained weights share the network
    built from them until they write it."""

    _trained = staticmethod(TestSharedWindowOutputs._trained)

    @staticmethod
    def _state(t):
        return (t.default_weights.tobytes(),
                {tid: w.tobytes() for tid, w in t.weights.items()})

    def test_modules_share_one_network(self, runs):
        t = self._trained(runs)
        net = t.make_module(0).net
        assert t.make_module(1).net is net
        assert t._scores[None][2] is net
        assert net.read_weights().tobytes() == t.default_weights.tobytes()

    def test_online_training_writes_a_private_copy(self, runs):
        t = self._trained(runs)
        before = self._state(t)
        bystander = t.make_module(0)
        net, shared = bystander.net, bystander._outputs
        version, weights = net.version, net.read_weights()
        result = deploy_on_run(t, runs[0])
        assert all(m.stats.online_trained for m in result.modules.values())
        for module in result.modules.values():
            assert module.net is not net
            assert module._outputs is not shared
        assert bystander.net is net and bystander._outputs is shared
        assert net.version == version
        assert np.array_equal(net.read_weights(), weights)
        assert self._state(t) == before
        assert t._scores[None][1] is shared and t._scores[None][2] is net
        reference = self._trained(runs)
        for seq, output in shared.items():
            assert output == reference.make_network().output(
                t.encoder.encode_seq(seq))

    def test_restore_weights_writes_a_private_copy(self, runs):
        t = self._trained(runs)
        before = self._state(t)
        module = t.make_module(0)
        net, weights = module.net, module.net.read_weights()
        zeros = np.zeros(net.n_weight_registers)
        module.restore_weights(zeros)
        assert module.net is not net
        assert np.array_equal(module.save_weights(), zeros)
        assert np.array_equal(net.read_weights(), weights)
        assert self._state(t) == before
        assert t.make_module(1).net is net

    def test_heal_writes_a_private_copy(self, runs):
        from repro.core.deploy import _heal_module

        t = self._trained(runs)
        damaged = t.default_weights.copy()
        damaged[0] = np.nan
        t.record_thread_weights(2, damaged)
        before = self._state(t)
        module = t.make_module(2)
        net = module.net
        assert t._scores[2][2] is net
        assert _heal_module(module, t, 2, None) is module
        assert module.net is not net
        assert np.array_equal(module.save_weights(), t.default_weights)
        assert np.isnan(net.read_weights()[0])
        assert self._state(t) == before
        assert t.make_module(2).net is net

    def test_weight_flip_builds_its_own_network(self, runs):
        t = self._trained(runs)
        net = t.make_module(0).net
        with use_plan(FaultPlan(seed=9, weight_flip=1.0)):
            flipped = t.make_module(0)
        assert flipped.net is not net
        assert not np.isfinite(flipped.save_weights()).all()
        assert np.isfinite(net.read_weights()).all()

    # The two writers of the stored weights: each must leave the next
    # module scoring the new weights with a new network and a new dict.

    def _rescored(self, runs, t, tid, write):
        deploy_on_run(t, runs[0])
        old = t.make_module(tid)
        write(t)
        new = t.make_module(tid)
        assert new.net is not old.net
        assert new._outputs is not old._outputs and not new._outputs
        assert np.array_equal(new.save_weights(), t.weights_for(tid))
        assert not np.array_equal(new.save_weights(), old.save_weights())
        deploy_on_run(t, runs[1])
        reference = t.make_network(tid)
        assert new._outputs
        for seq, output in new._outputs.items():
            assert output == reference.output(t.encoder.encode_seq(seq))

    def test_negative_feedback_rescores(self, runs):
        t = self._trained(runs, seed=1)

        def feedback(t):
            # Windows the network now calls valid, taught as invalid.
            valid = [seq for seq, output in t._scores[None][1].items()
                     if output >= 0.5]
            assert valid
            assert t.train_negative_feedback(valid[:4], epochs=50) == 1
        self._rescored(runs, t, 0, feedback)

    def test_recorded_thread_weights_rescore(self, runs):
        t = self._trained(runs, seed=1)
        t.record_thread_weights(0, t.default_weights)
        self._rescored(
            runs, t, 0,
            lambda t: t.record_thread_weights(0, t.default_weights * 0.5))
