"""Deployment replay through the per-dependence ACT step.

Every replay feeds one dependence at a time through
:meth:`ACTModule.process_dep`. The NN engine scores whole batches of the
same windows row by row with :meth:`OneHiddenLayerNet.output`; the two
must agree bit for bit on real failure runs, and the step's telemetry
must count exactly what the modules' own statistics count.
"""

import functools

import numpy as np
import pytest

from repro import telemetry
from repro.core.config import ACTConfig
from repro.core.deploy import DeploymentResult, deploy_on_run
from repro.core.offline import OfflineTrainer
from repro.trace.raw import RawDepExtractor
from repro.workloads.framework import run_program
from repro.workloads.registry import all_bug_names, get_bug, get_kernel

_CONFIG = ACTConfig()


@functools.lru_cache(maxsize=None)
def _trained_bug(name):
    return OfflineTrainer(config=_CONFIG).train(
        get_bug(name), n_runs=4, seed0=0, buggy=False)


def _thread_streams(trained, run):
    extractor = RawDepExtractor(
        filter_stack=trained.config.filter_stack_loads)
    streams = {}
    for index, event in enumerate(run.events):
        rec = extractor.feed(event, index=index)
        if rec is not None:
            streams.setdefault(rec.tid, []).append(rec.dep)
    return streams


@pytest.mark.parametrize("name", all_bug_names())
def test_scalar_step_matches_batch_scoring(name):
    trained = _trained_bug(name)
    run = run_program(get_bug(name), seed=12345, buggy=True)
    seq_len = trained.config.seq_len
    n_checked = 0
    for tid, deps in sorted(_thread_streams(trained, run).items()):
        module = trained.make_module(tid)
        xs = module.encoder.encode_many(
            [tuple(deps[r:r + seq_len])
             for r in range(len(deps) - seq_len + 1)], seq_len)
        net = trained.make_network(tid)
        scores = [net.output(x) for x in xs]
        for i, dep in enumerate(deps):
            output = module.process_dep(dep)
            if i < seq_len - 1:
                assert output is None  # warm-up: no window yet
                continue
            assert (module.input_buffer.sequence(seq_len)
                    == tuple(deps[i - seq_len + 1:i + 1]))
            assert output == scores[i - (seq_len - 1)], (tid, i)
            n_checked += 1
            if module.stats.online_trained:
                break  # the weights moved; the scores no longer apply
    assert n_checked > 0


def _replay(trained, run):
    """Drive one fresh AM per thread through its dependence stream;
    returns the deployment and, thread by thread, each step's output
    with the mode and online-update count it left."""
    modules, steps = {}, []
    for tid, deps in sorted(_thread_streams(trained, run).items()):
        module = modules[tid] = trained.make_module(tid)
        steps.extend((module.process_dep(dep), module.mode,
                      module.stats.online_trained) for dep in deps)
    return DeploymentResult(modules=modules, n_deps=len(steps)), steps


def test_training_stretches_replay_deterministically():
    """Replaying a foreign program drives the AMs through TESTING <->
    TRAINING; two replays give the same output at every dependence and
    leave identical state, the state deploy_on_run leaves."""
    churn_cfg = ACTConfig(check_window=10)
    trained = OfflineTrainer(config=churn_cfg).train(
        get_kernel("lu"), n_runs=4, seed0=0)
    run = run_program(get_kernel("fft"), seed=3)
    a, a_steps = _replay(trained, run)
    b, b_steps = _replay(trained, run)
    deployed = deploy_on_run(trained, run)
    assert a.n_mode_switches > 0
    assert a_steps == b_steps
    assert sum(out is not None for out, _, _ in a_steps) == a.n_predictions
    assert a.debug_entries() == b.debug_entries() == deployed.debug_entries()
    for tid, module in a.modules.items():
        for other in (b, deployed):
            assert module.stats == other.modules[tid].stats
            assert np.array_equal(module.save_weights(),
                                  other.modules[tid].save_weights())


def test_act_counters_match_module_stats():
    trained = _trained_bug("gzip")
    run = run_program(get_bug("gzip"), seed=12345, buggy=True)
    with telemetry.use_registry(telemetry.Registry()) as reg:
        result = deploy_on_run(trained, run)
    counters = reg.snapshot()["counters"]
    stats = [m.stats for m in result.modules.values()]
    assert counters["deploy.runs"] == 1
    assert counters["deploy.deps"] == result.n_deps
    assert counters["act.deps_processed"] == result.n_deps
    assert counters["act.predictions"] == result.n_predictions > 0
    assert counters.get("act.invalid_predictions", 0) == result.n_invalid
    assert (counters.get("act.windows_checked", 0)
            == sum(s.windows_checked for s in stats))
    assert counters.get("act.mode_switches", 0) == result.n_mode_switches
    assert (counters.get("debug_buffer.logged", 0)
            == sum(m.debug_buffer.total_logged
                   for m in result.modules.values()))
