"""Serial vs --jobs determinism (repro.parallel).

Parallel orchestration must be invisible in the results: identical
corpus records, identical topology-search winners, identical telemetry
counter and histogram totals, identical exceptions.
"""

import os
import pickle

import numpy as np
import pytest

from repro import telemetry
from repro.common.errors import ReproError, SimulatedFailure, WorkerKilled
from repro.analysis.accuracy import CorpusSpec, run_corpus
from repro.core.config import ACTConfig
from repro.core.offline import OfflineTrainer, collect_correct_runs
from repro.faults import FaultPlan, Quarantine, use_plan
from repro.parallel import (
    PoolHandle,
    get_pool,
    jobs_from_env,
    resolve_jobs,
    run_tasks,
)
from repro.workloads.registry import get_bug

_CONFIG = ACTConfig()
_CORPUS = CorpusSpec(seed=3, size=4, n_train_runs=4, n_pruning_runs=6)


def _double(x):  # module-level: must be picklable for the pool
    return 2 * x


def _crash_once_then_double(payload):
    """Genuinely kill the worker process on the first-ever execution.

    The flag file is the cross-process memory: whichever worker runs
    first creates it and dies via ``os._exit`` (no exception, no pickle
    -- the pool just breaks, as a real OOM kill would); every later
    execution finds the flag and computes normally.
    """
    flag, x = payload
    if not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(1)
    return 2 * x


def _always_crash(_x):
    """Kill the worker process every time, as a task that OOMs would."""
    os._exit(1)


class TestResolveJobs:
    def test_defaults_to_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_explicit_count(self):
        assert resolve_jobs(3) == 3

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1


class TestRunTasks:
    def test_serial_and_parallel_agree(self):
        items = list(range(7))
        assert (run_tasks(_double, items)
                == run_tasks(_double, items, jobs=2)
                == [2 * i for i in items])

    def test_empty_items(self):
        assert run_tasks(_double, [], jobs=4) == []

    def test_records_pool_telemetry(self):
        with telemetry.use_registry(telemetry.Registry()) as reg:
            run_tasks(_double, [1, 2, 3], jobs=2)
        counters = reg.snapshot()["counters"]
        assert counters["parallel.batches"] == 1
        assert counters["parallel.tasks"] == 3


class TestWorkerDeathRecovery:
    """Injected worker kills: bounded retry, quarantine, determinism."""

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_killed_task_is_retried_transparently(self, jobs):
        plan = FaultPlan(seed=0, kill_tasks=((1, 0),))
        with use_plan(plan):
            with telemetry.use_registry(telemetry.Registry()) as reg:
                results = run_tasks(_double, [0, 1, 2], jobs=jobs)
        assert results == [0, 2, 4]
        counters = reg.snapshot()["counters"]
        assert counters["faults.worker_kills"] == 1
        assert counters["parallel.retries"] == 1

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_exhausted_retries_raise_worker_killed(self, jobs):
        plan = FaultPlan(seed=0, kill_tasks=((1, 0), (1, 1), (1, 2)),
                         max_retries=2)
        with use_plan(plan):
            with pytest.raises(WorkerKilled) as err:
                run_tasks(_double, [0, 1, 2], jobs=jobs)
        assert err.value.task_index == 1
        assert err.value.attempt == 2

    def test_serial_and_parallel_raise_identically(self):
        plan = FaultPlan(seed=0, kill_tasks=((1, 0), (1, 1), (1, 2)),
                         max_retries=2)
        errors = []
        for jobs in (None, 2):
            with use_plan(plan):
                with pytest.raises(WorkerKilled) as err:
                    run_tasks(_double, [0, 1, 2], jobs=jobs)
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_quarantine_absorbs_exhausted_kills(self, jobs):
        plan = FaultPlan(seed=0, kill_tasks=((1, 0), (1, 1), (1, 2)),
                         max_retries=2)
        quarantine = Quarantine()
        with use_plan(plan):
            results = run_tasks(_double, [0, 1, 2], jobs=jobs,
                                quarantine=quarantine, phase="test")
        assert results == [0, None, 4]
        assert len(quarantine) == 1
        record = quarantine.records[0]
        assert record.phase == "test"
        assert record.key == 1
        assert record.error_type == "WorkerKilled"
        assert record.attempts == 3

    def test_kill_keyed_by_quarantine_key_not_position(self):
        # keys name the units (e.g. run seeds); the kill follows the
        # key, so splitting a batch differently kills the same unit.
        plan = FaultPlan(seed=0, kill_tasks=((104, 0),), max_retries=0)
        quarantine = Quarantine()
        with use_plan(plan):
            whole = run_tasks(_double, [3, 4, 5], quarantine=quarantine,
                              keys=[103, 104, 105], phase="test")
            split = [run_tasks(_double, [x], quarantine=quarantine,
                               keys=[k], phase="test")[0]
                     for k, x in [(103, 3), (104, 4), (105, 5)]]
        assert whole == split == [6, None, 10]
        assert quarantine.keys() == [104, 104]

    def test_real_worker_crash_restarts_pool(self, tmp_path):
        flag = str(tmp_path / "crashed")
        payloads = [(flag, x) for x in range(3)]
        with telemetry.use_registry(telemetry.Registry()) as reg:
            results = run_tasks(_crash_once_then_double, payloads, jobs=2)
        assert results == [0, 2, 4]
        counters = reg.snapshot()["counters"]
        assert counters["parallel.pool_restarts"] >= 1
        assert counters["faults.worker_kills"] >= 1

    def test_real_crash_names_the_task_key(self):
        # A genuine crash reports the task key, as the serial and
        # injected-kill paths do -- not the item's position in the batch.
        plan = FaultPlan(seed=0, max_retries=0)
        with use_plan(plan):
            with pytest.raises(WorkerKilled) as err:
                run_tasks(_always_crash, [0, 1], jobs=2, keys=[100, 101])
        assert err.value.task_index == 100
        assert "task 100," in str(err.value)

    def test_keys_must_match_items(self):
        with pytest.raises(ReproError):
            run_tasks(_double, [1, 2], keys=[1])

    def test_backoff_sleeps_are_bounded(self):
        import time

        plan = FaultPlan(seed=0, kill_tasks=((0, 0),), max_retries=1,
                         retry_backoff=0.01)
        t0 = time.time()
        with use_plan(plan):
            assert run_tasks(_double, [5]) == [10]
        assert 0.01 <= time.time() - t0 < 1.0


def _tree_is_coherent(span, parent_id=None):
    """Every span's parent pointer matches its position in the tree."""
    if parent_id is not None and span.get("parent") != parent_id:
        return False
    return all(_tree_is_coherent(c, span["id"])
               for c in span.get("children", []))


class TestSpanStitching:
    """Tracing v2: worker spans land under the coordinator's span."""

    def _dispatch(self, jobs, plan=None, quarantine=None):
        reg = telemetry.Registry(clock=telemetry.TickClock())
        with use_plan(plan or FaultPlan()):
            with telemetry.use_registry(reg):
                with reg.span("dispatch"):
                    results = run_tasks(_double, [0, 1, 2], jobs=jobs,
                                        quarantine=quarantine, phase="test")
        return reg, results

    def test_worker_spans_parent_under_dispatch(self):
        reg, results = self._dispatch(jobs=2)
        assert results == [0, 2, 4]
        (root,) = reg.snapshot()["spans"]
        tasks = [c for c in root["children"]
                 if c["name"] == "parallel.task"]
        assert sorted(t["id"] for t in tasks) == [
            "b1.w0.s1", "b1.w1.s1", "b1.w2.s1"]
        assert all(t["parent"] == root["id"] for t in tasks)
        assert _tree_is_coherent(root)

    def test_trace_tree_identical_across_reruns(self):
        first, _ = self._dispatch(jobs=2)
        second, _ = self._dispatch(jobs=2)
        assert first.snapshot()["spans"] == second.snapshot()["spans"]

    def test_serial_records_the_same_task_spans(self):
        reg, _ = self._dispatch(jobs=None)
        (root,) = reg.snapshot()["spans"]
        names = [c["name"] for c in root["children"]]
        assert names == ["parallel.task"] * 3

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_killed_worker_leaves_orphaned_span(self, jobs):
        # Task key 1 dies on every attempt; the tree must still be
        # coherent, with the lost task flagged at its dispatch site.
        plan = FaultPlan(seed=0, kill_tasks=((1, 0), (1, 1), (1, 2)),
                         max_retries=2)
        quarantine = Quarantine()
        reg, results = self._dispatch(jobs=jobs, plan=plan,
                                      quarantine=quarantine)
        assert results == [0, None, 4]
        (root,) = reg.snapshot()["spans"]
        assert _tree_is_coherent(root)
        tasks = [c for c in root["children"]
                 if c["name"] == "parallel.task"]
        orphans = [t for t in tasks if t.get("status") == "orphaned"]
        assert len(orphans) == 1
        assert orphans[0]["attrs"]["key"] == 1
        assert orphans[0]["duration_s"] == 0.0
        survivors = [t for t in tasks if t.get("status") != "orphaned"]
        assert len(survivors) == 2

    def test_batches_get_distinct_scopes(self):
        reg = telemetry.Registry(clock=telemetry.TickClock())
        with telemetry.use_registry(reg):
            with reg.span("dispatch"):
                run_tasks(_double, [0, 1], jobs=2)
                run_tasks(_double, [0, 1], jobs=2)
        (root,) = reg.snapshot()["spans"]
        ids = sorted(c["id"] for c in root["children"]
                     if c["name"] == "parallel.task")
        assert ids == ["b1.w0.s1", "b1.w1.s1", "b2.w0.s1", "b2.w1.s1"]


class TestSimulatedFailurePickle:
    def test_roundtrip_keeps_context(self):
        err = SimulatedFailure("boom", tid=3, pc=0x40)
        back = pickle.loads(pickle.dumps(err))
        assert back.description == "boom"
        assert back.tid == 3
        assert back.pc == 0x40


class TestCorpusFanOut:
    def test_telemetry_totals_match(self):
        # Worker registries ship exact histogram partials, so the merged
        # sums equal the serial running sums bit for bit.
        snaps = []
        for jobs in (None, 2):
            with telemetry.use_registry(telemetry.Registry()) as reg:
                run_corpus(_CORPUS, jobs=jobs)
            snaps.append(reg.snapshot())
        ser, par = snaps
        for key, value in ser["counters"].items():
            if key.startswith("parallel."):
                continue
            assert par["counters"][key] == value, key
        assert par["histograms"]["nn.epoch_error"]["count"] > 0
        for key, value in ser["histograms"].items():
            assert par["histograms"][key] == value, key


class TestTrainingAndDiagnosis:
    def test_topology_search_identical(self):
        program = get_bug("gzip")
        runs = collect_correct_runs(program, 5, seed0=0, buggy=False)
        trainer = OfflineTrainer(config=_CONFIG)
        best_s, choices_s, _ = trainer.search(
            train_runs=runs[:3], test_runs=runs[3:],
            seq_lens=(2, 3), hidden_widths=(2, 4))
        best_p, choices_p, _ = trainer.search(
            train_runs=runs[:3], test_runs=runs[3:],
            seq_lens=(2, 3), hidden_widths=(2, 4), jobs=2)
        assert (best_s.seq_len, best_s.n_hidden) == (best_p.seq_len,
                                                     best_p.n_hidden)
        assert len(choices_s) == len(choices_p)
        for a, b in zip(choices_s, choices_p):
            assert (a.seq_len, a.n_hidden, a.mispred_rate) == (
                b.seq_len, b.n_hidden, b.mispred_rate)
            assert np.array_equal(a.result.net.read_weights(),
                                  b.result.net.read_weights())


class TestWarmPool:
    """The process-wide pool is created once and reused across batches."""

    def test_get_pool_is_a_singleton(self):
        assert get_pool() is get_pool()

    def test_executor_reused_across_batches(self):
        pool = get_pool()
        run_tasks(_double, [1, 2, 3], jobs=2)
        first = pool._executor
        run_tasks(_double, [4, 5, 6], jobs=2)
        assert pool._executor is first

    def test_pool_grows_but_never_shrinks(self):
        pool = get_pool()
        pool.shutdown()  # earlier tests may have grown the shared pool
        pool.executor(2)
        grown = pool.executor(3)
        assert pool.max_workers == 3
        assert pool.executor(2) is grown
        assert pool.max_workers == 3

    def test_shutdown_then_reuse_spawns_fresh_pool(self):
        pool = get_pool()
        run_tasks(_double, [1], jobs=2)
        pool.shutdown()
        assert run_tasks(_double, [7, 8], jobs=2) == [14, 16]

    def test_two_consecutive_diagnoses_identical_to_serial(self):
        # Warm-pool reuse determinism: the second --jobs corpus diagnoses
        # its programs on the already-warm pool and must still match
        # serial exactly.
        serial = run_corpus(_CORPUS)
        first = run_corpus(_CORPUS, jobs=2)
        second = run_corpus(_CORPUS, jobs=2)
        assert first.records == serial.records
        assert second.records == serial.records

    def test_pool_survives_a_crash_and_stays_warm(self, tmp_path):
        flag = str(tmp_path / "crashed")
        payloads = [(flag, x) for x in range(3)]
        assert run_tasks(_crash_once_then_double, payloads, jobs=2) \
            == [0, 2, 4]
        pool = get_pool()
        restarted = pool._executor
        assert run_tasks(_double, [9], jobs=2) == [18]
        assert pool._executor is restarted


class TestPoolClose:
    def test_close_is_idempotent_and_rebuildable(self):
        handle = PoolHandle()
        ex = handle.executor(1)
        assert handle.max_workers == 1
        handle.shutdown()
        handle.shutdown()
        assert handle.max_workers == 0
        ex2 = handle.executor(1)  # a closed handle can come back warm
        assert ex2 is not ex
        handle.shutdown()

    def test_shared_pool_survives_close(self):
        get_pool().shutdown()
        assert run_tasks(abs, [-1, -2], jobs=2) == [1, 2]
        get_pool().shutdown()


class TestJobsFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert jobs_from_env() is None
        assert jobs_from_env(default=3) == 3

    def test_zero_means_auto_passthrough(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert jobs_from_env() == 0

    def test_auto_resolves_to_cpu_count(self, monkeypatch):
        from repro.parallel import resolve_jobs

        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3

    def test_resolved_value_recorded_in_telemetry(self):
        from repro import telemetry
        from repro.parallel import resolve_jobs

        with telemetry.use_registry(telemetry.Registry()) as reg:
            resolve_jobs(0)
        snapshot = reg.snapshot()
        assert (snapshot["gauges"]["parallel.jobs_resolved"]
                == (os.cpu_count() or 1))

    def test_preset_from_env_honours_auto(self, monkeypatch):
        from repro.analysis.presets import preset_from_env

        monkeypatch.setenv("REPRO_PRESET", "fast")
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert preset_from_env().jobs == 0
