"""Unit tests for the fault-injection subsystem (repro.faults).

Covers the deterministic plan, every injection site, the recovery
machinery around each site, and the checksummed checkpoint format of
the ``--cache-dir`` store. The end-to-end guarantees (zero-fault byte
identity, quarantine-subset equivalence, kill/retry) live in
tests/test_faults_differential.py.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from repro import telemetry
from repro.common.errors import CheckpointError, ConfigError, TraceError
from repro.core.buffers import InputGeneratorBuffer
from repro.core.deploy import deploy_on_run
from repro.faults import (
    ZERO_PLAN,
    Checkpoint,
    FaultPlan,
    Quarantine,
    flip_weights,
    get_plan,
    use_plan,
)
from repro.trace.trace_io import read_trace, write_trace
from repro.workloads.framework import run_program


class TestFaultPlan:
    def test_zero_plan_never_fires(self):
        assert not ZERO_PLAN.enabled
        assert not ZERO_PLAN.fires("trace_drop", 0)
        assert not ZERO_PLAN.fires("worker_kill", 3, 1)

    def test_decisions_are_deterministic(self):
        a = FaultPlan(seed=7, trace_drop=0.3)
        b = FaultPlan(seed=7, trace_drop=0.3)
        for i in range(200):
            assert a.fires("trace_drop", i) == b.fires("trace_drop", i)

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, trace_drop=0.5)
        b = FaultPlan(seed=2, trace_drop=0.5)
        fires_a = [a.fires("trace_drop", i) for i in range(100)]
        fires_b = [b.fires("trace_drop", i) for i in range(100)]
        assert fires_a != fires_b

    def test_rate_controls_frequency(self):
        plan = FaultPlan(seed=11, trace_drop=0.3)
        hits = sum(plan.fires("trace_drop", i) for i in range(10_000))
        assert 0.25 < hits / 10_000 < 0.35

    def test_explicit_corrupt_seeds_always_fire(self):
        plan = FaultPlan(seed=0, corrupt_run_seeds=(104,))
        assert plan.enabled
        assert plan.fires("run_corrupt", 104)
        assert not plan.fires("run_corrupt", 105)

    def test_explicit_kill_tasks_always_fire(self):
        plan = FaultPlan(seed=0, kill_tasks=((2, 0), (2, 1)))
        assert plan.fires("worker_kill", 2, 0)
        assert plan.fires("worker_kill", 2, 1)
        assert not plan.fires("worker_kill", 2, 2)
        assert not plan.fires("worker_kill", 3, 0)

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(trace_drop=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(worker_kill=-0.1)
        with pytest.raises(ConfigError):
            FaultPlan(max_retries=-1)

    def test_spec_round_trip(self):
        plan = FaultPlan(seed=3, worker_kill=0.1, trace_drop=0.05,
                         corrupt_run_seeds=(104, 105),
                         kill_tasks=((2, 0), (2, 1)))
        assert FaultPlan.from_spec(plan.describe()) == plan

    def test_spec_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_spec("frobnicate=1")
        with pytest.raises(ConfigError):
            FaultPlan.from_spec("justakey")

    def test_active_plan_context(self):
        assert get_plan() is ZERO_PLAN
        plan = FaultPlan(seed=1, fifo_overflow=0.5)
        with use_plan(plan):
            assert get_plan() is plan
            with use_plan(ZERO_PLAN):
                assert get_plan() is ZERO_PLAN
            assert get_plan() is plan
        assert get_plan() is ZERO_PLAN

    def test_context_restores_after_error(self):
        with pytest.raises(RuntimeError):
            with use_plan(FaultPlan(seed=1, trace_drop=0.1)):
                raise RuntimeError("boom")
        assert get_plan() is ZERO_PLAN


def _non_utf8_record(run, path):
    """Write ``run`` to ``path``, then make one record line non-UTF-8."""
    write_trace(run, path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = b"[0, \xff\xfe]\n"
    path.write_bytes(b"".join(lines))
    return 1


def _plan_corrupted(run, path):
    """Write ``run`` to ``path`` under a corrupting fault plan."""
    with telemetry.use_registry(telemetry.Registry()) as reg:
        write_trace(run, path, faults=FaultPlan(seed=2, trace_corrupt=0.3))
    return reg.snapshot()["counters"]["faults.trace_corruptions"]


_RECORD_DAMAGE = [pytest.param(_plan_corrupted, id="plan-corrupt"),
                  pytest.param(_non_utf8_record, id="non-utf8-record")]

_HEADER_DAMAGE = [
    pytest.param(b"{not json\n", id="not-json"),
    pytest.param(b"\xff\xfe{}\n[0, 1, \"read\", 8]\n", id="non-utf8"),
    pytest.param(b'{"version": 1, "n_threads": 2, "seed": 0}\n',
                 id="missing-failed"),
    pytest.param(b'{"version": 1, "failed": true, "seed": 0}\n',
                 id="missing-n_threads"),
    pytest.param(b'{"version": 1, "failed": true, "n_threads": 2}\n',
                 id="missing-seed"),
]


class TestTraceFaults:
    """The trace writer's fault sites and the reader's recovery."""

    def _run(self, pingpong):
        return run_program(pingpong, seed=1)

    def test_zero_plan_output_byte_identical(self, pingpong, tmp_path):
        run = self._run(pingpong)
        plain, faulted = tmp_path / "a.trace", tmp_path / "b.trace"
        write_trace(run, plain)
        write_trace(run, faulted, faults=ZERO_PLAN)
        assert plain.read_bytes() == faulted.read_bytes()

    def test_dropped_records_shorten_trace(self, pingpong, tmp_path):
        run = self._run(pingpong)
        path = tmp_path / "t.trace"
        write_trace(run, path, faults=FaultPlan(seed=2, trace_drop=0.3))
        back = read_trace(path)
        assert 0 < len(back.events) < len(run.events)

    @pytest.mark.parametrize("damage", _RECORD_DAMAGE)
    def test_corrupt_records_fail_closed(self, pingpong, tmp_path, damage):
        path = tmp_path / "t.trace"
        damage(self._run(pingpong), path)
        with pytest.raises(TraceError, match=re.escape(str(path))):
            read_trace(path)

    @pytest.mark.parametrize("damage", _RECORD_DAMAGE)
    def test_recovery_skips_and_reports(self, pingpong, tmp_path, damage):
        run = self._run(pingpong)
        path = tmp_path / "t.trace"
        damaged = damage(run, path)
        with telemetry.use_registry(telemetry.Registry()) as reg:
            quarantine = Quarantine()
            back = read_trace(path, quarantine=quarantine)
        skipped = back.meta["skipped_records"]
        assert skipped == damaged > 0
        assert len(back.events) == len(run.events) - skipped
        assert len(quarantine) == 1
        record = quarantine.records[0]
        assert record.phase == "trace.read"
        assert record.key == str(path)
        snap = reg.snapshot()["counters"]
        assert snap["faults.trace_records_skipped"] == skipped
        assert read_trace(path, recover=True).events == back.events

    def test_reorder_swaps_adjacent_records(self, pingpong, tmp_path):
        run = self._run(pingpong)
        path = tmp_path / "t.trace"
        write_trace(run, path, faults=FaultPlan(seed=5, trace_reorder=0.3))
        back = read_trace(path)
        assert len(back.events) == len(run.events)
        assert back.events != run.events
        assert sorted(back.events, key=repr) == sorted(run.events, key=repr)

    def test_same_plan_writes_byte_identical_files(self, pingpong, tmp_path):
        run = self._run(pingpong)
        plan = FaultPlan(seed=13, trace_drop=0.2, trace_corrupt=0.2,
                         trace_reorder=0.2)
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        write_trace(run, a, faults=plan)
        write_trace(run, b, faults=plan)
        assert a.read_bytes() == b.read_bytes()
        plain = tmp_path / "c.trace"
        write_trace(run, plain)
        assert a.read_bytes() != plain.read_bytes()  # the plan did damage

    @pytest.mark.parametrize("data", _HEADER_DAMAGE)
    def test_header_damage_never_recoverable(self, tmp_path, data):
        path = tmp_path / "t.trace"
        path.write_bytes(data)
        with pytest.raises(TraceError, match=re.escape(str(path))):
            read_trace(path, recover=True)
        with pytest.raises(TraceError, match=re.escape(str(path))):
            read_trace(path, quarantine=Quarantine())


class TestFifoOverflow:
    def test_overrun_clears_unconsumed_entries(self):
        buf = InputGeneratorBuffer(capacity=5, tid=0)
        with use_plan(FaultPlan(seed=0, fifo_overflow=1.0)):
            with telemetry.use_registry(telemetry.Registry()) as reg:
                for dep in "abcde":
                    buf.push(dep)
        assert len(buf) == 1  # every push wiped the backlog first
        assert reg.snapshot()["counters"]["faults.fifo_overflows"] == 5

    def test_zero_plan_keeps_fifo_semantics(self):
        buf = InputGeneratorBuffer(capacity=3, tid=0)
        for dep in "abcde":
            buf.push(dep)
        assert buf.sequence(3) == ("c", "d", "e")


class TestWeightFlips:
    def test_flip_is_deterministic_and_nonfinite(self):
        plan = FaultPlan(seed=9, weight_flip=1.0)
        flat = np.zeros(24)
        a = flip_weights(flat, plan, 0)
        b = flip_weights(flat, plan, 0)
        assert np.array_equal(a, b, equal_nan=True)
        assert not np.isfinite(a).all()
        assert np.isfinite(flat).all()  # input untouched

    def test_make_network_hosts_flip_site(self, trained_tinybug):
        with use_plan(FaultPlan(seed=9, weight_flip=1.0)):
            net = trained_tinybug.make_network(0)
        assert not np.isfinite(net.read_weights()).all()

    def test_deploy_heals_flipped_weights(self, trained_tinybug, tinybug):
        failure = run_program(tinybug, seed=12345, buggy=True)
        clean = deploy_on_run(trained_tinybug, failure)
        quarantine = Quarantine()
        with telemetry.use_registry(telemetry.Registry()) as reg:
            with use_plan(FaultPlan(seed=9, weight_flip=1.0)):
                healed = deploy_on_run(trained_tinybug, failure,
                                       quarantine=quarantine)
        counters = reg.snapshot()["counters"]
        assert counters["faults.weight_flips"] >= 1
        assert counters["faults.weights_healed"] >= 1
        assert len(quarantine) >= 1
        assert quarantine.records[0].phase == "deploy.weights"
        # Healing falls back to the pooled default weights: the replay
        # completes and every module ends the run with finite registers.
        assert healed.n_deps == clean.n_deps
        for module in healed.modules.values():
            assert np.isfinite(module.net.read_weights()).all()


class TestCheckpoint:
    FP = {"program": "gzip", "runs": 4}

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "ck.json"
        cp = Checkpoint(str(path), "diagnosis", self.FP)
        cp.put("trained", {"weights": [1.5, 2.5]})
        back = Checkpoint.load(str(path))
        assert back.kind == "diagnosis"
        assert back.get("trained") == {"weights": [1.5, 2.5]}

    def test_open_resumes_matching_checkpoint(self, tmp_path):
        path = tmp_path / "ck.json"
        Checkpoint(str(path), "diagnosis", self.FP).put("p", 1)
        cp = Checkpoint.open(str(path), "diagnosis", self.FP)
        assert cp.resumed
        assert cp.get("p") == 1

    def test_open_fresh_when_missing(self, tmp_path):
        cp = Checkpoint.open(str(tmp_path / "ck.json"), "diagnosis", self.FP)
        assert not cp.resumed
        assert cp.get("p") is None

    def test_kind_mismatch_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        Checkpoint(str(path), "diagnosis", self.FP).save()
        with pytest.raises(CheckpointError):
            Checkpoint.open(str(path), "topology-search", self.FP)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        Checkpoint(str(path), "diagnosis", self.FP).save()
        with pytest.raises(CheckpointError):
            Checkpoint.open(str(path), "diagnosis", {"program": "gzip",
                                                     "runs": 20})

    def test_fingerprint_comparison_is_json_normalised(self, tmp_path):
        path = tmp_path / "ck.json"
        Checkpoint(str(path), "d", {"seeds": (1, 2)}).save()
        # Tuples become lists on disk; reopening with the tuple form
        # must still match.
        assert Checkpoint.open(str(path), "d", {"seeds": [1, 2]}).resumed
        assert Checkpoint.open(str(path), "d", {"seeds": (1, 2)}).resumed

    def test_checksum_detects_tampering(self, tmp_path):
        path = tmp_path / "ck.json"
        Checkpoint(str(path), "diagnosis", self.FP).put("p", [1, 2, 3])
        body = json.loads(path.read_text())
        body["phases"]["p"] = [1, 2, 4]
        path.write_text(json.dumps(body))
        with pytest.raises(CheckpointError, match="checksum"):
            Checkpoint.load(str(path))

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "ck.json"
        Checkpoint(str(path), "diagnosis", self.FP).save()
        path.write_text(path.read_text()[:-20])
        with pytest.raises(CheckpointError):
            Checkpoint.load(str(path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            Checkpoint.load(str(tmp_path / "nope.json"))

    def test_saves_are_atomic(self, tmp_path):
        path = tmp_path / "ck.json"
        cp = Checkpoint(str(path), "diagnosis", self.FP)
        for i in range(5):
            cp.put(f"phase{i}", list(range(i)))
            assert os.listdir(tmp_path) == ["ck.json"]  # no tmp left
            Checkpoint.load(str(path))  # every intermediate file is whole

    def test_concurrent_saves_to_one_path_both_land(self, tmp_path,
                                                    monkeypatch):
        # A second save to the same path runs between the first save's
        # write and its rename -- two processes filling one cache entry.
        # With a shared tmp name the inner save renames the outer's file
        # away and the outer rename fails (or moves a torn file in).
        path = str(tmp_path / "ck.json")
        outer = Checkpoint(path, "d", self.FP, {"p": "outer"})
        inner = Checkpoint(path, "d", self.FP, {"p": "inner"})
        real_replace = os.replace
        calls = []

        def replace(src, dst):
            calls.append(src)
            if len(calls) == 1:
                inner.save()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        outer.save()
        assert len(calls) == 2 and calls[0] != calls[1]
        assert Checkpoint.load(path).phases == {"p": "outer"}
        assert os.listdir(tmp_path) == ["ck.json"]

    def test_concurrent_processes_saving_one_path(self, tmp_path):
        # More writers than cores, each saving the same entry in a loop:
        # every save must succeed and the file must always load whole.
        path = str(tmp_path / "ck.json")
        script = ("import sys\n"
                  "from repro.faults import Checkpoint\n"
                  "for i in range(40):\n"
                  "    Checkpoint(sys.argv[1], 'd', {'a': 1},\n"
                  "               {'w': sys.argv[2], 'i': i}).save()\n")
        env = dict(os.environ)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        procs = [subprocess.Popen([sys.executable, "-c", script, path,
                                   str(n)], env=env,
                                  stderr=subprocess.PIPE, text=True)
                 for n in range(2 * (os.cpu_count() or 1) + 2)]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err[-500:]
        assert Checkpoint.load(path).phases["i"] == 39
        assert os.listdir(tmp_path) == ["ck.json"]

    def test_failed_save_removes_its_tmp_file(self, tmp_path, monkeypatch):
        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            Checkpoint(str(tmp_path / "ck.json"), "d", self.FP).save()
        assert os.listdir(tmp_path) == []

    def test_telemetry_counters(self, tmp_path):
        path = tmp_path / "ck.json"
        with telemetry.use_registry(telemetry.Registry()) as reg:
            cp = Checkpoint.open(str(path), "d", self.FP)
            cp.put("a", 1)
            cp.put("b", 2)
            cp2 = Checkpoint.open(str(path), "d", self.FP)
            assert cp2.get("a") == 1
            assert cp2.get("missing") is None
        counters = reg.snapshot()["counters"]
        assert counters["checkpoint.saves"] == 2
        assert counters["checkpoint.resumes"] == 1
        assert counters["checkpoint.phases_reused"] == 1
