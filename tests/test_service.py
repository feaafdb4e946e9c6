"""Tests for the diagnosis service: ops, protocol, jobstore, daemon.

The daemon contract under test is *byte identity*: a job submitted over
the socket must produce exactly the output (stdout, stderr, exit code,
artifact files) of the equivalent cold CLI invocation, because both
call the same :mod:`repro.service.ops` code. Warm-state reuse must be
observable only in telemetry (``serve.warm_hits``, the missing
``diagnose.offline_train`` span) -- never in the report.

In-process daemon tests run :class:`~repro.service.server.Server` on a
background thread (cold CLI runs are sequenced strictly before the
daemon starts or after it drains, since the telemetry registry is
process-global). The kill/restart test uses a real subprocess and
``SIGKILL`` to prove jobstore durability.
"""

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.cli import main
from repro.common.errors import (
    JobNotFound,
    ProtocolError,
    ReproError,
    ServiceError,
)
from repro.parallel import PoolHandle, get_pool, jobs_from_env
from repro.service import client, ops, protocol
from repro.service.jobstore import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobStore,
)
from repro.service.server import Server

FAST = ["--train-runs", "4", "--pruning-runs", "6"]
FAST_KW = {"train_runs": 4, "pruning_runs": 6}


def _short_dir():
    """AF_UNIX socket paths are length-limited (~107 bytes); pytest's
    tmp_path nests too deep, so sockets live under a short mkdtemp."""
    return tempfile.mkdtemp(prefix="rsv")


def _cold(capsys, argv):
    """Run the CLI in-process; returns (rc, stdout, stderr)."""
    capsys.readouterr()
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _outcome_text(result):
    """Reassemble a job result as the CLI would have printed it."""
    out = result["out"] + "\n" if result["out"] else ""
    err = result["err"] + "\n" if result["err"] else ""
    return result["rc"], out, err


class _Daemon:
    """An in-process Server on a background thread."""

    def __init__(self, tmp=None, **kwargs):
        self.dir = tmp or _short_dir()
        self.socket_path = os.path.join(self.dir, "s.sock")
        self.server = Server(self.socket_path, **kwargs)
        self.thread = threading.Thread(
            target=lambda: self.server.run(install_signal_handlers=False),
            daemon=True)

    def __enter__(self):
        self.thread.start()
        deadline = time.monotonic() + 10
        while True:
            try:
                client.ping(self.socket_path, timeout=1.0)
                return self
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)

    def __exit__(self, *_exc):
        try:
            client.shutdown(self.socket_path, timeout=5.0)
        except ServiceError:
            self.server.stop()
        self.thread.join(timeout=60)


# ---------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------

class TestProtocol:
    def test_encode_decode_round_trip(self):
        payload = {"op": "submit", "request": {"kind": "trace",
                                               "args": {"seed": 3}}}
        frame = protocol.encode_message(payload)
        assert frame.endswith(b"\n")
        assert protocol.decode_frame(frame[:-1]) == payload

    def test_socketpair_round_trip(self):
        a, b = socket.socketpair()
        try:
            protocol.write_message(a, {"ok": True, "n": 7})
            assert protocol.read_message(b) == {"ok": True, "n": 7}
        finally:
            a.close()
            b.close()

    def test_bad_json_raises_protocol_error(self):
        with pytest.raises(ProtocolError) as exc:
            protocol.decode_frame(b"{not json")
        assert exc.value.frame == "{not json"

    def test_non_object_frame_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"[1, 2]")

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b'{"half": ')
            a.close()
            with pytest.raises(ProtocolError):
                protocol.read_message(b)
        finally:
            b.close()

    def test_unreachable_daemon_is_service_error(self):
        path = os.path.join(_short_dir(), "nobody.sock")
        with pytest.raises(ServiceError) as exc:
            protocol.request(path, {"op": "ping"}, timeout=1.0)
        assert exc.value.socket_path == path


class TestRequestPayloads:
    REQUESTS = [
        ops.DiagnoseRequest(bug="gzip", seed=9, jobs=2),
        ops.CorpusRequest(seed=3, size=2, out="m.json"),
        ops.TraceRequest(program="lu", seed=4, out="t.jsonl"),
        ops.ProfileRequest(programs=("gzip",), tick_clock=True),
    ]

    # ids get a suffix so the "corpus" param id doesn't collide with
    # the corpus marker keyword (conftest deselects on it).
    @pytest.mark.parametrize("req", REQUESTS,
                             ids=lambda r: f"{r.kind}-req")
    def test_round_trip(self, req):
        payload = ops.request_to_payload(req)
        # Must survive the wire (JSON) unchanged.
        payload = json.loads(json.dumps(payload))
        assert ops.request_from_payload(payload) == req

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError) as exc:
            ops.request_from_payload({"kind": "frobnicate", "args": {}})
        assert "frobnicate" in str(exc.value)

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError) as exc:
            ops.request_from_payload(
                {"kind": "diagnose", "args": {"bug": "gzip", "zap": 1}})
        assert "zap" in str(exc.value)

    def test_missing_required_field_rejected(self):
        with pytest.raises(ProtocolError):
            ops.request_from_payload({"kind": "diagnose", "args": {}})

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError):
            ops.request_from_payload("diagnose")


# ---------------------------------------------------------------------
# jobstore
# ---------------------------------------------------------------------

def _req_payload(bug="gzip"):
    return ops.request_to_payload(
        ops.DiagnoseRequest(bug=bug, **FAST_KW))


class TestJobStore:
    def test_fifo_ids_and_order(self):
        store = JobStore()
        j1 = store.submit(_req_payload())
        j2 = store.submit(_req_payload("mysql1"))
        assert (j1.id, j2.id) == ("j1", "j2")
        assert store.next_queued().id == "j1"
        store.mark_running("j1")
        assert store.next_queued().id == "j2"

    def test_get_unknown_job(self):
        with pytest.raises(JobNotFound) as exc:
            JobStore().get("j99")
        assert exc.value.job_id == "j99"

    def test_rc1_is_done_rc2_is_failed(self):
        store = JobStore()
        j1 = store.submit(_req_payload())
        j2 = store.submit(_req_payload())
        store.mark_running(j1.id)
        store.finish(j1.id, ops.Outcome(rc=1, out="not found"))
        store.mark_running(j2.id)
        store.finish(j2.id, ops.Outcome(rc=2, err="error: boom"))
        assert store.get(j1.id).state == JOB_DONE
        assert store.get(j2.id).state == JOB_FAILED

    def test_persistence_round_trip(self, tmp_path):
        path = str(tmp_path / "jobs.json")
        store = JobStore(path)
        job = store.submit(_req_payload())
        store.mark_running(job.id)
        store.finish(job.id, ops.Outcome(rc=0, out="hi",
                                         payload={"found": True}),
                     profile={"counters": {}})
        reloaded = JobStore(path)
        got = reloaded.get(job.id)
        assert got.state == JOB_DONE
        assert got.result["out"] == "hi"
        assert got.profile == {"counters": {}}
        assert reloaded.next_queued() is None

    def test_finished_history_is_pruned(self, tmp_path):
        path = str(tmp_path / "jobs.json")
        store = JobStore(path, history_limit=2)
        ids = []
        for i in range(4):
            job = store.submit(_req_payload())
            store.mark_running(job.id)
            store.finish(job.id, ops.Outcome(rc=0, out=f"r{i}"))
            ids.append(job.id)
        assert len(store) == 2
        assert store.pruned == 2
        assert store.counts()["pruned"] == 2
        with pytest.raises(JobNotFound):
            store.get(ids[0])
        assert store.get(ids[3]).result["out"] == "r3"
        # Pruning persists: the count and the id counter both survive a
        # reload, so ids never recycle even if every job was pruned.
        reloaded = JobStore(path, history_limit=2)
        assert reloaded.pruned == 2
        assert len(reloaded) == 2
        assert reloaded.submit(_req_payload()).id == "j5"

    def test_under_limit_prunes_nothing(self):
        # Fewer finished jobs than the limit: the excess is negative
        # and must not turn into a Python negative slice that prunes.
        store = JobStore(history_limit=3)
        for _ in range(2):
            job = store.submit(_req_payload())
            store.mark_running(job.id)
            store.finish(job.id, ops.Outcome(rc=0))
            assert store.pruned == 0
        assert len(store) == 2

    def test_queued_and_running_never_pruned(self):
        store = JobStore(history_limit=1)
        queued = store.submit(_req_payload())
        running = store.submit(_req_payload())
        store.mark_running(running.id)
        for _ in range(3):
            job = store.submit(_req_payload())
            store.mark_running(job.id)
            store.finish(job.id, ops.Outcome(rc=0))
        assert store.get(queued.id).state == JOB_QUEUED
        assert store.get(running.id).state == JOB_RUNNING
        states = [j.state for j in store.jobs()]
        assert states.count(JOB_DONE) == 1  # newest kept, older pruned
        assert store.pruned == 2

    def test_history_limit_must_allow_reading_results(self):
        with pytest.raises(ReproError):
            JobStore(history_limit=0)

    def test_running_jobs_requeued_on_load(self, tmp_path):
        path = str(tmp_path / "jobs.json")
        store = JobStore(path)
        j1 = store.submit(_req_payload())
        j2 = store.submit(_req_payload("mysql1"))
        store.mark_running(j1.id)
        # Simulate a daemon killed mid-job: just reload the file.
        reloaded = JobStore(path)
        got = reloaded.get(j1.id)
        assert got.state == JOB_QUEUED
        assert got.requeues == 1
        assert got.started_at is None
        assert reloaded.get(j2.id).state == JOB_QUEUED
        assert reloaded.next_queued().id == j1.id  # FIFO preserved
        assert reloaded.submit(_req_payload()).id == "j3"  # ids continue


# ---------------------------------------------------------------------
# warm-state cache
# ---------------------------------------------------------------------

class TestWarmStateCache:
    def test_lru_eviction(self):
        cache = ops.WarmStateCache(capacity=2)
        cache["a"] = {"v": 1}
        cache["b"] = {"v": 2}
        assert cache.get("a") == {"v": 1}  # refreshes "a"
        cache["c"] = {"v": 3}              # evicts "b"
        assert "b" not in cache
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}
        assert cache.stats() == {"size": 2, "capacity": 2, "hits": 3,
                                 "misses": 1, "evictions": 1}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ReproError):
            ops.WarmStateCache(capacity=0)

    def test_key_is_order_independent(self):
        from repro.engines import create
        from repro.workloads.registry import get_bug

        program = get_bug("gzip")
        nn = create("nn")
        assert (nn.store_key({}, program, 4, 0, {"buggy": False, "n": 2})
                == nn.store_key({}, program, 4, 0, {"n": 2, "buggy": False}))

    def test_warm_diagnose_identical_and_skips_training(self):
        req = ops.DiagnoseRequest(bug="gzip", **FAST_KW)
        cold = ops.run_diagnose(req)
        cache = ops.WarmStateCache()
        first = ops.run_diagnose(req, store=cache)
        assert (first.rc, first.out, first.err) == (cold.rc, cold.out,
                                                    cold.err)
        assert cache.misses == 1 and len(cache) == 1
        warm = ops.run_diagnose(req, store=cache)
        assert (warm.rc, warm.out, warm.err) == (cold.rc, cold.out,
                                                 cold.err)
        assert cache.hits == 1

    def test_faulted_requests_bypass_cache(self):
        cache = ops.WarmStateCache()
        req = ops.DiagnoseRequest(bug="gzip", faults="seed=3", **FAST_KW)
        ops.run_diagnose(req, store=cache)
        assert cache.hits == cache.misses == len(cache) == 0

    def test_engines_never_share_cache_entries(self):
        # The warm key carries the engine fingerprint, so two engines
        # on the same workload miss independently and hold separate
        # entries -- serving NN weights to pset (or vice versa) would
        # be silent corruption.
        cache = ops.WarmStateCache()
        nn = ops.DiagnoseRequest(bug="gzip", **FAST_KW)
        pset = ops.DiagnoseRequest(bug="gzip", engine="pset", **FAST_KW)
        cold = {"nn": ops.run_diagnose(nn), "pset": ops.run_diagnose(pset)}
        first = {"nn": ops.run_diagnose(nn, store=cache),
                 "pset": ops.run_diagnose(pset, store=cache)}
        assert cache.misses == 2 and cache.hits == 0 and len(cache) == 2
        warm = {"nn": ops.run_diagnose(nn, store=cache),
                "pset": ops.run_diagnose(pset, store=cache)}
        assert cache.misses == 2 and cache.hits == 2 and len(cache) == 2
        for name in ("nn", "pset"):
            for got in (first[name], warm[name]):
                assert (got.rc, got.out, got.err) == (
                    cold[name].rc, cold[name].out, cold[name].err)

    def test_ensemble_reuses_member_entries(self):
        # An ensemble looks each member up under the member's own key,
        # so standalone nn and pset runs leave nothing to train.
        cache = ops.WarmStateCache()
        for engine in ("nn", "pset"):
            ops.run_diagnose(ops.DiagnoseRequest(bug="gzip", engine=engine,
                                                 **FAST_KW), store=cache)
        assert (cache.hits, cache.misses) == (0, 2)
        req = ops.DiagnoseRequest(bug="gzip", engine="ensemble:nn+pset",
                                  **FAST_KW)
        warm = ops.run_diagnose(req, store=cache)
        assert (cache.hits, cache.misses, len(cache)) == (2, 2, 2)
        cold = ops.run_diagnose(req)
        assert (warm.rc, warm.out, warm.err) == (cold.rc, cold.out,
                                                 cold.err)


# ---------------------------------------------------------------------
# pool close + jobs env satellites
# ---------------------------------------------------------------------

class TestPoolClose:
    def test_close_is_idempotent_and_rebuildable(self):
        handle = PoolHandle()
        ex = handle.executor(1)
        assert handle.max_workers == 1
        handle.close()
        handle.close()
        assert handle.max_workers == 0
        ex2 = handle.executor(1)  # a closed handle can come back warm
        assert ex2 is not ex
        handle.close()

    def test_shared_pool_survives_close(self):
        from repro.parallel import run_tasks

        get_pool().close()
        assert run_tasks(abs, [-1, -2], jobs=2) == [1, 2]
        get_pool().close()


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


# ---------------------------------------------------------------------
# daemon end-to-end (in-process server thread)
# ---------------------------------------------------------------------

class TestDaemonRoundTrip:
    def test_submit_matches_cold_cli_for_two_bugs(self, capsys, tmp_path):
        cold = {}
        for bug in ("gzip", "mysql1"):
            cold[bug] = _cold(capsys, ["diagnose", bug, *FAST])
        with _Daemon() as d:
            for bug in ("gzip", "mysql1"):
                job = client.submit(
                    d.socket_path,
                    ops.DiagnoseRequest(bug=bug, **FAST_KW))
                reply = client.wait_for(d.socket_path, job["id"],
                                        timeout=120)
                assert _outcome_text(reply["result"]) == cold[bug]

    def test_corpus_artifact_matches_cold_cli(self, capsys, tmp_path):
        args = ["--seed", "3", "--size", "2", *FAST]
        cold_out = tmp_path / "cold.json"
        cold = _cold(capsys, ["corpus", *args, "--out", str(cold_out)])
        warm_out = tmp_path / "warm.json"
        with _Daemon() as d:
            job = client.submit(
                d.socket_path,
                ops.CorpusRequest(seed=3, size=2, out=str(warm_out),
                                  **FAST_KW))
            reply = client.wait_for(d.socket_path, job["id"], timeout=120)
        rc, out, err = _outcome_text(reply["result"])
        # The printed path differs (cold.json vs warm.json); everything
        # else -- tables, rc, the metrics JSON bytes -- must match.
        assert rc == cold[0]
        assert out.replace(str(warm_out), str(cold_out)) == cold[1]
        assert err == cold[2]
        assert warm_out.read_bytes() == cold_out.read_bytes()

    def test_concurrent_submits_run_fifo_and_deterministic(
            self, capsys, tmp_path):
        jobs_argv = [
            ["diagnose", "gzip", *FAST],
            ["diagnose", "mysql1", *FAST],
            ["corpus", "--seed", "3", "--size", "2", *FAST],
        ]
        cold = [_cold(capsys, argv) for argv in jobs_argv]
        requests = [
            ops.DiagnoseRequest(bug="gzip", **FAST_KW),
            ops.DiagnoseRequest(bug="mysql1", **FAST_KW),
            ops.CorpusRequest(seed=3, size=2, **FAST_KW),
        ]
        with _Daemon(jobs=2) as d:
            # Burst-submit before anything finishes: the queue must
            # execute strictly FIFO, and --jobs 2 intra-job parallelism
            # must not change a byte of any result.
            ids = [client.submit(d.socket_path, r)["id"]
                   for r in requests]
            assert ids == ["j1", "j2", "j3"]
            replies = [client.wait_for(d.socket_path, jid, timeout=240)
                       for jid in ids]
            status = client.status(d.socket_path)
        for reply, expected in zip(replies, cold):
            assert _outcome_text(reply["result"]) == expected
        starts = [r["job"]["started_at"] for r in replies]
        assert starts == sorted(starts)  # FIFO execution order
        assert status["counts"][JOB_DONE] == 3

    def test_warm_cache_hit_on_repeat_submit(self, capsys):
        cold = _cold(capsys, ["diagnose", "gzip", *FAST])
        req = ops.DiagnoseRequest(bug="gzip", **FAST_KW)
        with _Daemon() as d:
            first = client.wait_for(
                d.socket_path,
                client.submit(d.socket_path, req)["id"], timeout=120)
            second = client.wait_for(
                d.socket_path,
                client.submit(d.socket_path, req)["id"], timeout=120)
            s1 = client.status(d.socket_path, job_id=first["job"]["id"])
            s2 = client.status(d.socket_path, job_id=second["job"]["id"])
            daemon_status = client.status(d.socket_path)
        # Identical bytes either way...
        assert _outcome_text(first["result"]) == cold
        assert _outcome_text(second["result"]) == cold
        # ...but the second run skipped offline retraining entirely:
        # telemetry says so, and the span tree has no training phase.
        c1, c2 = s1["profile"]["counters"], s2["profile"]["counters"]
        assert (c1["serve.warm_hits"], c1["serve.warm_misses"]) == (0, 1)
        assert (c2["serve.warm_hits"], c2["serve.warm_misses"]) == (1, 0)
        assert "diagnose.offline_train" in _span_names(s1["profile"])
        assert "diagnose.offline_train" not in _span_names(s2["profile"])
        warm = daemon_status["warm"]
        assert warm["hits"] == 1 and warm["misses"] == 1

    def test_submit_engine_matches_cold_cli(self, capsys):
        cold = _cold(capsys,
                     ["diagnose", "gzip", "--engine", "pset", *FAST])
        req = ops.DiagnoseRequest(bug="gzip", engine="pset", **FAST_KW)
        with _Daemon() as d:
            first = client.wait_for(
                d.socket_path,
                client.submit(d.socket_path, req)["id"], timeout=120)
            # A repeat submit is served from the per-engine warm cache
            # and must still be byte-identical.
            second = client.wait_for(
                d.socket_path,
                client.submit(d.socket_path, req)["id"], timeout=120)
            warm = client.status(d.socket_path)["warm"]
        assert _outcome_text(first["result"]) == cold
        assert _outcome_text(second["result"]) == cold
        assert warm["hits"] == 1 and warm["misses"] == 1

    def test_submit_shootout_matches_cold_cli(self, capsys, tmp_path):
        cold_out = tmp_path / "cold.json"
        cold = _cold(capsys, ["shootout", "--seed", "3", "--size", "2",
                              "--engines", "pset,pbi", *FAST,
                              "--no-bench", "--out", str(cold_out)])
        warm_out = tmp_path / "warm.json"
        with _Daemon() as d:
            job = client.submit(
                d.socket_path,
                ops.ShootoutRequest(seed=3, size=2,
                                    engines=("pset", "pbi"),
                                    out=str(warm_out), bench=None,
                                    **FAST_KW))
            reply = client.wait_for(d.socket_path, job["id"], timeout=240)
        rc, out, err = _outcome_text(reply["result"])
        assert rc == cold[0]
        assert out.replace(str(warm_out), str(cold_out)) == cold[1]
        assert err == cold[2]
        assert warm_out.read_bytes() == cold_out.read_bytes()

    def test_status_and_errors_over_socket(self):
        with _Daemon() as d:
            info = client.ping(d.socket_path)
            assert info["pid"] == os.getpid()
            with pytest.raises(JobNotFound):
                client.status(d.socket_path, job_id="j99")
            with pytest.raises(ProtocolError):
                client.submit(d.socket_path,
                              {"kind": "frobnicate", "args": {}})
            # A bad request never reaches the queue.
            assert client.status(d.socket_path)["jobs"] == []

    def test_failed_job_is_failed_not_fatal(self):
        with _Daemon() as d:
            job = client.submit(
                d.socket_path, ops.DiagnoseRequest(bug="not-a-bug"))
            reply = client.wait_for(d.socket_path, job["id"], timeout=60)
            assert reply["job"]["state"] == JOB_FAILED
            assert "unknown bug" in reply["result"]["err"]
            assert reply["result"]["rc"] == 2
            # The daemon is still alive and serving.
            assert client.ping(d.socket_path)["ok"]


class TestDaemonRobustness:
    def test_idle_or_dying_client_does_not_kill_daemon(self, monkeypatch):
        from repro.service import server as server_mod

        monkeypatch.setattr(server_mod, "CONN_TIMEOUT", 0.2)
        with _Daemon() as d:
            # A client that connects and sends nothing: its recv times
            # out daemon-side and only the connection is dropped.
            idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            idle.connect(d.socket_path)
            time.sleep(0.6)  # well past the per-connection timeout
            assert client.ping(d.socket_path)["ok"]
            idle.close()
            # A client that dies mid-frame is equally harmless.
            half = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            half.connect(d.socket_path)
            half.sendall(b'{"op": ')
            half.close()
            assert client.ping(d.socket_path)["ok"]

    def test_store_failure_surfaces_and_scheduler_survives(
            self, tmp_path):
        with _Daemon() as d:
            original = d.server.store.finish

            def boom(*_args, **_kwargs):
                raise OSError("disk full")

            d.server.store.finish = boom
            client.submit(
                d.socket_path,
                ops.TraceRequest(program="lu",
                                 out=str(tmp_path / "t1.jsonl")))
            deadline = time.monotonic() + 60
            while (client.status(d.socket_path)["scheduler"]["errors"]
                   == 0):
                assert time.monotonic() < deadline, \
                    "scheduler error never surfaced"
                time.sleep(0.05)
            d.server.store.finish = original
            status = client.status(d.socket_path)
            assert status["scheduler"]["alive"]
            assert "disk full" in status["scheduler"]["last_error"]
            # The scheduler thread survived: the next job completes.
            job = client.submit(
                d.socket_path,
                ops.TraceRequest(program="lu",
                                 out=str(tmp_path / "t2.jsonl")))
            reply = client.wait_for(d.socket_path, job["id"], timeout=60)
            assert reply["job"]["state"] == JOB_DONE

    def test_bind_refuses_non_socket_path(self):
        # A typo'd --socket pointing at a real file must not delete it.
        path = os.path.join(_short_dir(), "not-a-socket")
        with open(path, "w", encoding="utf-8") as f:
            f.write("precious data")
        server = Server(path)
        with pytest.raises(ReproError, match="not a socket"):
            server.run(install_signal_handlers=False)
        with open(path, encoding="utf-8") as f:
            assert f.read() == "precious data"


def _span_names(profile):
    names = set()
    stack = list(profile.get("spans") or [])
    while stack:
        span = stack.pop()
        names.add(span["name"])
        stack.extend(span.get("children") or [])
    return names


# ---------------------------------------------------------------------
# daemon durability (real subprocess, SIGKILL)
# ---------------------------------------------------------------------

def _serve_env():
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_daemon(sock, state):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--socket", sock, "--state", state],
        env=_serve_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)


def _wait_ping(sock, proc, timeout=30):
    deadline = time.monotonic() + timeout
    while True:
        try:
            return client.ping(sock, timeout=1.0)
        except ServiceError:
            if proc.poll() is not None:
                raise AssertionError(
                    f"daemon died: {proc.stderr.read()}")
            if time.monotonic() > deadline:
                raise
            time.sleep(0.1)


class TestDaemonDurability:
    def test_sigkill_then_restart_resumes_queue(self, capsys, tmp_path):
        cold = _cold(capsys, ["diagnose", "gzip", *FAST])
        tmp = _short_dir()
        sock = os.path.join(tmp, "s.sock")
        state = str(tmp_path / "jobs.json")
        daemon = _spawn_daemon(sock, state)
        try:
            _wait_ping(sock, daemon)
            # j1 is slow enough to be caught mid-run; j2 waits behind it.
            j1 = client.submit(
                sock, ops.CorpusRequest(seed=3, size=4, **FAST_KW))
            j2 = client.submit(
                sock, ops.DiagnoseRequest(bug="gzip", **FAST_KW))
            deadline = time.monotonic() + 60
            while True:
                if (client.status(sock, job_id=j1["id"])["job"]["state"]
                        == JOB_RUNNING):
                    break
                assert time.monotonic() < deadline, "j1 never started"
                time.sleep(0.05)
            daemon.kill()
            daemon.wait(timeout=30)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)

        # The store on disk has j1 persisted as running; loading it
        # demotes the job back to queued, FIFO position intact.
        store = JobStore(state)
        assert store.get(j1["id"]).state == JOB_QUEUED
        assert store.get(j1["id"]).requeues == 1
        assert store.get(j2["id"]).state == JOB_QUEUED

        daemon = _spawn_daemon(sock, state)
        try:
            _wait_ping(sock, daemon)
            r1 = client.wait_for(sock, j1["id"], timeout=240)
            r2 = client.wait_for(sock, j2["id"], timeout=240)
            assert r1["job"]["state"] == JOB_DONE
            assert r1["job"]["requeues"] == 1
            # The requeued run and the fresh one both produce exactly
            # what the cold CLI would have.
            assert "Corpus diagnosis (seed 3, 4 programs)" in (
                r1["result"]["out"])
            assert _outcome_text(r2["result"]) == cold
            client.shutdown(sock)
            daemon.wait(timeout=60)
            assert daemon.returncode == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)

    def test_sigterm_drains_gracefully(self, tmp_path):
        tmp = _short_dir()
        sock = os.path.join(tmp, "s.sock")
        state = str(tmp_path / "jobs.json")
        daemon = _spawn_daemon(sock, state)
        try:
            _wait_ping(sock, daemon)
            job = client.submit(
                sock, ops.DiagnoseRequest(bug="gzip", **FAST_KW))
            daemon.send_signal(signal.SIGTERM)
            daemon.wait(timeout=120)
            assert daemon.returncode == 0
            assert not os.path.exists(sock)  # socket unlinked on the way out
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)
        # Whatever the drain didn't finish is still queued durably.
        store = JobStore(state)
        assert store.get(job["id"]).state in (JOB_QUEUED, JOB_DONE)


# ---------------------------------------------------------------------
# service CLI commands
# ---------------------------------------------------------------------

class TestServiceCLI:
    def test_submit_wait_is_byte_identical(self, capsys):
        cold = _cold(capsys, ["diagnose", "gzip", *FAST])
        with _Daemon() as d:
            rc = main(["submit", "--socket", d.socket_path, "--wait",
                       "diagnose", "gzip", *FAST])
            captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == cold

    def test_submit_status_result_flow(self, capsys):
        with _Daemon() as d:
            assert main(["submit", "--socket", d.socket_path,
                         "diagnose", "gzip", *FAST]) == 0
            job_id = capsys.readouterr().out.strip()
            assert job_id == "j1"
            rc = main(["result", job_id, "--socket", d.socket_path,
                       "--wait"])
            waited = capsys.readouterr()
            assert rc in (0, 1)
            assert "root cause found" in waited.out
            assert main(["status", "--socket", d.socket_path]) == 0
            status_out = capsys.readouterr().out
            assert "j1" in status_out and "done" in status_out
            assert "warm cache:" in status_out

    def test_status_out_writes_profile_json(self, capsys, tmp_path):
        out = tmp_path / "status.json"
        with _Daemon() as d:
            assert main(["submit", "--socket", d.socket_path,
                         "diagnose", "gzip", *FAST]) == 0
            job_id = capsys.readouterr().out.strip()
            assert main(["result", job_id, "--socket", d.socket_path,
                         "--wait"]) in (0, 1)
            capsys.readouterr()
            assert main(["status", job_id, "--socket", d.socket_path,
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["job"]["id"] == job_id
        assert doc["profile"]["counters"]["diagnose.runs"] == 1

    def test_result_without_wait_on_unfinished_job(self, capsys):
        with _Daemon() as d:
            assert main(["submit", "--socket", d.socket_path,
                         "corpus", "--seed", "3", "--size", "2",
                         *FAST]) == 0
            job_id = capsys.readouterr().out.strip()
            rc = main(["result", job_id, "--socket", d.socket_path])
            captured = capsys.readouterr()
            if rc == 2:  # still running: the common case
                assert "still" in captured.err
            # Drain before shutdown so teardown isn't racing the job.
            main(["result", job_id, "--socket", d.socket_path, "--wait"])
            capsys.readouterr()

    def test_client_commands_without_daemon(self, capsys):
        missing = os.path.join(_short_dir(), "no.sock")
        for argv in (["status", "--socket", missing],
                     ["shutdown", "--socket", missing],
                     ["submit", "--socket", missing, "trace", "lu"]):
            assert main(argv) == 2
            assert "cannot reach daemon" in capsys.readouterr().err
