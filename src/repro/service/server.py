"""The ``repro serve`` daemon.

One process, three moving parts:

- the **accept loop** (main thread) answers one-shot protocol requests
  on a local ``AF_UNIX`` socket -- submit, status, result, ping,
  shutdown. Requests are tiny and answered immediately; nothing blocks
  on job execution.
- the **scheduler thread** drains the FIFO job queue strictly in
  submission order, one job at a time. Intra-job parallelism comes from
  the job's ``jobs`` field (defaulting to the daemon's ``--jobs``)
  scheduled over the shared warm :class:`~repro.parallel.PoolHandle` --
  sequential jobs over a parallel pool keeps results deterministic
  (byte-identical to a cold CLI run) while still using every core.
- the **warm-state cache** (:class:`~repro.service.ops.WarmStateCache`)
  holds trained networks/encoders keyed by (workload, seeds, config),
  so a repeat diagnosis skips offline retraining.

Each job runs under its own fresh telemetry
:class:`~repro.telemetry.Registry`; the exported run profile is stored
with the job and served as its status payload (a *live* snapshot for a
job still running).

Durability: every job transition persists through the jobstore's
checksummed checkpoint. ``SIGTERM``/``SIGINT`` trigger a graceful
shutdown -- finish the job in flight, leave the rest queued, release
the worker pool via :meth:`PoolHandle.close`, unlink the socket. A
``SIGKILL``'d daemon skips all of that, and the next daemon pointed at
the same state file requeues whatever was running (see
:mod:`repro.service.jobstore`).
"""

import os
import signal
import socket
import stat
import sys
import threading
import traceback

from repro import __version__, telemetry
from repro.common.errors import JobNotFound, ProtocolError, ReproError
from repro.parallel import get_pool, resolve_jobs
from repro.service import ops
from repro.service.jobstore import (
    DEFAULT_HISTORY_LIMIT,
    JOB_DONE,
    JOB_FAILED,
    JobStore,
)
from repro.service.protocol import read_message, write_message
from repro.telemetry import TickClock, profile_dict
from repro.telemetry import selfcost

#: Accept-loop poll interval (seconds): how often the stop flag is
#: checked while waiting for connections.
POLL_INTERVAL = 0.2

#: Per-connection socket timeout (seconds). A client that connects and
#: then stalls (or someone typing into ``nc -U`` slower than this) gets
#: its connection dropped -- never the daemon.
CONN_TIMEOUT = 5.0


class Server:
    """The diagnosis service daemon. ``run()`` blocks until shutdown."""

    def __init__(self, socket_path, state_path=None, jobs=None,
                 warm_capacity=8, tick_clock=False,
                 history_limit=DEFAULT_HISTORY_LIMIT):
        self.socket_path = socket_path
        self.jobs = jobs
        self.tick_clock = tick_clock
        self.store = JobStore(state_path, history_limit=history_limit)
        self.warm = ops.WarmStateCache(capacity=warm_capacity)
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._lock = threading.Lock()
        self._active = None        # (job_id, Registry) while running
        self._listener = None
        self._scheduler = None
        self.scheduler_errors = 0        # unexpected scheduler exceptions
        self.last_scheduler_error = None

    # -- lifecycle -----------------------------------------------------

    def _bind(self):
        if os.path.exists(self.socket_path):
            try:
                is_sock = stat.S_ISSOCK(os.stat(self.socket_path).st_mode)
            except OSError:
                is_sock = True  # vanished underneath us; bind decides
            if not is_sock:
                raise ReproError(
                    f"{self.socket_path!r} exists and is not a socket; "
                    "refusing to delete it (pass a different --socket "
                    "path)")
            # A stale socket from a killed daemon refuses rebinding;
            # probe it and only steal the path if nobody answers.
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.settimeout(1.0)
                probe.connect(self.socket_path)
            except OSError:
                os.unlink(self.socket_path)
            else:
                probe.close()
                raise ReproError(
                    f"another daemon is already listening on "
                    f"{self.socket_path!r}")
            finally:
                probe.close()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.socket_path)
        listener.listen(8)
        listener.settimeout(POLL_INTERVAL)
        return listener

    def stop(self):
        """Request shutdown (signal-handler and protocol entry point)."""
        self._stop.set()
        self._wake.set()

    def run(self, install_signal_handlers=True):
        """Serve until stopped; returns the number of jobs completed."""
        self._listener = self._bind()
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                signal.signal(sig, lambda _s, _f: self.stop())
        self._scheduler = threading.Thread(target=self._schedule_loop,
                                           name="repro-serve-scheduler",
                                           daemon=True)
        self._scheduler.start()
        completed = 0
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                try:
                    self._handle_connection(conn)
                except Exception:  # noqa: BLE001 - one bad client, not us
                    traceback.print_exc(file=sys.stderr)
                finally:
                    conn.close()
        finally:
            completed = self._shutdown()
        return completed

    def _shutdown(self):
        """Graceful teardown: drain the running job, then release."""
        self._stop.set()
        self._wake.set()
        if self._scheduler is not None:
            # The scheduler finishes the job in flight (its transitions
            # are already persisted) and refuses to start another.
            self._scheduler.join()
        if self._listener is not None:
            self._listener.close()
        if os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        # Workers go last: after the drain, before interpreter atexit.
        get_pool().close()
        counts = self.store.counts()
        return (counts[JOB_DONE] + counts[JOB_FAILED]
                + counts.get("pruned", 0))

    # -- scheduler -----------------------------------------------------

    def _schedule_loop(self):
        """Drain the queue. This thread must never die: every step is
        guarded, and anything unexpected (including persistence
        failures -- disk full, checkpoint write errors) is counted and
        surfaced through ``status`` instead of silently killing job
        execution while the accept loop keeps taking submits."""
        while not self._stop.is_set():
            job = None
            try:
                with self._lock:
                    job = self.store.next_queued()
                    if job is not None:
                        self.store.mark_running(job.id)
            except Exception:  # noqa: BLE001 - keep scheduling
                self._note_scheduler_error("marking job running")
            if job is None:
                self._wake.wait(POLL_INTERVAL)
                self._wake.clear()
                continue
            self._run_job(job)

    def _note_scheduler_error(self, context):
        """Record an unexpected scheduler exception (keeps the thread)."""
        err = traceback.format_exc()
        with self._lock:
            self.scheduler_errors += 1
            self.last_scheduler_error = (
                f"{context}: {err.strip().splitlines()[-1]}")
        print(f"repro serve: scheduler error while {context}:\n{err}",
              file=sys.stderr)

    def _run_job(self, job):
        """Execute one job under a fresh per-job telemetry registry."""
        registry = telemetry.Registry(
            clock=TickClock() if self.tick_clock else None)
        with self._lock:
            self._active = (job.id, registry)
        outcome = profile = error = None
        try:
            req = ops.request_from_payload(job.request)
            with telemetry.use_registry(registry):
                with registry.span("serve.job", job=job.id, kind=req.kind):
                    outcome = ops.run_request(req, store=self.warm,
                                              default_jobs=self.jobs)
            profile = self._profile(registry, job)
        except Exception as e:  # noqa: BLE001 - job failure, not daemon death
            error = f"error: {e}"
        # Recording the end transitions the store *and* persists it;
        # either can fail (disk full, checkpoint errors) and must not
        # take the scheduler thread down with it.
        try:
            with self._lock:
                if error is None:
                    self.store.finish(job.id, outcome, profile=profile)
                else:
                    self.store.fail(job.id, error)
        except Exception:  # noqa: BLE001 - persistence failed, keep going
            self._note_scheduler_error(f"recording end of job {job.id}")
        finally:
            with self._lock:
                self._active = None

    def _profile(self, registry, job):
        meta = {"job": job.id, "kind": job.kind, "version": __version__}
        if self.tick_clock:
            meta["clock"] = "tick"
        return profile_dict(
            registry, meta=meta, self_overhead=True,
            calibration=selfcost.PINNED_CALIBRATION if self.tick_clock
            else None)

    def _live_profile(self, job_id):
        """Best-effort profile snapshot of the running job (or None)."""
        with self._lock:
            active = self._active
        if active is None or active[0] != job_id:
            return None
        try:
            return self._profile(active[1], self.store.get(job_id))
        except Exception:  # noqa: BLE001 - racing a finishing job is fine
            return None

    # -- protocol ------------------------------------------------------

    def _handle_connection(self, conn):
        conn.settimeout(CONN_TIMEOUT)
        try:
            message = read_message(conn)
        except ProtocolError as e:
            self._reply(conn, {"ok": False, "error": str(e),
                               "error_type": "ProtocolError"})
            return
        except OSError:
            # Slow or vanished client (recv timeout, reset mid-frame):
            # drop the connection, never the daemon.
            return
        try:
            reply = self._dispatch(message)
        except (ProtocolError, JobNotFound) as e:
            reply = {"ok": False, "error": str(e),
                     "error_type": type(e).__name__}
        except Exception as e:  # noqa: BLE001 - never kill the daemon
            reply = {"ok": False, "error": f"internal error: {e}",
                     "error_type": type(e).__name__}
        self._reply(conn, reply)

    @staticmethod
    def _reply(conn, payload):
        try:
            write_message(conn, payload)
        except OSError:
            pass  # client went away; nothing to tell it

    def _dispatch(self, message):
        op = message.get("op")
        if op == "ping":
            return {"ok": True, "pid": os.getpid(),
                    "version": __version__,
                    "resolved_jobs": resolve_jobs(self.jobs)}
        if op == "submit":
            req = ops.request_from_payload(message.get("request"))
            with self._lock:
                job = self.store.submit(ops.request_to_payload(req))
            self._wake.set()
            return {"ok": True, "job": job.summary()}
        if op == "status":
            job_id = message.get("job")
            if job_id is None:
                with self._lock:
                    jobs = [j.summary() for j in self.store.jobs()]
                    counts = self.store.counts()
                    scheduler = {
                        "alive": (self._scheduler is not None
                                  and self._scheduler.is_alive()),
                        "errors": self.scheduler_errors,
                        "last_error": self.last_scheduler_error,
                    }
                return {"ok": True, "pid": os.getpid(),
                        "version": __version__, "counts": counts,
                        "warm": self.warm.stats(),
                        "scheduler": scheduler, "jobs": jobs}
            with self._lock:
                job = self.store.get(job_id)
                summary = job.summary()
                profile = job.profile
            if profile is None:
                profile = self._live_profile(job_id)
            return {"ok": True, "job": summary, "profile": profile}
        if op == "result":
            job_id = message.get("job")
            if job_id is None:
                raise ProtocolError("result needs a job id")
            with self._lock:
                job = self.store.get(job_id)
                return {"ok": True, "job": job.summary(),
                        "result": job.result}
        if op == "shutdown":
            self.stop()
            return {"ok": True, "stopping": True}
        raise ProtocolError(f"unknown op {op!r} (expected ping, submit, "
                            "status, result or shutdown)")
