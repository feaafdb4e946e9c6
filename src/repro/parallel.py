"""Parallel run orchestration: fan independent units across processes.

Two loops fan out: the per-program sweep behind ``corpus``,
``shootout`` and ``frontier`` (:func:`repro.analysis.accuracy.sweep`)
and the Table IV topology grid (:func:`repro.nn.trainer.search_topology`).
Inside one diagnosis, run collection calls :func:`run_tasks` serially.
A pool keeps the *observable result identical* to the serial loop:

- every item's inputs (seeds included) are fixed up front, so workers
  compute exactly what the serial iteration would have computed;
- failures surface as the *earliest* item's exception, matching a
  serial loop's failure;
- pool workers record telemetry into fresh child registries and ship
  snapshots back; the parent merges them in item order, reproducing the
  serial counter/histogram totals exactly (see
  :meth:`~repro.telemetry.registry.Registry.merge_snapshot`).

The pool itself is process-wide and *warm*: a single
:class:`PoolHandle` owns one ``ProcessPoolExecutor`` that is created on
first use and reused across every batch in the process, so only the
first parallel call in a process pays worker startup. Each item is its
own submission, so an idle worker takes the next item whatever the
others cost (a pooled item is a whole diagnosis or a grid point's
training, far above the dispatch cost). Results come home by plain
pickle.

Tracing v2 makes the stitching *structural*: each batch ships one
telemetry spec tuple (:func:`_tele_spec`: clock spec, trace id, the
dispatching span's id, batch scope, phase) with its tasks, the worker
tracks its spans under a deterministic per-task scope
(``b<batch>.w<key>.``), and the parent adopts the worker's span trees
as children of the dispatching span -- a ``--jobs N`` run yields one
coherent trace tree whose ids depend only on the work, never on which
OS process executed it (or whether that process was freshly spawned or
warm). A task whose worker died for good (retries exhausted,
quarantined) leaves a closed span flagged ``orphaned`` at its dispatch
site instead of a dangling tree.

This is also the pipeline's worker fault boundary:

- the active :class:`~repro.faults.FaultPlan` propagates into pool
  workers, and its ``worker_kill`` site abruptly terminates a task
  (raising :class:`~repro.common.errors.WorkerKilled`, deterministically
  per ``(task key, attempt)`` -- the per-item quarantine key, e.g. the
  run seed, so the same task dies no matter how the batch is split or
  resumed) -- the same site fires on the serial path, so serial and
  parallel execution stay result-identical;
- killed tasks are retried up to ``plan.max_retries`` times with
  exponential backoff (``plan.retry_backoff`` seconds base);
- a *genuine* worker crash (the pool breaks, e.g. a worker was
  OOM-killed) takes down every item in flight on that pool; the shared
  pool is rebuilt (it comes back warm for subsequent batches) and the
  unfinished items are retried under the same bounded-retry budget;
- with a :class:`~repro.faults.Quarantine`, items that exhaust their
  retries or fail with a :class:`~repro.common.errors.ReproError` are
  recorded and yield ``None`` instead of aborting the whole batch.

Work functions and items must be picklable: module-level functions with
plain-data payloads. Callers pass ``jobs=None``/``1`` for the plain
serial loop (the default everywhere) or ``jobs=N``; ``jobs<=0`` means
one worker per CPU.
"""

import atexit
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro import faults as _faults
from repro import telemetry
from repro.common.errors import ReproError, WorkerKilled
from repro.telemetry.clock import clock_from_spec, clock_spec


def resolve_jobs(jobs):
    """Normalise a ``--jobs`` value: None/1 -> serial, <=0 -> cpu count.

    This is the one shared "auto" resolution point: every caller
    (CLI flags, ``REPRO_JOBS``, presets) funnels its
    raw value through here, and the resolved worker count is recorded
    as the ``parallel.jobs_resolved`` gauge so run profiles say what
    "0 = all CPUs" actually meant on this host.
    """
    if jobs is None:
        resolved = 1
    else:
        jobs = int(jobs)
        resolved = (os.cpu_count() or 1) if jobs <= 0 else jobs
    tele = telemetry.get_registry()
    if tele.enabled:
        tele.set_gauge("parallel.jobs_resolved", resolved)
    return resolved


def jobs_from_env(default=None):
    """The ``REPRO_JOBS`` environment override, unresolved.

    Returns ``default`` when the variable is unset or empty. ``0``
    means "auto" (all CPUs) exactly like ``--jobs 0`` -- the value is
    passed through so :func:`resolve_jobs` stays the single place that
    turns "auto" into a worker count.
    """
    raw = os.environ.get("REPRO_JOBS")
    if raw is None or not raw.strip():
        return default
    return int(raw)


class PoolHandle:
    """Owner of the process-wide warm worker pool.

    One instance (:func:`get_pool`) lives for the whole process; every
    parallel batch borrows its executor instead of paying
    ``ProcessPoolExecutor`` startup per call. The pool grows on demand
    (a request for more workers than it currently has rebuilds it at
    the larger size) and never shrinks; :meth:`restart` replaces a
    broken pool; :meth:`shutdown` (idempotent, also registered at
    interpreter exit) releases the workers.
    """

    def __init__(self):
        self._executor = None
        self._max_workers = 0

    @property
    def max_workers(self):
        """Workers in the current pool (0 when no pool is live)."""
        return self._max_workers

    def executor(self, n_workers):
        """The shared executor, (re)built to hold >= ``n_workers``."""
        if self._executor is None or self._max_workers < n_workers:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
            self._executor = ProcessPoolExecutor(max_workers=n_workers)
            self._max_workers = n_workers
        return self._executor

    def restart(self):
        """Replace a (typically broken) pool with a fresh one, same size."""
        n = self._max_workers
        self.shutdown()
        if n:
            self.executor(n)

    def shutdown(self):
        """Release the pool's workers (the interpreter-exit hook).

        Safe to call repeatedly; the next :meth:`executor` call builds
        a fresh pool.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._max_workers = 0


_POOL = PoolHandle()
atexit.register(_POOL.shutdown)


def get_pool():
    """The process-wide :class:`PoolHandle` shared by all batches."""
    return _POOL


def _backoff(plan, attempt):
    """Sleep before retry ``attempt`` (1-based): exponential backoff."""
    if plan.retry_backoff > 0:
        time.sleep(plan.retry_backoff * 2 ** (attempt - 1))


def _tele_spec(tele, phase):
    """The picklable telemetry context one batch ships to its workers.

    ``(clock spec, trace id, parent span id, batch scope, phase)`` --
    everything a worker needs to rebuild a child registry whose spans
    stitch deterministically under the coordinator's dispatching span.
    """
    if not tele.enabled:
        return None
    open_span = tele.tracer.open_span()
    parent_id = (open_span.span_id if open_span is not None
                 else tele.tracer.remote_parent)
    return (clock_spec(tele.clock), tele.tracer.trace_id, parent_id,
            tele.tracer.next_batch_scope(), phase)


def _invoke(payload):
    """Run one item in a pool worker; returns ``(tag, value, snapshot)``.

    Re-activates the parent's fault plan inside the worker (module
    globals do not cross the process boundary -- and a warm worker may
    carry a previous batch's globals), hosts the injected worker-kill
    site and records telemetry into a child registry. The outcome comes
    back tagged so the parent applies retry/quarantine policy per item.
    """
    fn, item, key, attempt, tspec, plan = payload
    try:
        with _faults.use_plan(plan):
            if plan.enabled and plan.fires("worker_kill", key, attempt):
                raise WorkerKilled(
                    f"injected worker death (task {key}, attempt {attempt})",
                    task_index=key, attempt=attempt)
            if tspec is None:
                return "ok", fn(item), None
            cspec, trace_id, parent_id, batch_scope, phase = tspec
            reg = telemetry.Registry(preregister_catalog=False,
                                     clock=clock_from_spec(cspec))
            reg.tracer.trace_id = trace_id
            reg.tracer.remote_parent = parent_id
            reg.tracer.scope = f"{batch_scope}w{key}."
            with telemetry.use_registry(reg):
                with reg.span("parallel.task", phase=phase, key=key):
                    out = fn(item)
            return "ok", out, reg.snapshot(exact=True)
    except WorkerKilled as e:
        return "killed", e, None
    except Exception as e:  # noqa: BLE001 - re-raised in the parent
        return "error", e, None


def _orphaned(tele, phase, key, attempts):
    """Flag a task lost for good with a closed ``orphaned`` span."""
    if not tele.enabled:
        return
    tele.tracer.orphan("parallel.task", phase=phase, key=key,
                       attempts=attempts)


def _run_serial(fn, items, keys, plan, quarantine, phase, tele):
    """The serial loop, with the same kill/retry/quarantine semantics."""
    results = []
    for index, item in enumerate(items):
        attempt = 0
        while True:
            try:
                if plan.enabled and plan.fires("worker_kill", keys[index],
                                               attempt):
                    raise WorkerKilled(
                        f"injected worker death (task {keys[index]}, "
                        f"attempt {attempt})",
                        task_index=keys[index], attempt=attempt)
                with tele.span("parallel.task", phase=phase,
                               key=keys[index]):
                    results.append(fn(item))
                break
            except WorkerKilled as e:
                tele.inc("faults.worker_kills")
                if attempt >= plan.max_retries:
                    if quarantine is not None:
                        quarantine.admit(phase, keys[index], e,
                                         attempts=attempt + 1)
                        _orphaned(tele, phase, keys[index], attempt + 1)
                        results.append(None)
                        break
                    raise
                attempt += 1
                tele.inc("parallel.retries")
                _backoff(plan, attempt)
            except ReproError as e:
                if quarantine is not None:
                    quarantine.admit(phase, keys[index], e,
                                     attempts=attempt + 1)
                    _orphaned(tele, phase, keys[index], attempt + 1)
                    results.append(None)
                    break
                raise
    return results


def _run_pool(fn, items, keys, plan, quarantine, phase, tele, n_workers):
    """Dispatch items across the warm pool with bounded retries."""
    tspec = _tele_spec(tele, phase)
    n = len(items)
    results = [None] * n
    snaps = [None] * n
    errors = {}
    pending = {i: 0 for i in range(n)}  # index -> attempt
    while pending:
        max_attempt = max(pending.values())
        if max_attempt:
            _backoff(plan, max_attempt)
        retry = {}
        pool_broke = False
        ex = _POOL.executor(n_workers)
        futures = []
        for index in sorted(pending):
            try:
                fut = ex.submit(_invoke, (fn, items[index], keys[index],
                                          pending[index], tspec, plan))
            except BrokenProcessPool:
                # The shared pool died between batches; treat the item
                # like an in-flight crash below.
                fut = None
            futures.append((index, fut))
        for index, future in futures:
            attempt = pending[index]
            try:
                if future is None:
                    raise BrokenProcessPool("pool broken at submit")
                tag, value, snap = future.result()
            except BrokenProcessPool:
                # A real worker death: every item in flight on this
                # pool fails together. Rebuild the pool and re-run them
                # under the same bounded-retry budget.
                pool_broke = True
                tag, value = "killed", WorkerKilled(
                    f"worker process died (task {keys[index]}, "
                    f"attempt {attempt}); retries exhausted",
                    task_index=keys[index], attempt=attempt)
            if tag == "ok":
                results[index] = value
                snaps[index] = snap
            elif tag == "killed":
                tele.inc("faults.worker_kills")
                if attempt >= plan.max_retries:
                    errors[index] = value
                else:
                    retry[index] = attempt + 1
                    tele.inc("parallel.retries")
            else:
                errors[index] = value
        if pool_broke:
            tele.inc("parallel.pool_restarts")
            _POOL.restart()
        pending = retry
    if errors:
        if quarantine is not None:
            hard = {}
            for index, e in sorted(errors.items()):
                if isinstance(e, ReproError):
                    attempts = (plan.max_retries + 1
                                if isinstance(e, WorkerKilled) else 1)
                    quarantine.admit(phase, keys[index], e,
                                     attempts=attempts)
                    _orphaned(tele, phase, keys[index], attempts)
                    results[index] = None
                else:
                    hard[index] = e
            errors = hard
        if errors:
            raise errors[min(errors)]
    return results, snaps


def run_tasks(fn, items, jobs=None, quarantine=None, phase="parallel",
              keys=None):
    """Apply ``fn`` to every item, optionally across worker processes.

    Serial (``jobs`` None/1) and parallel execution produce identical
    results, identical exceptions, and identical telemetry counter and
    histogram totals. ``fn`` must be a picklable callable of one item.

    Args:
        fn: picklable callable of one item.
        items: work items (picklable).
        jobs: worker processes (None/1 = serial, <=0 = all CPUs).
            Parallel batches share the process-wide warm pool
            (:func:`get_pool`); only the first one pays startup.
        quarantine: optional :class:`~repro.faults.Quarantine`. Items
            that fail with a :class:`~repro.common.errors.ReproError`
            (including injected faults and exhausted worker-kill
            retries) are recorded there and yield ``None`` in the
            result list instead of raising. Other exceptions always
            propagate.
        phase: quarantine phase label for failed items.
        keys: per-item identities for quarantine records (defaults to
            the item index).

    Returns the list of results in item order (``None`` holes for
    quarantined items).
    """
    items = list(items)
    keys = list(keys) if keys is not None else list(range(len(items)))
    if len(keys) != len(items):
        raise ReproError("run_tasks: keys must match items 1:1")
    plan = _faults.get_plan()
    tele = telemetry.get_registry()
    n_workers = min(resolve_jobs(jobs), len(items))
    if n_workers <= 1:
        return _run_serial(fn, items, keys, plan, quarantine, phase, tele)
    results, snaps = _run_pool(fn, items, keys, plan, quarantine, phase,
                               tele, n_workers)
    if tele.enabled:
        tele.inc("parallel.batches")
        tele.inc("parallel.tasks", len(items))
        for snap in snaps:
            if not snap:
                continue
            tele.merge_snapshot(snap)
            if snap.get("spans"):
                tele.tracer.attach(snap["spans"])
    return results
