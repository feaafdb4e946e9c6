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
first parallel call in a process pays worker startup, and only a
process that fans out imports ``concurrent.futures`` at all. Each item
is its own submission, so an idle worker takes the next item whatever
the others cost (a pooled item is a whole diagnosis or a grid point's
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
warm). A task lost for good (its worker died through every re-run, or it
was quarantined) leaves a closed span flagged ``orphaned`` at its
dispatch site instead of a dangling tree.

Failures are handled per item:

- the active :class:`~repro.faults.FaultPlan` propagates into pool
  workers, so a run a worker collects carries the same trace damage
  as the serial run;
- a *genuine* worker crash (the pool breaks, e.g. a worker was
  OOM-killed) takes down every item in flight on that pool; the shared
  pool is rebuilt (it comes back warm for subsequent batches) and the
  unfinished items re-run, at most :data:`POOL_RERUNS` times, before
  :class:`~repro.common.errors.WorkerKilled` is raised for them;
- with a :class:`~repro.faults.Quarantine`, items that fail with a
  :class:`~repro.common.errors.ReproError` (a ``WorkerKilled`` included)
  are recorded and yield ``None`` instead of aborting the whole batch.

Work functions and items must be picklable: module-level functions with
plain-data payloads. Callers pass ``jobs=None``/``1`` for the plain
serial loop (the default everywhere) or ``jobs=N``; ``jobs<=0`` means
one worker per CPU.
"""

import atexit
import os

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
            from concurrent.futures import ProcessPoolExecutor

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


#: How often a batch re-runs the items in flight on a pool that broke
#: before it gives them up as :class:`~repro.common.errors.WorkerKilled`.
POOL_RERUNS = 2


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
    carry a previous batch's globals) and records telemetry into a
    child registry. The outcome comes back tagged so the parent applies
    the quarantine per item.
    """
    fn, item, key, tspec, plan = payload
    try:
        with _faults.use_plan(plan):
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
    except Exception as e:  # noqa: BLE001 - re-raised in the parent
        return "error", e, None


def _lose(quarantine, tele, phase, key, error, attempts):
    """Quarantine a failed item; its task span closes ``orphaned``."""
    quarantine.admit(phase, key, error, attempts=attempts)
    if tele.enabled:
        tele.tracer.orphan("parallel.task", phase=phase, key=key,
                           attempts=attempts)


def _run_serial(fn, items, keys, quarantine, phase, tele):
    """The serial loop, with the pool's quarantine semantics."""
    results = []
    for item, key in zip(items, keys):
        try:
            with tele.span("parallel.task", phase=phase, key=key):
                results.append(fn(item))
        except ReproError as e:
            if quarantine is None:
                raise
            _lose(quarantine, tele, phase, key, e, 1)
            results.append(None)
    return results


def _run_pool(fn, items, keys, quarantine, phase, tele, n_workers):
    """Dispatch items across the warm pool, rebuilding it if it breaks."""
    from concurrent.futures.process import BrokenProcessPool

    tspec = _tele_spec(tele, phase)
    plan = _faults.get_plan()
    n = len(items)
    results = [None] * n
    snaps = [None] * n
    errors = {}
    pending = list(range(n))
    for _ in range(POOL_RERUNS + 1):
        ex = _POOL.executor(n_workers)
        futures = []
        for index in pending:
            try:
                fut = ex.submit(_invoke, (fn, items[index], keys[index],
                                          tspec, plan))
            except BrokenProcessPool:
                # The shared pool died between batches; treat the item
                # like an in-flight crash below.
                fut = None
            futures.append((index, fut))
        broken = []
        for index, future in futures:
            try:
                if future is None:
                    raise BrokenProcessPool("pool broken at submit")
                tag, value, snap = future.result()
            except BrokenProcessPool:
                # A real worker death: every item in flight on this
                # pool fails together.
                broken.append(index)
                continue
            if tag == "ok":
                results[index] = value
                snaps[index] = snap
            else:
                errors[index] = value
        if not broken:
            break
        tele.inc("parallel.pool_restarts")
        _POOL.restart()
        pending = broken
    else:
        for index in pending:
            errors[index] = WorkerKilled(
                f"worker process died (task {keys[index]}, attempt "
                f"{POOL_RERUNS}); re-runs exhausted",
                task_index=keys[index], attempt=POOL_RERUNS)
    if quarantine is not None:
        for index in sorted(errors):
            e = errors[index]
            if isinstance(e, ReproError):
                _lose(quarantine, tele, phase, keys[index], e,
                      POOL_RERUNS + 1 if isinstance(e, WorkerKilled) else 1)
                del errors[index]
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
            (a worker that died through every pool re-run included)
            are recorded there and yield ``None`` in the result list
            instead of raising. Other exceptions always propagate.
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
    tele = telemetry.get_registry()
    n_workers = min(resolve_jobs(jobs), len(items))
    if n_workers <= 1:
        return _run_serial(fn, items, keys, quarantine, phase, tele)
    results, snaps = _run_pool(fn, items, keys, quarantine, phase, tele,
                               n_workers)
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
