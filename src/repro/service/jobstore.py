"""Durable FIFO job queue for the serve daemon.

Jobs move ``queued -> running -> done|failed``. Every transition is
persisted through the checksummed :class:`~repro.faults.Checkpoint`
(atomic tmp-file + rename, checksum-verified loads), so a daemon killed
at any instant leaves a consistent store. On restart,
:meth:`JobStore.open` demotes ``running`` jobs back to ``queued`` --
the job's request is pure data and re-running it is deterministic, so
re-execution after a crash yields the result the killed run would have
produced.

Job ids are ``j1``, ``j2``, ... in submission order; the queue is
strictly FIFO. The store is daemon-private: the daemon is the only
writer, clients only ever see jobs through the socket protocol.

Retention: finished (``done``/``failed``) jobs are kept up to
``history_limit`` (default :data:`DEFAULT_HISTORY_LIMIT`); beyond
that the *oldest* finished jobs are pruned -- dropped from memory and
from the persisted form, so a long-lived daemon neither grows without
bound nor pays O(total-history) serialisation per transition. Queued
and running jobs are never pruned. A pruned job id answers
:class:`JobNotFound`; the count of pruned jobs survives in the
checkpoint (``pruned``), as does the id counter, so ids never recycle.
"""

import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.common.errors import JobNotFound, ReproError

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: The jobstore checkpoint identity. The fingerprint is constant: a
#: store file belongs to whatever daemon points at it, not to one
#: particular job mix.
STORE_KIND = "jobstore"
STORE_FINGERPRINT = {"store": "repro.service.jobstore", "v": 1}

#: Finished jobs retained before the oldest are pruned. Generous enough
#: that a client polling ``wait_for`` never loses the job it is
#: watching under any sane submit rate; small enough that the daemon's
#: memory and per-transition checkpoint writes stay bounded.
DEFAULT_HISTORY_LIMIT = 256


@dataclass
class Job:
    """One submitted operation and everything known about it."""

    id: str
    request: dict                 # ops.request_to_payload form
    state: str = JOB_QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Outcome fields once finished: {"rc", "out", "err", "payload"}.
    result: Optional[dict] = None
    #: Telemetry run-profile dict for the job (the status payload).
    profile: Optional[dict] = None
    #: Times the job was found mid-run at daemon startup and requeued.
    requeues: int = 0

    @property
    def kind(self):
        return self.request.get("kind", "?")

    def to_payload(self):
        return asdict(self)

    @classmethod
    def from_payload(cls, payload):
        return cls(**payload)

    def summary(self):
        """The compact status row clients see (no result/profile body)."""
        return {
            "id": self.id, "kind": self.kind, "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "requeues": self.requeues,
            "rc": self.result.get("rc") if self.result else None,
        }


class JobStore:
    """FIFO queue of :class:`Job` records, durable via a Checkpoint.

    Pass ``path=None`` for a purely in-memory store (tests, throwaway
    daemons); every mutation is then just not persisted.
    ``history_limit`` caps retained finished jobs (``None`` =
    unlimited; must be >= 1 otherwise, since a client must be able to
    read back the result of the job it just watched finish).
    """

    def __init__(self, path=None, clock=time.time,
                 history_limit=DEFAULT_HISTORY_LIMIT):
        if history_limit is not None and history_limit < 1:
            raise ReproError(f"history limit must be >= 1 (or None for "
                             f"unlimited), got {history_limit}")
        self._clock = clock
        self._history_limit = history_limit
        self._jobs = {}
        self._order = []
        self._next_id = 1
        self.pruned = 0
        self._checkpoint = None
        if path is not None:
            # Imported here: the CLI reads DEFAULT_HISTORY_LIMIT at start-up.
            from repro.faults.checkpoint import Checkpoint

            self._checkpoint = Checkpoint.open(path, STORE_KIND,
                                               STORE_FINGERPRINT)
            self._restore()

    # -- persistence ---------------------------------------------------

    def _restore(self):
        """Rebuild from the checkpoint; requeue jobs found running."""
        meta = self._checkpoint.phases.get("meta") or {}
        self.pruned = int(meta.get("pruned", 0))
        self._next_id = max(self._next_id, int(meta.get("next_id", 1)))
        stored = self._checkpoint.phases.get("jobs")
        if not stored:
            return
        for payload in stored:
            job = Job.from_payload(payload)
            if job.state == JOB_RUNNING:
                # The previous daemon died mid-job; the request is pure
                # data, so run it again from scratch.
                job.state = JOB_QUEUED
                job.started_at = None
                job.profile = None
                job.requeues += 1
            self._jobs[job.id] = job
            self._order.append(job.id)
            numeric = int(job.id[1:]) if job.id[1:].isdigit() else 0
            self._next_id = max(self._next_id, numeric + 1)

    def _persist(self):
        if self._checkpoint is None:
            return
        self._checkpoint.put(
            "meta", {"next_id": self._next_id, "pruned": self.pruned},
            save=False)
        self._checkpoint.put(
            "jobs", [self._jobs[jid].to_payload() for jid in self._order])

    def _prune(self):
        """Drop the oldest finished jobs beyond the history limit."""
        if self._history_limit is None:
            return
        finished = [jid for jid in self._order
                    if self._jobs[jid].state in (JOB_DONE, JOB_FAILED)]
        excess = len(finished) - self._history_limit
        for jid in finished[:max(0, excess)]:
            del self._jobs[jid]
            self._order.remove(jid)
            self.pruned += 1

    @property
    def path(self):
        return self._checkpoint.path if self._checkpoint else None

    # -- queue operations ----------------------------------------------

    def submit(self, request_payload):
        """Append a new queued job; returns the :class:`Job`."""
        job = Job(id=f"j{self._next_id}", request=request_payload,
                  submitted_at=self._clock())
        self._next_id += 1
        self._jobs[job.id] = job
        self._order.append(job.id)
        self._persist()
        return job

    def get(self, job_id):
        """The job with ``job_id``; raises :class:`JobNotFound`."""
        job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFound(f"no such job {job_id!r}", job_id=job_id)
        return job

    def next_queued(self):
        """The oldest queued job, or None (FIFO order)."""
        for jid in self._order:
            job = self._jobs[jid]
            if job.state == JOB_QUEUED:
                return job
        return None

    def mark_running(self, job_id):
        job = self.get(job_id)
        job.state = JOB_RUNNING
        job.started_at = self._clock()
        self._persist()
        return job

    def finish(self, job_id, outcome, profile=None):
        """Record a finished job (``done`` on rc==0/1, ``failed`` on 2+).

        rc 1 is a *successful* run with a negative verdict (diagnosis
        did not rank the root cause) -- the operation itself worked, so
        the job is ``done``; only operational errors (rc >= 2) fail it.
        """
        job = self.get(job_id)
        job.state = JOB_DONE if outcome.rc < 2 else JOB_FAILED
        job.finished_at = self._clock()
        job.result = {"rc": outcome.rc, "out": outcome.out,
                      "err": outcome.err, "payload": outcome.payload}
        job.profile = profile
        self._prune()
        self._persist()
        return job

    def fail(self, job_id, message):
        """Record an operational failure that never produced an Outcome."""
        job = self.get(job_id)
        job.state = JOB_FAILED
        job.finished_at = self._clock()
        job.result = {"rc": 2, "out": "", "err": message, "payload": {}}
        self._prune()
        self._persist()
        return job

    # -- views ----------------------------------------------------------

    def jobs(self):
        """All jobs in submission order."""
        return [self._jobs[jid] for jid in self._order]

    def counts(self):
        """State -> count summary (plus pruned finished jobs)."""
        out = {JOB_QUEUED: 0, JOB_RUNNING: 0, JOB_DONE: 0, JOB_FAILED: 0}
        for job in self._jobs.values():
            out[job.state] = out.get(job.state, 0) + 1
        out["pruned"] = self.pruned
        return out

    def __len__(self):
        return len(self._jobs)
