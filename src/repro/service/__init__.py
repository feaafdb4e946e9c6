"""Diagnosis-as-a-service: the ``repro serve`` daemon and its clients.

Every diagnosis used to be a cold-start CLI process -- retrain, replay,
exit -- discarding exactly the state (trained per-thread networks,
encoders, the warm worker pool) that makes repeat diagnoses cheap. This
package turns the pipeline into an always-on local service:

- :mod:`repro.service.ops` -- the command bodies of ``diagnose`` /
  ``corpus`` / ``trace`` / ``profile`` as plain request/response
  dataclasses. The CLI and the daemon call *identical* code, so a job
  submitted over the socket produces byte-identical output to the
  equivalent cold CLI invocation.
- :mod:`repro.service.protocol` -- the JSON-lines message protocol
  spoken over a local UNIX socket.
- :mod:`repro.service.jobstore` -- the FIFO job queue, durable via the
  checksummed :class:`~repro.faults.Checkpoint` (a killed daemon
  resumes queued/running jobs on restart).
- :mod:`repro.service.server` -- the daemon: accept loop, scheduler,
  per-job telemetry (the run-profile JSON is the job status payload)
  and the LRU warm-state cache of trained networks/encoders.
- :mod:`repro.service.client` -- ``repro submit`` / ``status`` /
  ``result`` / ``shutdown`` helpers.

See ``docs/service.md`` for the protocol and job lifecycle. The names
below are imported from their submodules on first access.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.service.jobstore": ("JOB_DONE", "JOB_FAILED", "JOB_QUEUED",
                               "JOB_RUNNING", "Job", "JobStore"),
    "repro.service.ops": ("CorpusRequest", "DiagnoseRequest", "Outcome",
                          "ProfileRequest", "TraceRequest",
                          "WarmStateCache", "request_from_payload",
                          "request_to_payload", "run_request"),
    "repro.service.server": ("Server",),
    "repro.service.client": ("ping", "shutdown", "status", "submit",
                             "wait_for"),
})
