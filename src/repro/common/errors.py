"""Exception types used across the package.

Every exception that carries context beyond its message implements
``__reduce__``: the default ``Exception`` reduce protocol re-raises
with ``args`` only, which silently drops extra attributes whenever an
error crosses a process-pool boundary (the ``--jobs`` orchestration)
or is persisted and re-raised. ``SimulatedFailure`` had this bug once;
``tests/test_common.py`` round-trip-pickles every type here so no new
exception can reintroduce it.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulatedFailure(ReproError):
    """Raised by a workload when the modelled software failure occurs.

    Carries enough context for the diagnosis pipeline: which thread
    failed, a human-readable description, and (optionally) the program
    counter at which the failure manifested.
    """

    def __init__(self, description, tid=None, pc=None):
        super().__init__(description)
        self.description = description
        self.tid = tid
        self.pc = pc

    def __reduce__(self):
        # Exception's default reduce re-raises with ``args`` only, which
        # would drop tid/pc when a failure crosses a process-pool
        # boundary (the --jobs run orchestration).
        return (self.__class__, (self.description, self.tid, self.pc))


class ConfigError(ReproError):
    """Raised when a configuration object is inconsistent."""


class TraceError(ReproError):
    """Raised on malformed traces or trace files."""


class FaultInjected(ReproError):
    """Raised when a :class:`~repro.faults.FaultPlan` site fires.

    Carries the injection site name and the deterministic key that
    fired, so quarantine reports can say exactly which planned fault
    took a unit of work down.
    """

    def __init__(self, description, site=None, key=None):
        super().__init__(description)
        self.description = description
        self.site = site
        self.key = key

    def __reduce__(self):
        return (self.__class__, (self.description, self.site, self.key))


class WorkerKilled(FaultInjected):
    """A parallel worker died mid-task (injected or real).

    ``task_index`` is the item's position in the dispatched batch and
    ``attempt`` the retry attempt that died; both cross the process-pool
    boundary intact so the parent's bounded-retry loop can account for
    them.
    """

    def __init__(self, description, task_index=None, attempt=None):
        super().__init__(description, site="worker_kill",
                         key=(task_index, attempt))
        self.task_index = task_index
        self.attempt = attempt

    def __reduce__(self):
        return (self.__class__, (self.description, self.task_index,
                                 self.attempt))


class CheckpointError(ReproError):
    """Raised on unreadable, corrupt or mismatched checkpoint files."""

    def __init__(self, description, path=None):
        super().__init__(description)
        self.description = description
        self.path = path

    def __reduce__(self):
        return (self.__class__, (self.description, self.path))


class EngineError(ReproError):
    """Raised on unknown predictor-engine names or invalid engine use.

    ``engine`` is the offending name and ``known`` the tuple of names
    registered at raise time, so every message (CLI, corpus)
    can steer the user to a valid ``--engine`` value.
    """

    def __init__(self, description, engine=None, known=None):
        super().__init__(description)
        self.description = description
        self.engine = engine
        self.known = tuple(known) if known is not None else None

    def __reduce__(self):
        return (self.__class__, (self.description, self.engine, self.known))
