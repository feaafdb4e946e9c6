"""Quarantine: skip-and-report instead of abort.

A production diagnosis over dozens of runs must not die because one
run, trace file or worker is corrupt. A :class:`Quarantine` collects
the units of work that failed -- with the phase, the unit's key and the
error -- so the pipeline can continue on the clean subset and report
exactly what was dropped. The differential regression suite pins the
core guarantee: diagnosing with ``k`` quarantined runs equals
diagnosing on the clean subset directly.
"""

import json
from dataclasses import asdict, dataclass

from repro import telemetry


@dataclass
class QuarantineRecord:
    """One unit of work that was dropped instead of aborting the run."""

    phase: str        # pipeline phase, e.g. "offline.collect"
    key: object       # unit identity: run seed, task index, file path
    error_type: str   # exception class name
    message: str
    attempts: int = 1  # executions tried before giving up


class Quarantine:
    """Collects dropped work units across one pipeline invocation."""

    def __init__(self):
        self.records = []

    def admit(self, phase, key, error, attempts=1):
        """Record a failed unit; returns the new record."""
        record = QuarantineRecord(phase=phase, key=key,
                                  error_type=type(error).__name__,
                                  message=str(error), attempts=attempts)
        self.records.append(record)
        telemetry.get_registry().inc("faults.quarantined")
        return record

    def keys(self, phase=None):
        """Keys of quarantined units, optionally for one phase only."""
        return [r.key for r in self.records
                if phase is None or r.phase == phase]

    def __len__(self):
        return len(self.records)

    def __bool__(self):
        # An empty quarantine is still a real (truthy) boundary; callers
        # test emptiness with len().
        return True

    def report_dict(self):
        """JSON-serialisable quarantine report."""
        return {
            "n_quarantined": len(self.records),
            "records": [asdict(r) for r in self.records],
        }

    def write_report(self, path):
        """Write the quarantine report as JSON."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.report_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    def summary(self):
        """One line per record, for CLI output."""
        lines = []
        for r in self.records:
            lines.append(f"quarantined [{r.phase}] {r.key!r}: "
                         f"{r.error_type}: {r.message} "
                         f"(after {r.attempts} attempt(s))")
        return "\n".join(lines)
