"""Checksummed JSON checkpoints for long diagnosis runs.

A :class:`Checkpoint` is a phase-keyed store persisted as a single JSON
document with a SHA-256 checksum over its canonical serialisation.
Writes are atomic (a unique tmp file + ``os.replace``), so a run killed
mid-save leaves either the previous complete snapshot or the new one --
never a torn file. Loads verify the checksum and refuse corrupt or truncated
files with :class:`~repro.common.errors.CheckpointError`.

A checkpoint also carries a *fingerprint*: the JSON-normalised identity
of the computation it belongs to (program, config, seeds, run counts).
``Checkpoint.open`` refuses to resume a checkpoint whose fingerprint
differs from the caller's -- resuming a 20-run diagnosis from a 10-run
checkpoint would silently change the verdicts.
"""

import hashlib
import json
import os
import tempfile

from repro import telemetry
from repro.common.errors import CheckpointError

FORMAT_VERSION = 1


def canonical_json(payload):
    """Canonical serialisation: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload):
    """SHA-256 hex digest of the canonical serialisation."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def normalize(payload):
    """JSON round-trip a payload (tuples -> lists, int keys -> str).

    Fingerprints are compared between in-memory values and values read
    back from disk; normalising both sides first makes the comparison
    representation-independent.
    """
    return json.loads(canonical_json(payload))


class Checkpoint:
    """Phase-keyed, checksummed JSON snapshot of a long run."""

    def __init__(self, path, kind, fingerprint, phases=None):
        self.path = path
        self.kind = kind
        self.fingerprint = normalize(fingerprint)
        self.phases = dict(phases or {})
        self.resumed = False

    # -- persistence ---------------------------------------------------

    def _body(self):
        return {"kind": self.kind, "fingerprint": self.fingerprint,
                "phases": self.phases}

    def save(self):
        """Atomically persist the snapshot (tmp file + rename).

        The tmp file is unique per call, so concurrent saves to one
        path (two processes filling the same cache entry) never share
        it: each renames a complete file into place.
        """
        body = {"format": FORMAT_VERSION}
        body.update(self._body())
        body["checksum"] = payload_checksum(self._body())
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(self.path) or ".",
            prefix=os.path.basename(self.path) + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(body, f, sort_keys=True)
                f.write("\n")
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        telemetry.get_registry().inc("checkpoint.saves")

    @classmethod
    def load(cls, path):
        """Load and verify a checkpoint; raises CheckpointError when bad."""
        try:
            with open(path, "r", encoding="utf-8") as f:
                body = json.load(f)
        except OSError as e:
            raise CheckpointError(f"{path}: cannot read checkpoint ({e})",
                                  path=path)
        except ValueError as e:  # json.JSONDecodeError subclasses ValueError
            raise CheckpointError(
                f"{path}: corrupt checkpoint (not valid JSON: {e})",
                path=path)
        if not isinstance(body, dict) or body.get("format") != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint format "
                f"{body.get('format') if isinstance(body, dict) else body!r}",
                path=path)
        for field in ("kind", "fingerprint", "phases", "checksum"):
            if field not in body:
                raise CheckpointError(
                    f"{path}: corrupt checkpoint (missing {field!r})",
                    path=path)
        expected = payload_checksum({"kind": body["kind"],
                                     "fingerprint": body["fingerprint"],
                                     "phases": body["phases"]})
        if body["checksum"] != expected:
            raise CheckpointError(
                f"{path}: checkpoint checksum mismatch "
                "(file is corrupt or was edited)", path=path)
        return cls(path, body["kind"], body["fingerprint"], body["phases"])

    @classmethod
    def open(cls, path, kind, fingerprint):
        """Resume ``path`` if it exists (and matches), else start fresh.

        An existing checkpoint must carry the same kind and fingerprint;
        anything else raises CheckpointError rather than silently mixing
        two different computations.
        """
        if os.path.exists(path):
            cp = cls.load(path)
            if cp.kind != kind:
                raise CheckpointError(
                    f"{path}: checkpoint is a {cp.kind!r} snapshot, "
                    f"not {kind!r}", path=path)
            if cp.fingerprint != normalize(fingerprint):
                raise CheckpointError(
                    f"{path}: checkpoint fingerprint does not match this "
                    "run (different program, config, seeds or run counts)",
                    path=path)
            cp.resumed = True
            telemetry.get_registry().inc("checkpoint.resumes")
            return cp
        return cls(path, kind, fingerprint)

    # -- phase store ---------------------------------------------------

    def get(self, phase):
        """Payload stored for ``phase``, or None."""
        payload = self.phases.get(phase)
        if payload is not None:
            telemetry.get_registry().inc("checkpoint.phases_reused")
        return payload

    def put(self, phase, payload, save=True):
        """Store a phase payload; persists immediately unless ``save=False``."""
        self.phases[phase] = normalize(payload)
        if save:
            self.save()

    def __contains__(self, phase):
        return phase in self.phases
