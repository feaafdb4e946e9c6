"""The ``Predictor`` protocol shared by every diagnosis engine.

The paper's Table I compares ACT's neural predictor against Aviso-,
PBI- and PSet-style schemes; this package gives all of them one
interface so the comparison is a live harness instead of one-off
analysis scripts. A :class:`Predictor`:

- ``train(program, ...)`` builds engine state from correct executions
  (the shared ``train_seed0 .. train_seed0 + n_runs - 1`` seed range);
- ``predict_batch(seqs)`` scores dependence sequences with a
  *suspicion* score in ``[0, 1]`` (higher = more likely invalid) --
  deterministic in the trained state;
- ``serialize()`` / ``deserialize()`` round-trip the trained state as
  a JSON-safe payload (``deserialize(serialize(e))`` must produce
  identical ``predict_batch`` outputs -- pinned by property tests);
- ``capabilities`` is a declarative descriptor driving the Table-I
  columns of ``repro shootout``;
- ``diagnose_report(program, ...)`` runs the engine's native diagnosis
  protocol end-to-end and maps the outcome onto a
  :class:`~repro.core.diagnosis.DiagnosisReport` whose ``candidates``
  list carries the engine's ranked root-cause report.

Dispatch runs one way: callers ``create(name).diagnose_report(...)``,
and the NN engine delegates to
:func:`~repro.core.diagnosis.diagnose_failure`, which never calls back
into this package. That keeps the registry-routed NN path
byte-identical to the direct one (reports, telemetry spans, artifacts
-- enforced by ``tests/test_engines.py``). Trained state is shared
through one keyed store (:meth:`Predictor.store_key`), in memory or on
disk (:class:`TrainedStateDir`, ``diagnose --cache-dir``).
"""

import hashlib
import os
from dataclasses import asdict, dataclass

from repro import faults as _faults
from repro import telemetry
from repro.common.errors import CheckpointError, ConfigError, EngineError
from repro.core import policy as _policy
from repro.core.config import ACTConfig
from repro.core.diagnosis import DiagnosisReport


@dataclass(frozen=True)
class EngineCapabilities:
    """What one engine needs and provides (the Table-I axes)."""

    name: str
    description: str
    #: learns a background model from correct executions
    trains_offline: bool = True
    #: failure executions consumed per diagnosis (Aviso needs several)
    needs_failure_runs: int = 1
    #: candidate space is inter-thread only (sequential bugs out of scope)
    multithreaded_only: bool = False
    #: keeps learning during deployment (ACT's adaptivity argument)
    adapts_online: bool = False
    #: serialized state is reusable across diagnoses (--cache-dir eligible)
    warmable: bool = True


def candidate(key, score, hit):
    """One ranked root-cause candidate (JSON-safe)."""
    return {"key": key, "score": float(score), "hit": bool(hit)}


def candidate_report(program_name, failed, failure_description, truth,
                     candidates, engine, applicable=True, notes=()):
    """Map an engine's ranked candidates onto a DiagnosisReport.

    ``rank``/``found`` follow the same convention as the NN path: the
    1-based position of the first candidate flagged as exposing the
    ground-truth root cause.
    """
    rank = next((i for i, c in enumerate(candidates, start=1)
                 if c["hit"]), None)
    report = DiagnosisReport(
        program=program_name, failed=failed, found=rank is not None,
        rank=rank, debug_buffer_position=None, filter_pct=0.0,
        n_debug_entries=0, debug_overflowed=False,
        root_cause=set(truth) if truth else None,
        failure_description=failure_description,
        engine=engine, applicable=applicable,
        candidates=list(candidates))
    report.notes.extend(notes)
    return report


class Predictor:
    """Base class every registered engine derives from.

    Subclasses set ``capabilities`` and implement :meth:`train`,
    :meth:`predict_batch`, :meth:`_state_payload`, :meth:`load_state`
    and :meth:`report_trained`. The template :meth:`diagnose_report`
    then provides store reuse, telemetry spans and the shared
    train-if-cold flow for free.
    """

    capabilities = None  # subclasses assign an EngineCapabilities

    def __init__(self, config=None):
        self.config = config or ACTConfig()

    @property
    def name(self):
        return self.capabilities.name

    def fingerprint(self):
        """JSON-safe identity of the engine *kind* (not its state).

        :meth:`store_key` includes it, so two engines on the same
        workload never share a store entry.
        """
        return {"engine": self.name}

    # -- protocol: train / predict_batch / serialize / deserialize -----

    @property
    def trained(self):
        raise NotImplementedError

    def train(self, program, n_runs=10, seed0=0, quarantine=None,
              **params):
        """Build engine state from ``n_runs`` correct executions."""
        raise NotImplementedError

    def predict_batch(self, seqs):
        """Suspicion scores (higher = more suspicious) per sequence."""
        raise NotImplementedError

    def serialize(self):
        """JSON-safe payload of the trained state."""
        if not self.trained:
            raise EngineError(
                f"engine {self.name!r} has no trained state to serialize",
                engine=self.name)
        return {"engine": self.name, "config": asdict(self.config),
                "state": self._state_payload()}

    @classmethod
    def deserialize(cls, payload, config=None):
        """Rebuild an engine from :meth:`serialize` output."""
        if config is None and payload.get("config"):
            config = ACTConfig(**payload["config"])
        engine = cls(config=config)
        engine.load_state(payload)
        return engine

    def load_state(self, payload):
        """Instance-level inverse of :meth:`serialize`."""
        name = payload.get("engine")
        if name != self.name:
            raise EngineError(
                f"engine {self.name!r} cannot load state serialized by "
                f"{name!r}", engine=name)
        self._load_state_payload(payload["state"])

    def _state_payload(self):
        raise NotImplementedError

    def _load_state_payload(self, state):
        raise NotImplementedError

    # -- diagnosis ------------------------------------------------------

    def store_key(self, store, program, n_train_runs, train_seed0,
                  correct_params, faults=None):
        """This engine's trained-state key in ``store``, or ``None``.

        A store is any mapping read with ``get`` and written with item
        assignment; its values are :meth:`serialize` payloads. The key
        is the canonical JSON of everything that shapes training: the
        engine fingerprint, the config, the program (a generated
        program's name does not encode its shape, so its
        ``ProgramSpec`` joins the name), the training seed range and
        the normalised ``correct_params``. Reuse is unsafe -- ``None``
        -- under any fault plan, which can damage training runs.
        """
        plan = faults if faults is not None else _faults.get_plan()
        if store is None or plan != _faults.ZERO_PLAN:
            return None
        spec = getattr(program, "spec", None)
        return _canonical_json({
            "engine": self.fingerprint(), "config": asdict(self.config),
            "program": getattr(program, "name", "?"),
            "spec": asdict(spec) if spec is not None else None,
            "n_train_runs": n_train_runs, "train_seed0": train_seed0,
            "correct_params": dict(correct_params or {"buggy": False})})

    def report_trained(self, program, failure_seed=12345,
                       n_pruning_runs=20, pruning_seed0=100,
                       failure_params=None, correct_params=None,
                       pruning_params=None, root_cause=None, quarantine=None):
        """Diagnose with existing state (requires :attr:`trained`)."""
        raise NotImplementedError

    def diagnose_report(self, program, n_train_runs=10, train_seed0=0,
                        failure_seed=12345, n_pruning_runs=20,
                        pruning_seed0=100, failure_params=None,
                        correct_params=None, pruning_params=None,
                        root_cause=None, faults=None, quarantine=None,
                        policy=None, store=None):
        """Train if cold, then diagnose; the engine-routed entry point.

        ``store`` holds trained state across diagnoses (see
        :meth:`store_key`): a hit skips training, a miss stores the
        freshly trained state. An enabled adaptive ``policy`` is
        NN-only and raises here.
        """
        active_policy = policy if policy is not None else _policy.get_policy()
        if active_policy.enabled:
            raise ConfigError(
                f"adaptive policy is NN-path-only; engine {self.name!r} "
                "does not support --policy")
        plan = faults if faults is not None else _faults.get_plan()
        tele = telemetry.get_registry()
        with _faults.use_plan(plan):
            with tele.span("engine.diagnose", engine=self.name,
                           program=getattr(program, "name", "?")):
                report = self._diagnose(
                    program, store, n_train_runs=n_train_runs,
                    train_seed0=train_seed0, failure_seed=failure_seed,
                    n_pruning_runs=n_pruning_runs,
                    pruning_seed0=pruning_seed0,
                    failure_params=failure_params,
                    correct_params=dict(correct_params or {"buggy": False}),
                    pruning_params=pruning_params, root_cause=root_cause,
                    quarantine=quarantine)
                if tele.enabled:
                    tele.inc("engine.diagnoses")
                if quarantine is not None and len(quarantine):
                    report.quarantine = quarantine.report_dict()
                return report

    def _diagnose(self, program, store, n_train_runs, train_seed0,
                  quarantine, correct_params, **kwargs):
        """Load this engine's state from ``store`` or train it, then
        diagnose with it (runs inside the ``engine.diagnose`` span)."""
        key = self.store_key(store, program, n_train_runs, train_seed0,
                             correct_params)
        cached = store.get(key) if key is not None else None
        if cached is not None:
            self.load_state(cached)
        if not self.trained:
            tele = telemetry.get_registry()
            with tele.span("engine.train", engine=self.name,
                           n_runs=n_train_runs):
                self.train(program, n_runs=n_train_runs, seed0=train_seed0,
                           quarantine=quarantine, **correct_params)
            if tele.enabled:
                tele.inc("engine.trainings")
        if key is not None and cached is None:
            store[key] = self.serialize()
        return self.report_trained(program, correct_params=correct_params,
                                   quarantine=quarantine, **kwargs)


def _canonical_json(payload):
    """Canonical serialisation: sorted keys, no whitespace."""
    import json  # a plain diagnosis, which keys no store, never loads it

    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TrainedStateDir:
    """``diagnose --cache-dir``: trained state on disk, one file per key.

    Plugs into the engines' store interface (``get`` plus item
    assignment, keyed by :meth:`~repro.engines.Predictor.store_key`).
    Each entry is one JSON file, ``DIR/<sha256(key)>.json``, holding the
    key, the ``Predictor.serialize`` payload and a SHA-256 checksum over
    both. A save is atomic (a unique tmp file, fsync, ``os.replace``),
    so concurrent or killed writers leave a whole entry or none. A
    corrupt, edited or colliding entry is refused with
    :class:`~repro.common.errors.CheckpointError`, never loaded.
    """

    #: The entry layout's tags, unchanged since the layout came in, so
    #: cache dirs written by earlier builds still hit.
    FORMAT = 1
    KIND = "trained-state"

    def __init__(self, path):
        self.path = path

    def _file(self, key):
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self.path, f"{digest}.json")

    @staticmethod
    def _checksum(body):
        return hashlib.sha256(
            _canonical_json(body).encode("utf-8")).hexdigest()

    def get(self, key):
        """Stored payload for ``key`` (None on miss); counts the lookup."""
        path = self._file(key)
        tele = telemetry.get_registry()
        if not os.path.exists(path):
            tele.inc("cache.misses")
            return None
        state = self._load(path, key)
        tele.inc("cache.hits")
        return state

    def _load(self, path, key):
        """The payload stored at ``path`` under ``key``; raises
        CheckpointError for any entry it cannot trust."""
        import json

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
        if not isinstance(body, dict) or body.get("format") != self.FORMAT:
            raise CheckpointError(
                f"{path}: unsupported checkpoint format "
                f"{body.get('format') if isinstance(body, dict) else body!r}",
                path=path)
        for field in ("kind", "fingerprint", "phases", "checksum"):
            if field not in body:
                raise CheckpointError(
                    f"{path}: corrupt checkpoint (missing {field!r})",
                    path=path)
        signed = {k: body[k] for k in ("kind", "fingerprint", "phases")}
        if body["checksum"] != self._checksum(signed):
            raise CheckpointError(
                f"{path}: checkpoint checksum mismatch "
                "(file is corrupt or was edited)", path=path)
        if body["kind"] != self.KIND:
            raise CheckpointError(
                f"{path}: checkpoint is a {body['kind']!r} snapshot, "
                f"not {self.KIND!r}", path=path)
        if body["fingerprint"] != key:
            raise CheckpointError(
                f"{path}: checkpoint fingerprint does not match this "
                "run (different program, config, seeds or run counts)",
                path=path)
        phases = body["phases"]
        if not isinstance(phases, dict) or phases.get("state") is None:
            raise CheckpointError(
                f"{path}: corrupt checkpoint (no trained state)", path=path)
        return phases["state"]

    def __setitem__(self, key, payload):
        """Atomically store ``payload`` under ``key``; counts the save."""
        import json
        import tempfile

        os.makedirs(self.path, exist_ok=True)
        path = self._file(key)
        # The JSON round trip turns tuples into lists and int keys into
        # strings, so the checksum is over exactly what a load reads.
        signed = json.loads(_canonical_json(
            {"kind": self.KIND, "fingerprint": key,
             "phases": {"state": payload}}))
        body = dict(signed, format=self.FORMAT,
                    checksum=self._checksum(signed))
        # A tmp name unique per call: two processes filling one entry
        # each rename a whole file into place.
        fd, tmp = tempfile.mkstemp(dir=self.path,
                                   prefix=os.path.basename(path) + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(body, f, sort_keys=True)
                f.write("\n")
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        telemetry.get_registry().inc("cache.saves")


def report_candidates(report):
    """A report's ranked candidates, derived from findings for the NN.

    Engine reports carry ``candidates`` directly; NN reports expose
    their ranked findings as ``store->load`` keys (first occurrence
    wins), which gives the ensemble a uniform key space to rank-merge.
    """
    if report.candidates:
        return list(report.candidates)
    truth = report.root_cause or set()
    out = []
    seen = set()
    for f in report.findings:
        dep = f.mismatch_dep or f.seq[-1]
        key = f"{dep.store_pc:#x}->{dep.load_pc:#x}"
        if key in seen:
            continue
        seen.add(key)
        hit = any((d.store_pc, d.load_pc) in truth
                  for d in f.seq[f.matched:])
        out.append(candidate(key, 1.0 - float(f.output), hit))
    return out
