"""Adaptive tracking policy: sampling, load-shedding, suspicion tightening.

The paper's headline result is *adaptive* communication tracking -- the
AM does not trace every dependence unconditionally; it sheds load to
keep overhead near 8% and tightens coverage where diagnosis needs it.
This module is that layer for the reproduction. A :class:`PolicySpec`
composes three knobs:

1. **Rate sampling** -- trace a fraction ``rate`` of dependences. Each
   decision is a pure function of ``(seed, site, key)`` hashed through
   blake2b exactly like :mod:`repro.faults.plan`, so the same policy
   admits the same dependences no matter how work is ordered or batched
   across ``--jobs`` workers.
2. **Load-shedding backoff** -- when the NN pipeline's input FIFO runs
   hot (mean occupancy above ``backoff_threshold`` over a
   ``backoff_window``-observation control window), the effective rate
   is multiplied by ``backoff_rate`` until the pressure clears. The
   signal is the sim's deterministic FIFO-occupancy/stall stream
   (:mod:`repro.sim.machine`), mirrored into the
   ``sim.fifo_occupancy`` / ``sim.fifo_stalls`` telemetry.
3. **Suspicion-directed tightening** -- dependences touching a PC the
   diagnosis engine already flagged as suspicious
   (:func:`suspicious_pcs_from_report`, fed by
   ``DiagnosisReport.candidates``/``findings``) are *always* traced,
   at full rate, even while shedding. The feedback loop that keeps a
   sampled deployment useful for the bug it is chasing.

The regression contract (``tests/test_policy.py``): :data:`NULL_POLICY`
-- ``rate=1.0``, backoff disabled -- is byte-identical to the
policy-free pipeline everywhere (reports, telemetry, trace files), and
costs one attribute check per dependence.
"""

from contextlib import contextmanager
from dataclasses import dataclass, fields

from repro import telemetry
from repro.common.errors import ConfigError
from repro.faults.plan import _hash01

#: Decision-site names (the ``site`` component of every hash draw).
#: ``dep`` gates live dependences entering an AM.
SITES = ("dep",)


@dataclass(frozen=True)
class PolicySpec:
    """Seeded, deterministic sampling/throttle policy for the AM.

    ``rate`` is the fraction of dependences traced (1.0 = every one,
    today's behaviour). ``backoff`` enables load shedding:
    ``backoff_window`` FIFO-occupancy observations are averaged into
    one control decision, and while the mean exceeds
    ``backoff_threshold`` (a fraction of the FIFO depth) the effective
    rate is ``rate * backoff_rate``. ``suspicious_pcs`` lists PCs whose
    dependences are always traced, regardless of rate or shedding.

    A spec with ``rate=1.0``, backoff off is *disabled*
    (``enabled`` is False): every consumer skips the policy path
    entirely, which is what the differential suite pins byte-identical
    to the pre-policy pipeline.
    """

    seed: int = 0
    rate: float = 1.0
    backoff: bool = False
    backoff_threshold: float = 0.75
    backoff_rate: float = 0.5
    backoff_window: int = 64
    suspicious_pcs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "suspicious_pcs",
                           tuple(sorted(int(pc)
                                        for pc in set(self.suspicious_pcs))))
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"policy rate={self.rate} not in [0, 1]")
        if not 0.0 <= self.backoff_threshold <= 1.0:
            raise ConfigError(f"backoff_threshold={self.backoff_threshold} "
                              "not in [0, 1]")
        if not 0.0 <= self.backoff_rate <= 1.0:
            raise ConfigError(f"backoff_rate={self.backoff_rate} "
                              "not in [0, 1]")
        if self.backoff_window < 1:
            raise ConfigError("backoff_window must be >= 1")
        # Precomputed so the hot path (one check per dependence) pays a
        # single attribute read when the policy can never act. A
        # suspicious set alone does not enable: with rate 1.0 and no
        # backoff there is nothing to tighten *from*.
        enabled = self.rate < 1.0 or self.backoff
        object.__setattr__(self, "enabled", enabled)
        object.__setattr__(self, "_suspicious",
                           frozenset(self.suspicious_pcs))

    # ------------------------------------------------------------------

    def uniform(self, site, *key):
        """The deterministic ``[0, 1)`` draw for one decision point."""
        return _hash01(self.seed, site, key)

    def covers(self, store_pc, load_pc):
        """Does the suspicion-tightening set cover this dependence?"""
        sus = self._suspicious
        return bool(sus) and (store_pc in sus or load_pc in sus)

    def state(self):
        """Fresh per-stream controller state (one per AM)."""
        return PolicyState(self)

    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec):
        """Parse a CLI spec like ``"rate=0.5,seed=3,backoff=1"``.

        Keys are :class:`PolicySpec` field names; ``suspicious_pcs``
        takes ``;``-separated PCs (``suspicious_pcs=4096;8200``).
        """
        kwargs = {}
        known = {f.name: f for f in fields(cls)}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if "=" not in part:
                raise ConfigError(f"bad policy spec entry {part!r} "
                                  "(expected key=value)")
            key, value = (s.strip() for s in part.split("=", 1))
            if key not in known:
                raise ConfigError(
                    f"unknown policy spec key {key!r} "
                    f"(known: {', '.join(sorted(known))})")
            if key == "suspicious_pcs":
                kwargs[key] = tuple(int(v, 0) for v in value.split(";") if v)
            elif key in ("seed", "backoff_window"):
                kwargs[key] = int(value)
            elif key == "backoff":
                kwargs[key] = value.lower() in ("1", "true", "yes", "on")
            else:
                kwargs[key] = float(value)
        return cls(**kwargs)

    def fingerprint(self):
        """JSON-safe identity (corpus spec and golden key material)."""
        return {
            "seed": self.seed, "rate": self.rate,
            "backoff": self.backoff,
            "backoff_threshold": self.backoff_threshold,
            "backoff_rate": self.backoff_rate,
            "backoff_window": self.backoff_window,
            "suspicious_pcs": list(self.suspicious_pcs),
        }

    def describe(self):
        """Compact one-line description of the non-default knobs."""
        parts = [f"seed={self.seed}", f"rate={self.rate:g}"]
        if self.backoff:
            parts.append(f"backoff={self.backoff_rate:g}"
                         f"@{self.backoff_threshold:g}"
                         f"/{self.backoff_window}")
        if self.suspicious_pcs:
            parts.append("suspicious_pcs="
                         + ";".join(hex(pc) for pc in self.suspicious_pcs))
        return ",".join(parts)


#: The policy that never sheds; safe (and free) to leave active.
NULL_POLICY = PolicySpec()


class PolicyState:
    """Mutable per-stream controller for one AM's policy decisions.

    Holds the per-dependence ordinal (the hash key, so decisions stay a
    pure function of ``(seed, site, tid, ordinal)``), the shed/admit
    counters, and the backoff control loop fed by
    :meth:`note_occupancy` / :meth:`note_stall`.
    """

    __slots__ = ("spec", "seen", "admitted", "shed", "tightened",
                 "shedding", "shed_windows", "stalls",
                 "_signal_sum", "_signal_n")

    def __init__(self, spec):
        self.spec = spec
        self.seen = 0
        self.admitted = 0
        self.shed = 0
        self.tightened = 0
        self.shedding = False
        self.shed_windows = 0
        self.stalls = 0
        self._signal_sum = 0.0
        self._signal_n = 0

    def admit(self, dep, tid):
        """Admit or shed one dependence; deterministic per stream."""
        spec = self.spec
        self.seen += 1
        tele = telemetry.get_registry()
        if spec.covers(dep.store_pc, dep.load_pc):
            # Suspicion tightening: always traced, even while shedding.
            self.tightened += 1
            self.admitted += 1
            if tele.enabled:
                tele.inc("policy.deps_tightened")
                tele.inc("policy.deps_sampled")
            return True
        rate = spec.rate
        if self.shedding:
            rate *= spec.backoff_rate
        if rate >= 1.0 or spec.uniform("dep", tid, self.seen) < rate:
            self.admitted += 1
            if tele.enabled:
                tele.inc("policy.deps_sampled")
            return True
        self.shed += 1
        if tele.enabled:
            tele.inc("policy.deps_shed")
        return False

    def note_occupancy(self, fraction):
        """Feed one FIFO-occupancy observation (fraction of depth).

        Every ``backoff_window`` observations the window mean is
        compared against ``backoff_threshold`` and the shedding flag is
        recomputed -- a deterministic function of the observation
        stream, never of wall-clock time.
        """
        spec = self.spec
        if not spec.backoff:
            return
        self._signal_sum += fraction
        self._signal_n += 1
        if self._signal_n >= spec.backoff_window:
            self.shedding = (self._signal_sum / self._signal_n
                             > spec.backoff_threshold)
            if self.shedding:
                self.shed_windows += 1
                tele = telemetry.get_registry()
                if tele.enabled:
                    tele.inc("policy.shed_windows")
            self._signal_sum = 0.0
            self._signal_n = 0

    def note_stall(self):
        """A FIFO-full stall: the strongest possible pressure signal."""
        self.stalls += 1
        self.note_occupancy(1.0)


# ---------------------------------------------------------------------
# Ambient policy (mirrors repro.faults.get_plan/use_plan)
# ---------------------------------------------------------------------

_active = NULL_POLICY


def get_policy():
    """The process-wide active policy (NULL_POLICY when none is set)."""
    return _active


def set_policy(policy):
    """Install ``policy`` (None resets to NULL_POLICY); returns previous."""
    global _active
    previous = _active
    _active = NULL_POLICY if policy is None else policy
    return previous


@contextmanager
def use_policy(policy):
    """Context manager: activate ``policy`` for the dynamic extent."""
    previous = set_policy(policy)
    try:
        yield policy
    finally:
        set_policy(previous)


# ---------------------------------------------------------------------
# Suspicion feedback from a prior diagnosis
# ---------------------------------------------------------------------

def suspicious_pcs_from_report(report, top=5):
    """PCs a prior :class:`DiagnosisReport` implicates, for tightening.

    Engine-native reports contribute the PCs in their top candidate
    keys (``(store_pc, load_pc)`` pairs or bare PCs); NN reports
    contribute the PCs of the mismatched suffix of their top findings.
    Feed the result into ``PolicySpec(suspicious_pcs=...)`` to restore
    full-rate tracking around the code the last diagnosis flagged.
    """
    pcs = set()
    for cand in report.candidates[:top]:
        key = cand.get("key") if isinstance(cand, dict) else cand
        if isinstance(key, (list, tuple)):
            pcs.update(int(pc) for pc in key
                       if isinstance(pc, (int, float)))
        elif isinstance(key, (int, float)):
            pcs.add(int(key))
    for finding in report.findings[:top]:
        for dep in finding.seq[finding.matched:]:
            pcs.add(int(dep.store_pc))
            pcs.add(int(dep.load_pc))
    return tuple(sorted(pcs))
