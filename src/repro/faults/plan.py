"""Deterministic fault plans.

A :class:`FaultPlan` is a *seeded description* of runtime faults to
inject into the data a diagnosis reads: trace events dropped or
reordered in every run :func:`repro.workloads.framework.run_program`
returns, NN weights flipped to NaN/Inf at deployment, and AM
input-FIFO overruns in :mod:`repro.core.buffers`.

Every decision is a pure function of ``(plan.seed, site, key)`` -- a
blake2b hash mapped to ``[0, 1)`` and compared against the site's rate.
Nothing is sampled statefully, so the same plan fires the same faults
no matter how work is ordered or batched across processes.
A zero plan (:data:`ZERO_PLAN`) never fires and is free to leave
active, which is what the differential regression suite pins down: the
faulted path with a zero plan is byte-identical to the plain path.
"""

import hashlib
from dataclasses import dataclass, fields

from repro.common.errors import ConfigError

#: Injection-site names, mapped to the FaultPlan field holding the rate.
RATE_SITES = {
    "trace_drop": "trace_drop",          # per (run seed, tid, ordinal)
    "trace_reorder": "trace_reorder",    # per adjacent surviving pair
    "weight_flip": "weight_flip",        # per deployed weight set (tid)
    "fifo_overflow": "fifo_overflow",    # per input-FIFO push
}


def _hash01(seed, site, key):
    """Deterministic uniform value in ``[0, 1)`` for one decision."""
    data = repr((seed, site, key)).encode("utf-8")
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic description of faults to inject.

    Rates are probabilities per decision point (see :data:`RATE_SITES`).
    """

    seed: int = 0
    trace_drop: float = 0.0
    trace_reorder: float = 0.0
    weight_flip: float = 0.0
    fifo_overflow: float = 0.0

    def __post_init__(self):
        for name in RATE_SITES.values():
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"fault rate {name}={rate} not in [0, 1]")
        # Precomputed so hot paths (one check per FIFO push) pay a
        # single attribute read when no fault can ever fire.
        object.__setattr__(self, "enabled", any(
            getattr(self, n) > 0.0 for n in RATE_SITES.values()))

    # ------------------------------------------------------------------

    def uniform(self, site, *key):
        """The deterministic ``[0, 1)`` draw for one decision point."""
        return _hash01(self.seed, site, key)

    def fires(self, site, *key):
        """Does the planned fault at ``site`` fire for ``key``?"""
        rate = getattr(self, RATE_SITES[site])
        return rate > 0.0 and self.uniform(site, *key) < rate

    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec):
        """Parse a CLI spec like ``"seed=3,trace_drop=0.05"``.

        Keys are FaultPlan field names.
        """
        kwargs = {}
        known = {f.name for f in fields(cls)}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if "=" not in part:
                raise ConfigError(f"bad fault spec entry {part!r} "
                                  "(expected key=value)")
            key, value = (s.strip() for s in part.split("=", 1))
            if key not in known:
                raise ConfigError(
                    f"unknown fault spec key {key!r} "
                    f"(known: {', '.join(sorted(known))})")
            kwargs[key] = int(value) if key == "seed" else float(value)
        return cls(**kwargs)

    def describe(self):
        """Compact one-line description of the non-default knobs."""
        parts = [f"seed={self.seed}"]
        for name in RATE_SITES.values():
            rate = getattr(self, name)
            if rate > 0.0:
                parts.append(f"{name}={rate:g}")
        return ",".join(parts)


#: The plan that never fires; safe (and free) to leave active.
ZERO_PLAN = FaultPlan()


def flip_weights(flat, plan, tid):
    """Return a copy of ``flat`` with one entry flipped to NaN or +/-Inf.

    The victim index and replacement value are deterministic functions
    of the plan seed and ``tid``, so every deployment of one weight set
    sees the exact same corruption.
    """
    import numpy as np

    flat = np.array(flat, dtype=float, copy=True)
    idx = min(int(plan.uniform("weight_flip_idx", tid) * flat.size),
              flat.size - 1)
    draw = plan.uniform("weight_flip_val", tid)
    flat[idx] = (np.nan if draw < 1 / 3
                 else np.inf if draw < 2 / 3 else -np.inf)
    return flat
