"""Composite engine: rank-merge several member engines.

``ensemble`` (or ``ensemble:nn+pset`` for an explicit member list) runs
each member's full diagnosis protocol, converts every member report to
the uniform candidate list, and merges them with reciprocal-rank fusion
(RRF, Cormack et al., SIGIR 2009): each candidate scores
``sum(1 / (60 + rank_m))`` over the members that ranked it. RRF needs
no score calibration across heterogeneous engines, which is exactly the
situation here -- NN outputs, Increase statistics and invariant
violation counts share no scale.
"""

import numpy as np

from repro.engines.base import (
    EngineCapabilities,
    Predictor,
    candidate,
    candidate_report,
    report_candidates,
)

#: RRF dampening constant (the literature's standard value).
RRF_K = 60


def rrf_merge(candidate_lists, k=RRF_K):
    """Reciprocal-rank-fuse ranked candidate lists into one ranking.

    Deterministic: ties in fused score break on the candidate key.
    ``hit`` is OR-ed across members (any member that knows the
    candidate exposes the root cause marks the fused candidate).
    """
    fused = {}
    for ranking in candidate_lists:
        for rank, cand in enumerate(ranking, start=1):
            entry = fused.setdefault(cand["key"], {"score": 0.0,
                                                   "hit": False})
            entry["score"] += 1.0 / (k + rank)
            entry["hit"] = entry["hit"] or cand["hit"]
    merged = sorted(fused.items(), key=lambda t: (-t[1]["score"], t[0]))
    return [candidate(key, entry["score"], entry["hit"])
            for key, entry in merged]


class EnsembleEngine(Predictor):
    """Rank-merges the reports of its member engines."""

    def __init__(self, members, config=None):
        super().__init__(config)
        if not members:
            raise ValueError("ensemble needs at least one member engine")
        self.members = list(members)
        names = [m.name for m in self.members]
        self.capabilities = EngineCapabilities(
            name="ensemble",
            description="RRF rank-merge of: " + "+".join(names),
            trains_offline=any(m.capabilities.trains_offline
                               for m in self.members),
            needs_failure_runs=max(m.capabilities.needs_failure_runs
                                   for m in self.members),
            multithreaded_only=all(m.capabilities.multithreaded_only
                                   for m in self.members),
            adapts_online=any(m.capabilities.adapts_online
                              for m in self.members),
            warmable=all(m.capabilities.warmable for m in self.members))

    @property
    def trained(self):
        return all(m.trained for m in self.members)

    def train(self, program, n_runs=10, seed0=0, quarantine=None,
              **params):
        for member in self.members:
            member.train(program, n_runs=n_runs, seed0=seed0,
                         quarantine=quarantine, **params)

    def predict_batch(self, seqs):
        seqs = list(seqs)
        if not seqs:
            return np.zeros(0, dtype=float)
        scores = [np.asarray(m.predict_batch(seqs), dtype=float)
                  for m in self.members]
        return np.mean(scores, axis=0)

    def serialize(self):
        return {"engine": "ensemble",
                "members": [m.serialize() for m in self.members]}

    @classmethod
    def deserialize(cls, payload, config=None):
        from repro.core.config import ACTConfig
        from repro.engines.registry import create as create_engine

        members = []
        for member_payload in payload.get("members", ()):
            member_config = config
            if member_config is None and member_payload.get("config"):
                member_config = ACTConfig(**member_payload["config"])
            members.append(create_engine(member_payload["engine"],
                                         config=member_config))
        engine = cls(members, config=config)
        engine.load_state(payload)
        return engine

    def load_state(self, payload):
        from repro.common.errors import EngineError

        if payload.get("engine") != "ensemble":
            raise EngineError(
                "ensemble cannot load state serialized by "
                f"{payload.get('engine')!r}", engine=payload.get("engine"))
        states = payload["members"]
        if len(states) != len(self.members):
            raise EngineError(
                f"ensemble state has {len(states)} member payloads for "
                f"{len(self.members)} members", engine="ensemble")
        for member, state in zip(self.members, states):
            member.load_state(state)

    def _diagnose(self, program, store, **kwargs):
        """Run every member's own protocol, then RRF-merge the reports.

        Members share ``store`` under their own keys, so the ensemble
        keeps no entry of its own and reuses what standalone members
        trained. The NN member keeps its direct-path flow, so each
        member behaves exactly as it would standalone.
        """
        reports = [m.diagnose_report(program, store=store, **kwargs)
                   for m in self.members]
        usable = [r for r in reports if r.applicable]
        merged = rrf_merge([report_candidates(r) for r in usable])
        first = reports[0]
        report = candidate_report(
            first.program, failed=any(r.failed for r in reports),
            failure_description=first.failure_description,
            truth=first.root_cause or set(), candidates=merged,
            engine="ensemble")
        for member, member_report in zip(self.members, reports):
            if not member_report.applicable:
                report.notes.append(
                    f"ensemble: member {member.name!r} inapplicable")
            else:
                report.notes.append(
                    f"ensemble: member {member.name!r} rank "
                    f"{member_report.rank}")
        return report
