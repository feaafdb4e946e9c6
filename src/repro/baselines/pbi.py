"""PBI-style sampling-based failure diagnosis: the scoring math.

PBI (Arulraj et al., ASPLOS 2013) samples hardware events during
production runs -- cache-coherence states observed at memory
instructions and branch outcomes -- and ranks predicates (instruction,
event) by a statistical score over successful and failing runs.

As in the paper's comparison we implement an *extreme* PBI: every
instruction is sampled in every run (no 1-in-100 sampling), 15 correct
runs and a single failure run. Scoring follows CBI/PBI:

    Increase(P) = Fail(P true) / (Fail(P true) + Succ(P true))
                - Fail(P obs)  / (Fail(P obs)  + Succ(P obs))

ranked descending, ties broken by more failing observations.

The protocol that gathers the runs is
:class:`repro.engines.baseline_engines.PBIEngine`.
"""

from dataclasses import dataclass

from repro.sim.machine import annotate_run
from repro.trace.events import EventKind


@dataclass(frozen=True)
class Predicate:
    """(instruction, event) pair."""

    pc: int
    event: str  # MESI letter for memory ops; "T"/"N" for branches

    def __str__(self):
        return f"pc={self.pc:#x}:{self.event}"


def _observe(run):
    """Predicates observed (true) in one run, plus observed pcs.

    MESI states come from a replay on the default machine.
    """
    ann = annotate_run(run)
    true_preds = set()
    observed_pcs = set()
    for event, res in zip(run.events, ann):
        if event.kind.is_memory():
            observed_pcs.add(event.pc)
            true_preds.add(Predicate(event.pc, res.state_before))
        elif event.kind == EventKind.BRANCH:
            observed_pcs.add(event.pc)
            true_preds.add(Predicate(event.pc, "T" if event.taken else "N"))
    return true_preds, observed_pcs


def _increase_ranking(fail_true, fail_obs, succ_true, succ_obs):
    """The reported predicates of one failure run, best first.

    ``fail_true``/``fail_obs`` are :func:`_observe` of the failure run;
    ``succ_true`` counts the correct runs each predicate was true in and
    ``succ_obs`` the correct runs each pc was observed in. Only
    positive-Increase predicates are reported, as ``(predicate,
    score)``.
    """
    ranking = []
    for pred in set(fail_true) | set(succ_true):
        f_true = 1 if pred in fail_true else 0
        s_true = succ_true.get(pred, 0)
        f_obs = 1 if pred.pc in fail_obs else 0
        s_obs = succ_obs.get(pred.pc, 0)
        if f_true + s_true == 0 or f_obs + s_obs == 0:
            continue
        increase = (f_true / (f_true + s_true)
                    - f_obs / (f_obs + s_obs))
        ranking.append((pred, increase, f_true))
    ranking.sort(key=lambda t: (-t[1], -t[2], t[0].pc))
    return [(pred, score) for pred, score, _f in ranking if score > 0]
