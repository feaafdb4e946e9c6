"""Aviso-style failure-avoidance constraint learning.

Aviso (Lucia & Ceze, ASPLOS 2013) observes *failing* executions and
hypothesises scheduling constraints -- ordered pairs of inter-thread
events that, when the second is delayed, avoid the failure. Candidates
are event pairs observed in a window before the failure point; their
plausibility grows as they recur across failure runs and shrink when
they also occur in successful runs.

For the diagnosis comparison (Table V) we use the constraint ranking as
the root-cause report, exactly as the paper does: "it can be used to
diagnose a failure by inspecting the constraints Aviso finds very
likely to be related to the failure". The two structural limits the
paper exercises carry over:

- at least one failure run is required, and the ranking only becomes
  discriminative with several (the paper feeds up to 10);
- only inter-thread event pairs exist, so sequential bugs are out of
  scope.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.workloads.framework import run_program


@dataclass
class AvisoResult:
    """Result of the Aviso protocol for one bug."""

    rank: Optional[int]
    n_failures_used: int
    found: bool
    applicable: bool
    ranking: List[Tuple[Tuple[int, int], float]] = field(default_factory=list)


def _window_pairs(run, window):
    """Ordered inter-thread memory-event pc pairs near the failure."""
    events = [e for e in run.events if e.kind.is_memory()][-window:]
    pairs = set()
    for i, a in enumerate(events):
        for b in events[i + 1:]:
            if a.tid != b.tid:
                pairs.add((a.pc, b.pc))
    return pairs


class AvisoDiagnoser:
    """Runs the Aviso protocol: accumulate failure runs, rank pairs."""

    def __init__(self, window=12, n_correct=15, good_rank=10,
                 min_failure_support=2):
        self.window = window
        self.n_correct = n_correct
        # A constraint "finds" the bug once it appears at or above this
        # rank; until then Aviso asks for another failure run.
        self.good_rank = good_rank
        # A candidate only becomes a reportable constraint once it has
        # recurred in this many failure runs -- Aviso's event-pair model
        # cannot distinguish signal from coincidence with a single
        # failure, which is why the paper feeds it multiple failures.
        self.min_failure_support = min_failure_support

    def diagnose(self, program, max_failures=10, failure_seed0=900,
                 correct_seed0=300, failure_params=None,
                 correct_params=None, root_cause=None) -> AvisoResult:
        failure_params = dict(failure_params or {"buggy": True})
        correct_params = dict(correct_params or {"buggy": False})

        # Correct-run statistics: how often each pair occurs anyway.
        correct_counts = defaultdict(int)
        multithreaded = None
        for i in range(self.n_correct):
            run = run_program(program, seed=correct_seed0 + i,
                              **correct_params)
            if multithreaded is None:
                multithreaded = run.n_threads > 1
            for pair in _sampled_pairs(run, self.window):
                correct_counts[pair] += 1

        if not multithreaded:
            return AvisoResult(rank=None, n_failures_used=0, found=False,
                               applicable=False)

        truth = None
        fail_counts = defaultdict(int)
        for k in range(1, max_failures + 1):
            run = run_program(program, seed=failure_seed0 + k,
                              **failure_params)
            if truth is None:
                truth = root_cause or run.meta.get("root_cause") or set()
            if not run.failed:
                continue
            for pair in _window_pairs(run, self.window):
                fail_counts[pair] += 1

            ranking = self._rank(fail_counts, correct_counts, k,
                                 self.min_failure_support)
            rank = self._root_rank(ranking, truth)
            if rank is not None and rank <= self.good_rank:
                return AvisoResult(rank=rank, n_failures_used=k, found=True,
                                   applicable=True, ranking=ranking)

        ranking = self._rank(fail_counts, correct_counts, max_failures,
                             self.min_failure_support)
        rank = self._root_rank(ranking, truth or set())
        return AvisoResult(rank=rank, n_failures_used=max_failures,
                           found=rank is not None, applicable=True,
                           ranking=ranking)

    @staticmethod
    def _rank(fail_counts, correct_counts, n_failures, min_support=2):
        ranking = []
        for pair, f in fail_counts.items():
            if f < min_support:
                continue
            c = correct_counts.get(pair, 0)
            # Recur-in-failure, rare-in-success score.
            score = (f / n_failures) / (1.0 + c)
            ranking.append((pair, score))
        ranking.sort(key=lambda t: (-t[1], t[0]))
        return ranking

    @staticmethod
    def _root_rank(ranking, truth):
        root_pcs = {pc for pair in truth for pc in pair}
        for i, (pair, _score) in enumerate(ranking, start=1):
            if pair[0] in root_pcs and pair[1] in root_pcs:
                return i
        return None


def _sampled_pairs(run, window):
    """Pairs from sliding windows of a correct run (background rates)."""
    events = [e for e in run.events if e.kind.is_memory()]
    pairs = set()
    step = max(1, window // 2)
    for start in range(0, max(1, len(events) - window + 1), step):
        chunk = events[start:start + window]
        for i, a in enumerate(chunk):
            for b in chunk[i + 1:]:
                if a.tid != b.tid:
                    pairs.add((a.pc, b.pc))
    return pairs
