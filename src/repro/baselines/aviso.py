"""Aviso-style failure-avoidance constraint learning: the scoring math.

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

The protocol that accumulates failure runs is
:class:`repro.engines.baseline_engines.AvisoEngine`.
"""

#: Memory events before the failure point that candidate pairs come
#: from (and the sliding-window width for correct-run background).
WINDOW = 12
#: A constraint "finds" the bug once it appears at or above this rank;
#: until then Aviso asks for another failure run.
GOOD_RANK = 10
#: A candidate only becomes a reportable constraint once it has recurred
#: in this many failure runs -- Aviso's event-pair model cannot
#: distinguish signal from coincidence with a single failure, which is
#: why the paper feeds it multiple failures.
MIN_FAILURE_SUPPORT = 2


def _window_pairs(run):
    """Ordered inter-thread memory-event pc pairs near the failure."""
    events = [e for e in run.events if e.kind.is_memory()][-WINDOW:]
    pairs = set()
    for i, a in enumerate(events):
        for b in events[i + 1:]:
            if a.tid != b.tid:
                pairs.add((a.pc, b.pc))
    return pairs


def _sampled_pairs(run):
    """Pairs from sliding windows of a correct run (background rates)."""
    events = [e for e in run.events if e.kind.is_memory()]
    pairs = set()
    step = max(1, WINDOW // 2)
    for start in range(0, max(1, len(events) - WINDOW + 1), step):
        chunk = events[start:start + WINDOW]
        for i, a in enumerate(chunk):
            for b in chunk[i + 1:]:
                if a.tid != b.tid:
                    pairs.add((a.pc, b.pc))
    return pairs


def _rank(fail_counts, correct_counts, n_failures):
    """Constraints recurring in failures and rare in successes, best
    first."""
    ranking = []
    for pair, f in fail_counts.items():
        if f < MIN_FAILURE_SUPPORT:
            continue
        c = correct_counts.get(pair, 0)
        # Recur-in-failure, rare-in-success score.
        score = (f / n_failures) / (1.0 + c)
        ranking.append((pair, score))
    ranking.sort(key=lambda t: (-t[1], t[0]))
    return ranking


def _root_rank(ranking, truth):
    """1-based rank of the first pair whose pcs both belong to the
    ground-truth root cause, or None."""
    root_pcs = {pc for pair in truth for pc in pair}
    for i, (pair, _score) in enumerate(ranking, start=1):
        if pair[0] in root_pcs and pair[1] in root_pcs:
            return i
    return None
