"""Perf-trend harness: append bench runs to a history, gate regressions.

``BENCH_throughput.json`` is a single point; this module gives it a
trajectory. Each invocation appends the current benchmark payload as
one JSONL entry to ``BENCH_history.jsonl`` and compares the *gated*
metrics against the last recorded entry, failing (exit 1) when any of
them regresses beyond the threshold (30% by default).

Gated metrics are machine-portable ratios (the replay and warm-pool
speedups) plus the end-to-end corpus wall time, each with its own
direction and threshold: a CI runner two times slower than the last
machine should not trip the ratio gates, a fast path that lost its
speedup should, and a corpus run that doubled in wall time (the widened
``corpus_wall_seconds`` gate) signals a real pipeline regression, not
scheduler noise. Absolute throughput and the cold/warm speedup split
are still recorded in every entry so the trajectory can be plotted.

Usage (what the ``bench-trend`` CI job runs)::

    python benchmarks/trend.py --bench BENCH_throughput.json \
        --history BENCH_history.jsonl --threshold 0.30
"""

import argparse
import json
import sys
import time

DEFAULT_THRESHOLD = 0.30

# Gated metrics fail the run on regression; tracked metrics are
# recorded for the trajectory only. Each gate declares a direction
# ("higher" is better, or "lower" -- wall-clock style) and may widen
# the threshold beyond the run default: the replay speedup divides two
# multi-hundred-millisecond measurements of deterministic compute and
# gates tightly, while the warm-pool speedup and the corpus wall time
# depend on the host's core count and scheduler, so they only gate
# against collapses, not noise. A gated metric absent from either entry
# is skipped with a logged reason (new metrics must not fail the first
# run that records them, and old histories must not fail new gates).
GATED_METRICS = {
    "replay.speedup": {"direction": "higher"},
    "parallel.speedup": {"direction": "higher", "threshold": 0.50},
    "corpus_wall_seconds": {"direction": "lower", "threshold": 0.50},
    # The adaptive-frontier pick (benchmarks/bench_throughput.py runs
    # the sweep; see docs/adaptive.md). Both are ratios against the
    # full-rate baseline of the same run, so they are machine-portable:
    # overhead_proxy is the pick's fraction of full-rate overhead
    # (lower is better; >50% growth means sampling stopped paying),
    # top1 its fraction of full-rate top-1 accuracy (a drop beyond 25%
    # means the sampled deployment stopped diagnosing).
    "frontier.overhead_proxy": {"direction": "lower", "threshold": 0.50},
    "frontier.top1": {"direction": "higher", "threshold": 0.25},
}
TRACKED_METRICS = {
    "replay.batched_deps_per_sec": "higher",
    "replay.scalar_deps_per_sec": "higher",
    "parallel.speedup_warm": "higher",
    "parallel.speedup_cold": "higher",
    "cache.warm_speedup": "higher",
    "frontier.recall": "higher",
}


def get_metric(payload, path):
    """Resolve a dotted ``path`` in a nested dict (None when missing)."""
    node = payload
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def load_history(path):
    """Entries of a history file, oldest first (missing file = empty)."""
    entries = []
    try:
        with open(str(path), "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    entries.append(json.loads(line))
    except OSError:
        pass
    return entries


def make_entry(payload, timestamp=None, source=None):
    """One history entry: flat metrics plus provenance (preset, the
    host's CPU count when the payload records it, source)."""
    metrics = {}
    for path in sorted(set(GATED_METRICS) | set(TRACKED_METRICS)):
        value = get_metric(payload, path)
        if value is not None:
            metrics[path] = value
    entry = {
        "timestamp": (time.time() if timestamp is None else timestamp),
        "preset": payload.get("preset"),
        "metrics": metrics,
    }
    if payload.get("host_cpus") is not None:
        entry["host_cpus"] = payload["host_cpus"]
    if source:
        entry["source"] = source
    return entry


def append_entry(history_path, entry):
    """Append ``entry`` as one JSONL line to the history file."""
    with open(str(history_path), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def check_regressions(previous, current, threshold=DEFAULT_THRESHOLD,
                      skips=None):
    """Gated metrics of ``current`` vs ``previous``; returns regressions.

    Each regression is a dict with the metric, both values and the
    fractional drop (always oriented so that positive = worse,
    whichever direction the gate declares). A gated metric missing from
    either entry, or with a non-positive baseline, is skipped instead
    of erroring; pass a list as ``skips`` to collect
    ``{"metric", "reason"}`` records explaining each skip.
    """
    regressions = []
    prev_metrics = previous.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    for path in sorted(GATED_METRICS):
        gate = GATED_METRICS[path]
        limit = gate.get("threshold", threshold)
        old = prev_metrics.get(path)
        new = cur_metrics.get(path)
        if old is None or new is None:
            if skips is not None:
                missing = ("both entries" if old is None and new is None
                           else "previous entry" if old is None
                           else "current entry")
                skips.append({"metric": path,
                              "reason": f"absent from {missing}"})
            continue
        if old <= 0:
            if skips is not None:
                skips.append({"metric": path,
                              "reason": f"non-positive baseline ({old})"})
            continue
        if gate["direction"] == "lower":
            drop = (new - old) / old
        else:
            drop = (old - new) / old
        if drop > limit:
            regressions.append({"metric": path, "previous": old,
                                "current": new, "drop": round(drop, 4),
                                "threshold": limit})
    return regressions


def run_trend(bench_path, history_path, threshold=DEFAULT_THRESHOLD,
              timestamp=None, source=None, out=sys.stdout):
    """Append the bench payload to the history and gate it; returns rc."""
    with open(str(bench_path), "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    history = load_history(history_path)
    entry = make_entry(payload, timestamp=timestamp, source=source)
    append_entry(history_path, entry)
    print(f"appended entry #{len(history) + 1} to {history_path}", file=out)
    for path, value in sorted(entry["metrics"].items()):
        gate = " [gated]" if path in GATED_METRICS else ""
        print(f"  {path} = {value}{gate}", file=out)
    # A gated metric the bench payload never produced would otherwise
    # vanish silently -- absent from the fresh entry, it is skipped on
    # every future comparison too, so say so now, every run.
    for path in sorted(GATED_METRICS):
        if path not in entry["metrics"]:
            print(f"gate unavailable: {path} (not in bench payload)",
                  file=out)
    if not history:
        print("no previous entry; nothing to gate against", file=out)
        return 0
    skips = []
    regressions = check_regressions(history[-1], entry, threshold=threshold,
                                    skips=skips)
    for skip in skips:
        print(f"gate skipped: {skip['metric']} ({skip['reason']})",
              file=out)
    if not regressions:
        print(f"trend OK: no gated metric regressed beyond its "
              f"threshold (default {threshold:.0%}) vs the previous "
              f"entry", file=out)
        return 0
    for reg in regressions:
        print(f"REGRESSION: {reg['metric']} worsened {reg['drop']:.1%} "
              f"({reg['previous']} -> {reg['current']}), "
              f"threshold {reg['threshold']:.0%}", file=out)
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="append a bench run to the perf history and fail on "
                    "regressions beyond the threshold")
    parser.add_argument("--bench", default="BENCH_throughput.json",
                        help="benchmark payload to record")
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        help="JSONL history file to append to")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="fractional regression that fails the run "
                             "(default 0.30)")
    parser.add_argument("--source", default=None,
                        help="provenance label recorded in the entry "
                             "(e.g. 'ci')")
    args = parser.parse_args(argv)
    return run_trend(args.bench, args.history, threshold=args.threshold,
                     source=args.source)


if __name__ == "__main__":
    sys.exit(main())
