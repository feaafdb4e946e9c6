"""Perf-trend harness: append bench runs to a history, gate regressions.

``BENCH_throughput.json`` is a single point; this module gives it a
trajectory. Each invocation appends the current benchmark payload as
one JSONL entry to ``BENCH_history.jsonl`` and compares each *gated*
metric against its median over the last three recorded entries that
carry it, failing (exit 1) when any of them regresses beyond the
threshold (30% by default).

Gated metrics are machine-portable ratios (the corpus fan-out speedup
and the adaptive-frontier pick) plus the end-to-end corpus wall time in
units of the host reference loop, each with its own direction and
threshold: a CI runner two times slower than the last machine should
not trip the gates, and a corpus run that doubled against the same
host's reference loop (the widened ``corpus_wall_seconds / host.ref_s``
gate) signals a real pipeline regression, not a slow host. Absolute
throughput (program-execution events/sec, replay deps/sec, simulated
memory accesses/sec) and the host reference loop ``host.ref_s`` are
still recorded in every entry so the trajectory can be plotted, and a
faster host told apart from faster code.

Usage (what the ``bench-trend`` CI job runs)::

    python benchmarks/trend.py --bench BENCH_throughput.json \
        --history BENCH_history.jsonl --threshold 0.30
"""

import argparse
import json
import statistics
import sys
import time

DEFAULT_THRESHOLD = 0.30
# Each gate compares against the median of this many latest entries
# that carry it: one run on a noisy host phase must not set the bar.
BASELINE_ENTRIES = 3

# Gated metrics fail the run on regression; tracked metrics are
# recorded for the trajectory only. Each gate declares a direction
# ("higher" is better, or "lower" -- wall-clock style) and may set
# its own threshold; a gate that sets none takes the run default.
# A gate with ``per`` compares the metric divided by that metric of
# the same entry. The corpus fan-out speedup and the corpus wall time
# depend on the host's core count and scheduler, so they only gate
# against collapses, not noise; the wall time is taken per second of
# the host reference loop, so a slow host does not read as slow code.
# A gated metric (or its ``per``) absent from either entry is skipped
# with a logged reason (new metrics must not fail the first run that
# records them, and old histories must not fail new gates).
GATED_METRICS = {
    "parallel.corpus_speedup": {"direction": "higher", "threshold": 0.50},
    "corpus_wall_seconds": {"direction": "lower", "threshold": 0.50,
                            "per": "host.ref_s"},
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
    "execution.events_per_sec": "higher",
    "replay.deps_per_sec": "higher",
    "sim.accesses_per_sec": "higher",
    "training.epochs_per_sec": "higher",
    # Seconds of a fixed pure-Python loop: the host's speed, not the
    # code's.
    "host.ref_s": "lower",
    "cache.warm_speedup": "higher",
    "cache.rediagnose_speedup": "higher",
    "frontier.recall": "higher",
    # Measured cost of a recording registry over NullRegistry; it sits
    # near zero and goes negative in noise, so a relative gate would
    # only measure the host.
    "telemetry.overhead_pct": "lower",
    # CPU seconds of fresh processes (bench_throughput's start-up
    # section): absolute, so they move with the host.
    "startup.diagnose_cpu_s": "lower",
    "startup.version_cpu_s": "lower",
    "startup.numpy_cpu_s": "lower",
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


def check_regressions(history, current, threshold=DEFAULT_THRESHOLD,
                      skips=None):
    """Gated metrics of ``current`` vs the ``history`` before it (oldest
    first); returns regressions.

    Each gate compares against the median of its value in the last
    :data:`BASELINE_ENTRIES` history entries that carry it (fewer when
    fewer do), so one noisy entry neither trips the next run nor hides
    a real regression. Each regression is a dict with the metric, its
    ``per`` (or None), the baseline median and the current value (both
    divided by ``per``) and the fractional drop (always oriented so
    that positive = worse, whichever direction the gate declares). A
    gated metric or its ``per`` missing from the current entry or from
    every history entry, or a non-positive value, is skipped instead of
    erroring; pass a list as ``skips`` to collect ``{"metric",
    "reason"}`` records explaining each skip.
    """
    regressions = []
    cur_metrics = current.get("metrics", {})
    for path in sorted(GATED_METRICS):
        gate = GATED_METRICS[path]
        limit = gate.get("threshold", threshold)
        old, new, skip = _gated_values(history, cur_metrics, path,
                                       gate.get("per"))
        if skip:
            if skips is not None:
                skips.append({"metric": path, "reason": skip})
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
            regressions.append({"metric": path, "per": gate.get("per"),
                                "previous": old, "current": new,
                                "drop": round(drop, 4), "threshold": limit})
    return regressions


def _gate_value(metrics, path, per, where):
    """``(value, None)`` of a gate in the metrics of ``where``, divided
    by ``per`` when the gate sets it, or ``(None, why)``: the first
    input it lacks, or a non-positive ``per``."""
    for name in (path, per) if per else (path,):
        if metrics.get(name) is None:
            return None, f"{name} absent from {where}"
    if not per:
        return metrics[path], None
    if metrics[per] <= 0:
        return None, f"non-positive {per} ({metrics[per]})"
    return metrics[path] / metrics[per], None


def _gated_values(history, cur_metrics, path, per=None):
    """``(baseline, new, skip)`` of one gate: the median of its values
    in the last :data:`BASELINE_ENTRIES` entries of ``history`` that
    carry it, its current value, or a ``skip`` reason."""
    new, why = _gate_value(cur_metrics, path, per, "current entry")
    if why:
        return None, None, why
    olds = []
    for entry in reversed(history):
        old, why = _gate_value(entry.get("metrics", {}), path, per,
                               "every previous entry")
        if why is None:
            olds.append(old)
            if len(olds) == BASELINE_ENTRIES:
                break
    if not olds:
        # No entry carries the gate; ``why`` names what the oldest
        # one lacks.
        return None, None, why
    return statistics.median(olds), new, None


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
    regressions = check_regressions(history, entry, threshold=threshold,
                                    skips=skips)
    for skip in skips:
        print(f"gate skipped: {skip['metric']} ({skip['reason']})",
              file=out)
    if not regressions:
        print(f"trend OK: no gated metric regressed beyond its "
              f"threshold (default {threshold:.0%}) vs the median of "
              f"the last {BASELINE_ENTRIES} entries", file=out)
        return 0
    for reg in regressions:
        name = reg["metric"] + (f" / {reg['per']}" if reg["per"] else "")
        print(f"REGRESSION: {name} worsened {reg['drop']:.1%} "
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
