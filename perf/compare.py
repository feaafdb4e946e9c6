"""Compare two sets of benchmark runs against BENCHMARK.json's bounds.

    python perf/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

Each file is a ``perf/run.py --out`` result. A is the parent, B the
change. For every (workload, metric) pair the tool prints each side's
median and quartiles over all runs, and a verdict:

- ``worse``: B's median is worse than A's by more than the bound;
- ``better``: B's median is better by more than the bound;
- ``unresolved``: a side's spread (quartile distance over median) is
  wider than the bound, and not every B run beats every A run;
- ``within``: none of these.

Per-layer metrics have no bound and get ``info``. Deterministic results
(recall, top-1, error rate, simulated overhead, output digest) must be
identical: a difference is ``worse``/``better`` by direction, or
``changed`` for the output digest. The exit code is 1 when any verdict
is ``worse``.
"""

import json
import math
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent

#: Deterministic results and the direction that is better (None: any
#: change is a change of output, not of quality).
EXACT = {"recall": "higher", "top1": "higher", "error_rate": "lower",
         "sim_overhead_pct": "lower", "outputs_digest": None}


def load_side(paths):
    """{(workload, metric): [value per run]} and the seeds seen."""
    values, seeds = {}, set()
    for path in paths:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        seeds.add(doc["seed"])
        for run in doc["runs"]:
            for workload, result in run.items():
                for section in ("metrics", "exact"):
                    for name, value in result[section].items():
                        values.setdefault((workload, name), []).append(value)
    return values, seeds


def worsening(a, b, better):
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    sign = 1 if better == "lower" else -1
    if a == 0:
        return 0.0 if b == 0 else math.copysign(math.inf, sign * b)
    return sign * (b - a) / abs(a)


def verdict(a_vals, b_vals, better, bound):
    """The verdict for one bounded metric (see the module docstring)."""
    _, a_med, _ = stats.quartiles(a_vals)
    _, b_med, _ = stats.quartiles(b_vals)
    spread = max(_spread(a_vals), _spread(b_vals))
    worse_by = worsening(a_med, b_med, better)
    if better == "lower":
        every_run_better = max(b_vals) < min(a_vals)
    else:
        every_run_better = min(b_vals) > max(a_vals)
    if spread > bound:
        return "better" if every_run_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "within"


def _spread(values):
    q1, med, q3 = stats.quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def exact_verdict(a_vals, b_vals, better):
    if set(a_vals) == set(b_vals):
        return "same"
    if better is None or len(set(a_vals)) > 1 or len(set(b_vals)) > 1:
        return "changed"
    return "worse" if worsening(a_vals[0], b_vals[0], better) > 0 else "better"


def compare(a_values, b_values, spec):
    """Rows of (workload, metric, a, b, bound, verdict)."""
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in spec["end_to_end"]}
    rows = []
    for key in sorted(a_values.keys() & b_values.keys()):
        workload, name = key
        a, b = a_values[key], b_values[key]
        if name in EXACT:
            rows.append((workload, name, a, b, None,
                         exact_verdict(a, b, EXACT[name])))
        elif name in bounds:
            better, bound = bounds[name]
            rows.append((workload, name, a, b, bound,
                         verdict(a, b, better, bound)))
        else:
            rows.append((workload, name, a, b, None, "info"))
    return rows


def _fmt_side(values):
    if isinstance(values[0], str):
        return values[0][:12] + ("" if len(set(values)) == 1 else " (mixed)")
    q1, med, q3 = stats.quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("need at least one result file on each side", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a_values, a_seeds = load_side(a_paths)
    b_values, b_seeds = load_side(b_paths)
    if a_seeds != b_seeds:
        print(f"warning: seeds differ (A {sorted(a_seeds)}, "
              f"B {sorted(b_seeds)})")
    rows = compare(a_values, b_values, spec)
    print(f"{'workload':<13} {'metric':<29} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'bound':>6}  verdict")
    for workload, name, a, b, bound, result in rows:
        bound_text = "-" if bound is None else f"{bound:.0%}"
        print(f"{workload:<13} {name:<29} {_fmt_side(a):<34} "
              f"{_fmt_side(b):<34} {bound_text:>6}  {result}")
    counts = {}
    for row in rows:
        counts[row[-1]] = counts.get(row[-1], 0) + 1
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
