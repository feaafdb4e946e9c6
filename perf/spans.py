"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps module attributes at the call sites the
diagnosis pipeline uses (for example ``repro.core.diagnosis.deploy_on_run``)
so that each call records a span: name, start, end, parent span and the
id of the operation (one diagnosis, one kernel simulation) it belongs to.
Spans stay in memory until the benchmark writes them out. Nothing under
``src/`` is changed; the wrappers are installed only for a traced run
and removed afterwards.

``repro.nn.trainer._train_once`` is the one private function wrapped: it
is the only place that sees every training restart (the program's own
``nn.train_epochs`` counter counts only the winning restart).
"""

import collections
import contextlib
import functools
import importlib
import time


class Tracer:
    """In-memory span and counter recorder."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # (id, name, start, end, parent, op)
        self.counts = collections.Counter()
        self.op = None
        self._stack = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name, op=None):
        """Record a span around the body; ``op`` starts a new operation."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        outer_op = self.op
        if op is not None:
            self.op = op
        self._stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op))
            self.op = outer_op

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` with a spanned call; ``after(counts,
        result, args)`` updates counters from the call's result. Returns
        the original attribute."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(self.counts, result, args)
            return result

        setattr(owner, attr, traced)
        return original

    @contextlib.contextmanager
    def installed(self):
        """Every layer boundary of the pipeline wrapped for the body."""
        patched = []
        try:
            for target, attr, name, after in LAYER_CALLS:
                owner = _resolve(target)
                patched.append((owner, attr,
                                self.wrap(owner, attr, name, after)))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


class NullTracer:
    """Stand-in when tracing is off: spans cost one no-op context."""

    enabled = False

    def span(self, name, op=None):
        return contextlib.nullcontext()

    def installed(self):
        return contextlib.nullcontext(self)


def _resolve(target):
    """``"pkg.mod"`` or ``"pkg.mod:Class"`` to the object to patch."""
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _count_run(counts, run, _args):
    counts["framework.runs"] += 1
    counts["framework.events"] += len(run.events)


def _count_restart(counts, result, args):
    cfg = args[3]
    counts["trainer.restarts"] += 1
    counts["trainer.epochs"] += result.epochs
    if result.epochs >= cfg.max_epochs:
        counts["trainer.epoch_cap_hits"] += 1


def _count_network(counts, _result, _args):
    counts["trainer.networks"] += 1


def _count_examples(counts, result, _args):
    pos, neg = result
    counts["offline.examples"] += len(pos) + len(neg)


def _count_deploy(counts, result, _args):
    counts["deploy.deps"] += result.n_deps
    counts["deploy.predictions"] += result.n_predictions
    counts["deploy.invalid"] += result.n_invalid


def _count_ranking(counts, result, _args):
    counts["ranking.debug_entries"] += result.n_input
    counts["ranking.pruned"] += result.n_pruned


#: (module[:class], attribute, span name, counter hook). Each entry is a
#: call site of the pipeline: names imported into a module are wrapped
#: in the importing module, so the same function can carry a different
#: span name at each site (``run_program`` is a framework run when
#: offline collection calls it and the failure run when diagnosis does).
LAYER_CALLS = (
    ("repro.workloads.framework", "run_program", "framework.run", _count_run),
    ("repro.core.offline", "run_program", "framework.run", _count_run),
    ("repro.core.diagnosis", "run_program", "diagnosis.failure_run",
     _count_run),
    ("repro.core.offline:OfflineTrainer", "train", "offline.train", None),
    ("repro.core.offline", "collect_correct_runs", "offline.collect", None),
    ("repro.core.offline", "sequences_from_runs", "offline.sequences", None),
    ("repro.trace.raw", "line_level_pairs", "offline.sequences", None),
    ("repro.core.offline:OfflineTrainer", "prepare_examples",
     "offline.prepare", _count_examples),
    ("repro.core.encoding:DepEncoder", "encode_many", "offline.encode", None),
    ("repro.core.offline", "train_network", "trainer.network",
     _count_network),
    ("repro.nn.trainer", "_train_once", "trainer.restart", _count_restart),
    ("repro.core.diagnosis", "deploy_on_run", "deploy", _count_deploy),
    ("repro.core.diagnosis", "collect_runs_for_seeds", "pruning.collect",
     None),
    ("repro.core.postprocess:CorrectSet", "add_run", "pruning.correct_set",
     None),
    ("repro.core.diagnosis", "postprocess", "ranking", _count_ranking),
)


def aggregate(spans):
    """Per span name: count, total seconds and self seconds.

    A span's self time is its duration minus the part of it covered by
    its direct children (merged, so overlapping children count once).
    """
    children = collections.defaultdict(list)
    for sid, _name, start, end, parent, _op in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, name, start, end, _parent, _op in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        entry = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - covered
    return out


def per_round(setup, timed, rounds):
    """Counters of one set-up plus one timed round."""
    return collections.Counter({
        name: setup.get(name, 0) + timed.get(name, 0) / rounds
        for name in setup.keys() | timed.keys()})


def per_round_spans(setup, timed, rounds):
    """Span aggregates of one set-up plus one timed round."""
    return {
        name: {field: (setup.get(name, {}).get(field, 0)
                       + timed.get(name, {}).get(field, 0) / rounds)
               for field in ("count", "total_s", "self_s")}
        for name in setup.keys() | timed.keys()}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(agg, counts):
    """The benchmark's per-layer metrics from span aggregates and
    counters. A layer the workload never entered reports 0."""

    def self_s(*names):
        return sum(agg.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(name):
        return agg.get(name, {}).get("total_s", 0.0)

    restart_s = self_s("trainer.restart")
    deploy_s = self_s("deploy")
    sim_s = total_s("sim.base") + total_s("sim.act")
    return {
        "framework.runs": counts["framework.runs"],
        "framework.events": counts["framework.events"],
        "framework.s": self_s("framework.run", "diagnosis.failure_run"),
        "offline.collect_s": self_s("offline.collect"),
        "offline.sequences_s": self_s("offline.sequences"),
        "offline.prepare_s": self_s("offline.prepare"),
        "offline.encode_s": self_s("offline.encode"),
        "offline.examples": counts["offline.examples"],
        "trainer.networks": counts["trainer.networks"],
        "trainer.restarts": counts["trainer.restarts"],
        "trainer.restarts_per_network": _ratio(counts["trainer.restarts"],
                                               counts["trainer.networks"]),
        "trainer.epochs": counts["trainer.epochs"],
        "trainer.epoch_cap_hits": counts["trainer.epoch_cap_hits"],
        "trainer.s": self_s("trainer.network", "trainer.restart"),
        "trainer.epochs_per_s": _ratio(counts["trainer.epochs"], restart_s),
        "diagnosis.failure_run_s": self_s("diagnosis.failure_run"),
        "diagnosis.self_s": self_s("diagnosis"),
        "deploy.s": deploy_s,
        "deploy.deps": counts["deploy.deps"],
        "deploy.deps_per_s": _ratio(counts["deploy.deps"], deploy_s),
        "deploy.invalid_ratio": _ratio(counts["deploy.invalid"],
                                       counts["deploy.predictions"]),
        "pruning.collect_s": self_s("pruning.collect"),
        "pruning.correct_set_s": self_s("pruning.correct_set"),
        "pruning.filter_ratio": _ratio(counts["ranking.pruned"],
                                       counts["ranking.debug_entries"]),
        "ranking.s": self_s("ranking"),
        "ranking.debug_entries": counts["ranking.debug_entries"],
        "sim.base_s": total_s("sim.base"),
        "sim.act_extra_s": total_s("sim.act") - total_s("sim.base"),
        "sim.events": counts["sim.events"],
        "sim.deps_offered": counts["sim.deps_offered"],
        "sim.deps_stalled": counts["sim.deps_stalled"],
        "sim.stall_ratio": _ratio(counts["sim.deps_stalled"],
                                  counts["sim.deps_offered"]),
        "sim.act_stall_cycles": counts["sim.act_stall_cycles"],
        "sim.events_per_s": _ratio(counts["sim.events"], sim_s),
    }
