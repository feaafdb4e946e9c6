"""Adaptive-overhead frontier: the overhead-vs-accuracy Pareto sweep.

``repro frontier`` measures what the paper's Section VI argues but a
plain corpus run never shows: how much diagnosis quality survives when
the AM does *not* trace every dependence. It is the corpus sweep
(:mod:`repro.analysis.accuracy`) with a sampling-rate axis. Each
program trains, runs its failure run and builds its Correct Set once;
each rate then repeats the diagnosis's deploy and rank phases
(:mod:`repro.core.diagnosis`) under its policy (an enabled
:class:`~repro.core.policy.PolicySpec` governs the AM's admit gate),
and times the replay once per FIFO depth on the machine model
(:mod:`repro.sim.machine`), whose ``overhead_proxy`` --
``deps_offered * (1 + mean FIFO occupancy)`` -- stands in for the
paper's tracking-overhead percentage.

Sampled passes run the paper's suspicion feedback by default
(``tighten``): the full-rate pass flags the PCs of its top findings,
and every sampled policy carries them as its always-traced tightening
set -- sample everywhere, keep full rate around suspicious code. That
is what makes cheap points retain diagnosis quality; ``--no-tighten``
sweeps blind sampling instead.

The reduction is a Pareto table: each point carries the corpus-summed
overhead proxy (and its ratio to the full-rate point at the same FIFO
depth) next to the recall/top-1 the corpus retained at that rate, with
the non-dominated points flagged. The flat ``frontier`` summary picks
the cheapest sampled point that keeps at least 90% of full-rate top-1
-- the deployability claim in one pair of gateable numbers
(``frontier.overhead_proxy`` / ``frontier.top1`` in
``benchmarks/trend.py``).

Determinism is the same hard contract as every corpus sweep: the same
spec yields a byte-identical metrics JSON whether the per-program
fan-out ran serial or across ``--jobs`` workers. The full-rate column
*is* the diagnosis pipeline, so it equals ``repro corpus`` on the same
corpus. Accuracy depends on the rate only (the deploy path has no
FIFO model); overhead depends on both knobs.
"""

from dataclasses import asdict, dataclass, field
from typing import Tuple

from repro import telemetry
from repro.common.errors import ConfigError
from repro.common.texttable import render_table
from repro.core import policy as _policy
from repro.core.config import ACTConfig
from repro.core.diagnosis import (
    deploy_phase,
    failure_report,
    pruning_phase,
    rank_phase,
    train_phase,
)
from repro.core.policy import NULL_POLICY, PolicySpec
from repro.sim.machine import simulate_run
from repro.analysis.accuracy import (
    SweepResult,
    _fmt,
    _group_metrics,
    diagnosis_record,
    preset_spec,
    sweep,
    trajectory_entry,
)
from repro.workloads.framework import run_program
from repro.workloads.generator import ARCHETYPES, GeneratedProgram

#: Fraction of full-rate top-1 a sampled point must retain to be the
#: summary's pick (the acceptance bar the frontier is judged against).
RETENTION_BAR = 0.9


@dataclass(frozen=True)
class FrontierSpec:
    """Everything that shapes one frontier sweep (JSON-safe)."""

    seed: int = 7
    size: int = 20
    archetypes: Tuple[str, ...] = ARCHETYPES
    #: sampling rates to sweep; 1.0 (the policy-free baseline every
    #: ratio is taken against) is always included and the rest are
    #: deduped and sorted descending.
    rates: Tuple[float, ...] = (1.0, 0.75, 0.5, 0.25)
    #: NN-pipeline input-FIFO depths for the timing replays.
    fifo_sizes: Tuple[int, ...] = (4, 8, 16)
    #: seed of every swept :class:`PolicySpec` (decisions are a pure
    #: function of ``(policy_seed, site, key)``).
    policy_seed: int = 0
    #: enable load-shedding backoff in the swept policies.
    backoff: bool = True
    #: suspicion-directed tightening: each program's full-rate pass
    #: flags the PCs of its top findings, and every sampled pass
    #: deploys with those PCs always traced -- the paper's feedback
    #: loop (sample everywhere, keep full rate around suspicious code).
    tighten: bool = True
    top_k: int = 5
    n_train_runs: int = 6
    n_pruning_runs: int = 8
    failure_seed: int = 12345
    config: ACTConfig = field(
        default_factory=lambda: ACTConfig(seq_len=3))

    def __post_init__(self):
        rates = tuple(sorted({float(r) for r in self.rates} | {1.0},
                             reverse=True))
        for rate in rates:
            if not 0.0 < rate <= 1.0:
                raise ConfigError(f"frontier rate={rate} not in (0, 1]")
        fifos = tuple(sorted({int(f) for f in self.fifo_sizes}))
        if not fifos:
            raise ConfigError("frontier needs at least one FIFO size")
        for fifo in fifos:
            if fifo < 1:
                raise ConfigError(f"frontier fifo size {fifo} < 1")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "fifo_sizes", fifos)

    def policy_for(self, rate, suspicious_pcs=()):
        """The policy one swept rate deploys under.

        Rate 1.0 maps to :data:`~repro.core.policy.NULL_POLICY` -- the
        baseline column *is* today's policy-free pipeline, which is how
        the sweep stays comparable with every historical corpus run.
        Sampled rates carry the program's suspicion set (empty when
        ``tighten`` is off).
        """
        if rate >= 1.0:
            return NULL_POLICY
        return PolicySpec(seed=self.policy_seed, rate=rate,
                          backoff=self.backoff,
                          suspicious_pcs=tuple(suspicious_pcs))

    def fingerprint(self):
        doc = asdict(self)
        doc["archetypes"] = list(self.archetypes)
        doc["rates"] = list(self.rates)
        doc["fifo_sizes"] = list(self.fifo_sizes)
        return doc


def _rate_key(rate):
    """Canonical JSON key for one rate (``1``, ``0.75``, ...)."""
    return f"{rate:g}"


def _frontier_item(payload):
    """Picklable work item: one program at every sweep point.

    Training, the failure run and the pruning-run Correct Set are paid
    once; each rate repeats the diagnosis's deploy and rank phases
    under its policy, then replays the timing model once per FIFO
    depth. Returns one record per rate: the corpus record plus the
    ``overhead`` of each FIFO depth.
    """
    program_spec, spec = payload
    program = GeneratedProgram(program_spec)
    trained = train_phase(program, spec.config, spec.n_train_runs,
                          buggy=False)
    failure_run = run_program(program, seed=spec.failure_seed, buggy=True)
    correct_set = pruning_phase(
        program, spec.config,
        list(range(100, 100 + spec.n_pruning_runs)), buggy=False)
    records = []
    suspicious = ()
    # rates are sorted descending with 1.0 always first: the full-rate
    # baseline runs before any sampled pass needs its suspicion set.
    for rate in spec.rates:
        with _policy.use_policy(spec.policy_for(rate, suspicious)):
            report = failure_report(program, failure_run)
            if report.failed:
                deployment = deploy_phase(trained, failure_run, report)
                rank_phase(deployment, correct_set, report)
            if rate >= 1.0 and spec.tighten:
                suspicious = _policy.suspicious_pcs_from_report(
                    report, spec.top_k)
            record = diagnosis_record(program_spec, report, spec.top_k)
            record["overhead"] = {
                str(fifo): _overhead(simulate_run(
                    failure_run, trained=trained,
                    act_config=spec.config.with_(fifo_depth=fifo)))
                for fifo in spec.fifo_sizes}
        records.append(record)
    return records


def _overhead(sim):
    """One timing replay's contribution to the overhead sums."""
    return {
        "overhead_proxy": round(sim.overhead_proxy, 4),
        "deps_offered": sim.deps_offered,
        "deps_shed": sim.deps_shed,
        "deps_tightened": sim.deps_tightened,
        "fifo_stalls": sim.deps_stalled,
    }


def _pareto_front(points):
    """Indices of the non-dominated points (min overhead, max top-1)."""
    front = []
    for i, p in enumerate(points):
        dominated = False
        for q in points:
            if q is p:
                continue
            no_worse = (q["overhead_proxy"] <= p["overhead_proxy"]
                        and (q["top1"] or 0.0) >= (p["top1"] or 0.0))
            better = (q["overhead_proxy"] < p["overhead_proxy"]
                      or (q["top1"] or 0.0) > (p["top1"] or 0.0))
            if no_worse and better:
                dominated = True
                break
        if not dominated:
            front.append(i)
    return front


def _reduce(spec, by_rate):
    """Per-rate records -> the deterministic metrics document."""
    accuracy = {key: _group_metrics(records, spec.top_k)
                for key, records in by_rate.items()}
    points = []
    full = {}
    for rate in spec.rates:
        acc = accuracy[_rate_key(rate)]
        for fifo in spec.fifo_sizes:
            docs = [r["overhead"][str(fifo)]
                    for r in by_rate[_rate_key(rate)]]
            proxy = round(sum(d["overhead_proxy"] for d in docs), 4)
            # rate 1.0 comes first: its proxy is each depth's baseline.
            full.setdefault(fifo, proxy)
            points.append({
                "rate": rate,
                "fifo": fifo,
                "overhead_proxy": proxy,
                "overhead_vs_full": (
                    round(proxy / full[fifo], 4) if full[fifo] else None),
                **{name: sum(d[name] for d in docs)
                   for name in ("deps_offered", "deps_shed",
                                "deps_tightened", "fifo_stalls")},
                "recall": acc["recall"],
                "top1": acc["top1"],
                f"top{spec.top_k}": acc[f"top{spec.top_k}"],
            })
    front = _pareto_front(points)
    for i, point in enumerate(points):
        point["pareto"] = i in front
    pareto = sorted(([p["rate"], p["fifo"]]
                     for p in points if p["pareto"]),
                    key=lambda rf: (-rf[0], rf[1]))
    return {
        "spec": spec.fingerprint(),
        "accuracy": accuracy,
        "points": points,
        "pareto": pareto,
        "frontier": _summary(spec, accuracy, points),
    }


def _summary(spec, accuracy, points):
    """The flat, gateable pick: cheapest sampled point that retains at
    least :data:`RETENTION_BAR` of full-rate top-1.

    ``overhead_proxy``/``top1``/``recall`` are *ratios against the
    full-rate baseline* (same FIFO depth for overhead), so they are
    machine- and corpus-scale-portable; the absolute values stay in
    ``points``. Falls back to the cheapest full-rate point (all ratios
    1.0) when no sampled point clears the bar.
    """
    full = accuracy[_rate_key(1.0)]
    full_top1 = full["top1"] or 0.0
    full_recall = full["recall"] or 0.0

    def ratios(point):
        return {
            "rate": point["rate"],
            "fifo": point["fifo"],
            "overhead_proxy": point["overhead_vs_full"],
            "top1": (round((point["top1"] or 0.0) / full_top1, 4)
                     if full_top1 else None),
            "recall": (round((point["recall"] or 0.0) / full_recall, 4)
                       if full_recall else None),
        }

    candidates = [p for p in points
                  if p["rate"] < 1.0
                  and (p["top1"] or 0.0) >= RETENTION_BAR * full_top1]
    if candidates:
        best = min(candidates,
                   key=lambda p: (p["overhead_vs_full"] or 1.0,
                                  -p["rate"], p["fifo"]))
        return ratios(best)
    baseline = min((p for p in points if p["rate"] >= 1.0),
                   key=lambda p: (p["overhead_proxy"], p["fifo"]))
    return ratios(baseline)


def run_frontier(spec, jobs=None):
    """Sweep the frontier; deterministic, serial == ``--jobs N``."""
    by_rate = sweep("frontier", spec, _frontier_item,
                    points=tuple(_rate_key(r) for r in spec.rates),
                    jobs=jobs, n_rates=len(spec.rates),
                    n_fifos=len(spec.fifo_sizes))
    tele = telemetry.get_registry()
    if tele.enabled:
        tele.inc("frontier.points", len(spec.rates) * len(spec.fifo_sizes))
    metrics = _reduce(spec, by_rate)
    entry = trajectory_entry(
        spec, experiment="frontier", rates=list(spec.rates),
        fifo_sizes=list(spec.fifo_sizes), frontier=metrics["frontier"],
        pareto=metrics["pareto"])
    return SweepResult(spec=spec, records=by_rate, metrics=metrics,
                       entry=entry)


def format_frontier(result):
    """Render the Pareto table (``*`` marks non-dominated points)."""
    spec = result.spec
    k = spec.top_k
    rows = []
    for p in result.metrics["points"]:
        rows.append((
            f"{p['rate']:g}", str(p["fifo"]),
            f"{p['overhead_proxy']:.1f}",
            "-" if p["overhead_vs_full"] is None
            else f"{p['overhead_vs_full']:.3f}",
            str(p["deps_shed"]), str(p["deps_tightened"]),
            str(p["fifo_stalls"]),
            _fmt(p["recall"], pct=True), _fmt(p["top1"], pct=True),
            _fmt(p[f"top{k}"], pct=True),
            "*" if p["pareto"] else ""))
    table = render_table(
        ("Rate", "FIFO", "Overhead", "Vs full", "# Shed", "# Tight",
         "# Stalls",
         "Recall (%)", "Top-1 (%)", f"Top-{k} (%)", "Pareto"),
        rows,
        title=(f"Adaptive-overhead frontier (seed {spec.seed}, "
               f"{spec.size} programs)"))
    s = result.metrics["frontier"]
    top1 = "-" if s["top1"] is None else f"{100 * s['top1']:.1f}%"
    ratio = ("-" if s["overhead_proxy"] is None
             else f"{100 * s['overhead_proxy']:.1f}%")
    summary = (f"frontier pick: rate {s['rate']:g} @ FIFO {s['fifo']} -- "
               f"{ratio} of full-rate overhead, {top1} of full-rate top-1")
    return table + "\n" + summary


def run_frontier_for_preset(preset):
    """Experiment-registry entry point: frontier at preset scale."""
    return run_frontier(preset_spec(FrontierSpec, preset,
                                    rates=preset.frontier_rates,
                                    fifo_sizes=preset.fifo_sweep),
                        jobs=preset.jobs)
