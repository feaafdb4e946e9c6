"""Corpus-scale engine shootout: Table I as a live harness.

``repro shootout`` is the corpus sweep (:mod:`repro.analysis.accuracy`)
with an engine axis: each program is diagnosed once per registered
engine, and the records reduce to one Table-I-style comparison -- a
capabilities block per engine (offline training, failure runs needed,
thread-scope limits, online adaptivity) next to its measured recall /
top-1 / top-k.

Determinism carries over from the sweep: the same ``(seed, size)``
yields a byte-identical metrics JSON whether the per-program fan-out
ran serial or across ``--jobs`` workers. The result's trajectory entry
carries each engine's recall/top-1 for ``BENCH_accuracy.json``, so CI
tracks an accuracy trajectory the way ``benchmarks/trend.py`` tracks
throughput.
"""

from dataclasses import asdict, dataclass, field
from typing import Tuple

from repro import telemetry
from repro.common.texttable import render_table
from repro.core.config import ACTConfig
from repro.engines import registry
from repro.analysis.accuracy import (
    CorpusSpec,
    SweepResult,
    _fmt,
    _group_metrics,
    diagnose_program,
    group_by,
    preset_spec,
    sweep,
    trajectory_entry,
)
from repro.workloads.generator import ARCHETYPES


@dataclass(frozen=True)
class ShootoutSpec:
    """Everything that shapes one shootout (JSON-safe via fingerprint)."""

    seed: int = 7
    size: int = 20
    #: engine names to race; empty = every registered engine.
    engines: Tuple[str, ...] = ()
    top_k: int = 5
    n_train_runs: int = 6
    n_pruning_runs: int = 8
    failure_seed: int = 12345
    config: ACTConfig = field(
        default_factory=lambda: ACTConfig(seq_len=3))

    #: not a field: a shootout always races over every archetype.
    archetypes = ARCHETYPES

    def engine_names(self):
        return tuple(self.engines) or registry.names()

    def corpus_spec(self, engine):
        return CorpusSpec(
            seed=self.seed, size=self.size, top_k=self.top_k,
            n_train_runs=self.n_train_runs,
            n_pruning_runs=self.n_pruning_runs,
            failure_seed=self.failure_seed, engine=engine,
            config=self.config)

    def fingerprint(self):
        doc = asdict(self)
        doc["engines"] = list(self.engine_names())
        return doc


def _shootout_item(payload):
    """Picklable work item: one program diagnosed by every engine.

    The engines share one trained-state store, so each trains once per
    program: the ensemble reuses its members' standalone entries.
    """
    program_spec, spec = payload
    store = {}
    return [diagnose_program(program_spec, spec.corpus_spec(name), store)
            for name in spec.engine_names()]


def _capabilities_doc(engine_name):
    caps = registry.create(engine_name).capabilities
    return {
        "description": caps.description,
        "trains_offline": caps.trains_offline,
        "needs_failure_runs": caps.needs_failure_runs,
        "multithreaded_only": caps.multithreaded_only,
        "adapts_online": caps.adapts_online,
        "warmable": caps.warmable,
    }


def run_shootout(spec, jobs=None):
    """Race every engine over the same corpus; deterministic."""
    names = spec.engine_names()
    records = sweep("shootout", spec, _shootout_item, points=names,
                    jobs=jobs, n_engines=len(names))
    tele = telemetry.get_registry()
    if tele.enabled:
        tele.inc("shootout.engines", len(names))
    engines_doc = {
        name: {
            "capabilities": _capabilities_doc(name),
            "overall": _group_metrics(records[name], spec.top_k),
            "by_archetype": group_by(records[name], "archetype",
                                     spec.top_k),
        }
        for name in names}
    k = f"top{spec.top_k}"
    entry = trajectory_entry(spec, engines={
        name: {"recall": doc["overall"]["recall"],
               "top1": doc["overall"]["top1"], k: doc["overall"][k]}
        for name, doc in engines_doc.items()})
    return SweepResult(spec=spec, records=records, entry=entry,
                       metrics={"spec": spec.fingerprint(),
                                "engines": engines_doc})


def format_shootout(result):
    """Render the Table-I-style engine comparison."""
    spec = result.spec
    k = spec.top_k
    rows = []
    for name in spec.engine_names():
        doc = result.metrics["engines"][name]
        caps = doc["capabilities"]
        overall = doc["overall"]
        rows.append((
            name,
            "yes" if caps["trains_offline"] else "no",
            str(caps["needs_failure_runs"]),
            "yes" if caps["multithreaded_only"] else "no",
            "yes" if caps["adapts_online"] else "no",
            _fmt(overall["recall"], pct=True),
            _fmt(overall["top1"], pct=True),
            _fmt(overall[f"top{k}"], pct=True), _fmt(overall["mean_rank"]),
        ))
    return render_table(
        ("Engine", "Offline Train", "# Fail Runs", "MT-only",
         "Adaptive", "Recall (%)", "Top-1 (%)", f"Top-{k} (%)",
         "Mean Rank"),
        rows,
        title=(f"Engine shootout (seed {spec.seed}, "
               f"{spec.size} programs)"))


def run_shootout_for_preset(preset):
    """Experiment-registry entry point: shootout at preset scale."""
    return run_shootout(preset_spec(ShootoutSpec, preset,
                                    engines=preset.shootout_engines),
                        jobs=preset.jobs)
