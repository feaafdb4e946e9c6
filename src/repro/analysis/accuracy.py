"""The corpus sweep, and the diagnosis-accuracy harness built on it.

The paper's evaluation fixes 11 hand-ported bugs; this module measures
diagnosis quality on *new* scenarios. A :class:`CorpusSpec` names a
seeded corpus of generated programs (see
:mod:`repro.workloads.generator`). Every corpus experiment -- ``repro
corpus`` here, :mod:`.shootout` and :mod:`.frontier` -- is one
:func:`sweep`:

1. :func:`corpus_programs` builds the program list;
2. one picklable item per program goes through
   :func:`repro.parallel.run_tasks` (quarantine and checkpoint handling
   included);
3. each item returns one record per point of the experiment's axis
   (the corpus has none; the shootout sweeps engines, the frontier
   sampling rates);
4. :func:`_group_metrics` reduces each point's records;
5. :func:`append_trajectory` appends the experiment's entry, if it
   keeps one, to ``BENCH_accuracy.json``.

:func:`run_corpus` runs the full train -> deploy -> prune -> rank
pipeline over every program and :func:`corpus_metrics` reduces the
per-program outcomes to precision/recall/top-k-rank tables in the
style of Tables IV/V, with per-archetype breakdowns.

Metric definitions (documented in docs/accuracy.md):

- ``recall``: fraction of corpus programs whose ground-truth root-cause
  dependence appears anywhere in the ranked findings. Quarantined or
  non-failing programs count as misses -- the harness scores the
  end-to-end system, not just the ranker.
- ``top1`` / ``topk``: fraction ranked first / within the top k.
- ``precision_at_k``: of the first ``min(k, n_findings)`` findings
  reported per program, the fraction whose mismatched suffix exposes a
  ground-truth dependence (micro-averaged over the corpus).
- ``mean_rank`` / ``median_rank``: over diagnosed programs only.

Determinism is a hard contract: the same spec yields a byte-identical
metrics JSON (:func:`metrics_json`) whether the fan-out ran serial or
across ``--jobs`` workers, in one process or two. Every random choice
flows from :func:`repro.common.rng.make_rng` streams keyed by the spec,
diagnosis itself is deterministic, and :mod:`repro.parallel`
guarantees result-identical pool execution.
"""

import json
import os
import zlib
from dataclasses import asdict, dataclass, field
from typing import Optional, Tuple

from repro import faults as _faults
from repro import telemetry
from repro.common.rng import make_rng
from repro.common.texttable import render_table
from repro.core.config import ACTConfig
from repro.engines import create
from repro.faults import Checkpoint
from repro.parallel import run_tasks
from repro.workloads.generator import (
    ARCHETYPES,
    GeneratedProgram,
    ProgramSpec,
)


@dataclass(frozen=True)
class CorpusSpec:
    """Everything that shapes a corpus run (and its checkpoint identity).

    ``jobs`` is deliberately *not* part of the spec: parallelism never
    changes results, so it rides along as a call argument.
    """

    seed: int = 7
    size: int = 20
    archetypes: Tuple[str, ...] = ARCHETYPES
    top_k: int = 5
    n_train_runs: int = 6
    n_pruning_runs: int = 8
    failure_seed: int = 12345
    #: registered engine name (see :mod:`repro.engines`); "nn" is the
    #: historical default and is elided from the fingerprint so golden
    #: metrics files predating the registry stay byte-identical.
    engine: str = "nn"
    #: adaptive tracking policy applied to every program's deployment
    #: (:class:`~repro.core.policy.PolicySpec`); ``None`` -- the default,
    #: elided from the fingerprint -- keeps the historical full-rate
    #: pipeline byte-identical.
    policy: Optional[object] = None
    # Generated programs are deliberately small; N=3 keeps every
    # archetype trainable (the paper likewise picks per-program N).
    config: ACTConfig = field(
        default_factory=lambda: ACTConfig(seq_len=3))

    def fingerprint(self):
        """Checkpoint identity: the spec, JSON-safe."""
        doc = asdict(self)
        doc["archetypes"] = list(self.archetypes)
        if doc["engine"] == "nn":
            del doc["engine"]
        if self.policy is None:
            del doc["policy"]
        else:
            doc["policy"] = self.policy.fingerprint()
        return doc


def corpus_programs(spec):
    """The deterministic list of :class:`ProgramSpec` for one corpus.

    Archetypes are assigned round-robin so every corpus (with
    ``size >= len(archetypes)``) exercises the full catalogue; motifs
    and program shapes are drawn from each item's own seed.
    """
    rng = make_rng(spec.seed, stream=zlib.crc32(b"corpus") & 0xFFFF)
    seen = set()
    programs = []
    for i in range(spec.size):
        while True:
            item_seed = rng.randrange(1, 1_000_000)
            if item_seed not in seen:
                seen.add(item_seed)
                break
        archetype = spec.archetypes[i % len(spec.archetypes)]
        programs.append(ProgramSpec.from_seed(item_seed,
                                              archetype=archetype))
    return programs


def diagnosis_record(program_spec, report, top_k):
    """One program's outcome as a plain-dict record.

    JSON-safe, so the same shape feeds the metrics, the checkpoint, and
    the parallel result channel.
    """
    root = report.root_cause or set()
    if report.candidates:
        # Engine-native reports rank candidates, not NN findings.
        hits = [1 if c["hit"] else 0 for c in report.candidates[:top_k]]
        n_findings = len(report.candidates)
    else:
        hits = [
            1 if any((d.store_pc, d.load_pc) in root
                     for d in f.seq[f.matched:]) else 0
            for f in report.findings[:top_k]]
        n_findings = len(report.findings)
    return {
        "program": program_spec.name,
        "seed": program_spec.seed,
        "archetype": program_spec.archetype,
        "motif": program_spec.motif,
        "status": "diagnosed" if report.found else (
            "missed" if report.failed else "no_failure"),
        "failed": report.failed,
        "found": report.found,
        "rank": report.rank,
        "n_findings": n_findings,
        "finding_hits": hits,
        "debug_buffer_position": report.debug_buffer_position,
        "debug_overflowed": report.debug_overflowed,
        "filter_pct": float(report.filter_pct),
        "n_deps": report.n_deps,
        "n_invalid": report.n_invalid,
    }


def diagnose_program(program_spec, spec, store=None):
    """Diagnose one generated program under a :class:`CorpusSpec`;
    ``store`` shares trained state between calls."""
    report = create(spec.engine, config=spec.config).diagnose_report(
        GeneratedProgram(program_spec), n_train_runs=spec.n_train_runs,
        n_pruning_runs=spec.n_pruning_runs,
        failure_seed=spec.failure_seed, policy=spec.policy, store=store)
    return diagnosis_record(program_spec, report, spec.top_k)


def _corpus_item(payload):
    """Picklable corpus work item: the one record of an axis-free sweep."""
    return [diagnose_program(*payload)]


def _quarantined_record(program_spec):
    """Placeholder record for a corpus item lost to the quarantine."""
    return {
        "program": program_spec.name,
        "seed": program_spec.seed,
        "archetype": program_spec.archetype,
        "motif": program_spec.motif,
        "status": "quarantined",
        "failed": False,
        "found": False,
        "rank": None,
        "n_findings": 0,
        "finding_hits": [],
        "debug_buffer_position": None,
        "debug_overflowed": False,
        "filter_pct": 0.0,
        "n_deps": 0,
        "n_invalid": 0,
    }


def sweep(name, spec, item, points=(None,), jobs=None, quarantine=None,
          checkpoint=None, **attrs):
    """Steps 1-3 of every corpus experiment (see the module docstring).

    ``item((program_spec, spec))`` must be picklable and return one
    record per axis point, in ``points`` order. A program lost to the
    quarantine scores a placeholder miss at every point. Records found
    in ``checkpoint`` are reused; fresh ones are stored there.

    Returns ``{point: [record per program, corpus order]}``.
    """
    def key(ps, point):
        return f"record:{ps.name}" + ("" if point is None else f":{point}")

    program_specs = corpus_programs(spec)
    tele = telemetry.get_registry()
    done = {}
    pending = []
    with tele.span(name, seed=spec.seed, size=spec.size, **attrs):
        for ps in program_specs:
            cached = ([checkpoint.get(key(ps, p)) for p in points]
                      if checkpoint is not None else [None])
            if None in cached:
                pending.append(ps)
            else:
                done[ps.name] = cached
        if pending:
            with tele.span(f"{name}.diagnose", n_programs=len(pending)):
                results = run_tasks(
                    item, [(ps, spec) for ps in pending], jobs=jobs,
                    quarantine=quarantine, phase=f"{name}.diagnose",
                    keys=[ps.name for ps in pending])
            for ps, records in zip(pending, results):
                if records is None:
                    records = [_quarantined_record(ps) for _ in points]
                done[ps.name] = records
                if checkpoint is not None:
                    for point, record in zip(points, records):
                        checkpoint.put(key(ps, point), record, save=False)
            if checkpoint is not None:
                checkpoint.save()
    return {point: [done[ps.name][i] for ps in program_specs]
            for i, point in enumerate(points)}


@dataclass
class SweepResult:
    """One experiment's records plus its reduced metrics.

    ``records`` is the corpus's record list, or ``{point: records}``
    for an experiment with an axis. ``entry`` is the experiment's
    trajectory entry (``None``: it keeps no trajectory).
    """

    spec: object
    records: object
    metrics: dict
    quarantine: Optional[dict] = None
    entry: Optional[dict] = None


def _group_metrics(records, top_k):
    """Reduce a record list to one metrics dict (see module docstring)."""
    n = len(records)
    found = [r for r in records if r["found"]]
    ranks = sorted(r["rank"] for r in found)
    considered = sum(min(top_k, r["n_findings"]) for r in records)
    hits = sum(sum(r["finding_hits"]) for r in records)
    if ranks:
        mid = len(ranks) // 2
        median = (float(ranks[mid]) if len(ranks) % 2
                  else (ranks[mid - 1] + ranks[mid]) / 2.0)
    else:
        median = None
    return {
        "n_programs": n,
        "n_failed": sum(1 for r in records if r["failed"]),
        "n_found": len(found),
        "n_quarantined": sum(1 for r in records
                             if r["status"] == "quarantined"),
        "recall": (len(found) / n) if n else None,
        "top1": (sum(1 for r in found if r["rank"] == 1) / n) if n else None,
        f"top{top_k}": (sum(1 for r in found if r["rank"] <= top_k) / n
                        if n else None),
        "precision_at_k": (hits / considered) if considered else None,
        "mean_rank": (sum(ranks) / len(ranks)) if ranks else None,
        "median_rank": median,
        "mean_filter_pct": (sum(r["filter_pct"] for r in records) / n
                            if n else None),
    }


def group_by(records, field, top_k):
    """``{value: metrics}`` over the records sharing each ``field``."""
    return {
        value: _group_metrics([r for r in records if r[field] == value],
                              top_k)
        for value in sorted({r[field] for r in records})}


def corpus_metrics(spec, records):
    """Overall + per-archetype + per-motif metric tables, JSON-safe."""
    return {
        "spec": spec.fingerprint(),
        "overall": _group_metrics(records, spec.top_k),
        "by_archetype": group_by(records, "archetype", spec.top_k),
        "by_motif": group_by(records, "motif", spec.top_k),
    }


def run_corpus(spec, jobs=None, faults=None, quarantine=None,
               checkpoint=None):
    """Run the accuracy harness over one corpus.

    Args:
        spec: :class:`CorpusSpec`.
        jobs: fan the per-program diagnoses across worker processes
            (None/1 = serial; results byte-identical either way).
        faults: :class:`~repro.faults.FaultPlan` active for the whole
            corpus (defaults to the ambient plan).
        quarantine: :class:`~repro.faults.Quarantine`; a program whose
            diagnosis is lost to injected faults is recorded there and
            scored as a miss instead of aborting the corpus.
        checkpoint: path (or open :class:`~repro.faults.Checkpoint`)
            holding per-program snapshots -- a killed corpus run can be
            resumed and reproduces the identical metrics JSON.

    Returns:
        :class:`SweepResult`.
    """
    plan = faults if faults is not None else _faults.get_plan()
    if checkpoint is not None and not isinstance(checkpoint, Checkpoint):
        checkpoint = Checkpoint.open(checkpoint, "corpus",
                                     spec.fingerprint())
    with _faults.use_plan(plan):
        (records,) = sweep("corpus", spec, _corpus_item, jobs=jobs,
                           quarantine=quarantine,
                           checkpoint=checkpoint).values()
    metrics = corpus_metrics(spec, records)
    tele = telemetry.get_registry()
    if tele.enabled:
        tele.inc("corpus.programs", len(records))
        tele.inc("corpus.found", metrics["overall"]["n_found"])
        tele.inc("corpus.quarantined",
                 metrics["overall"]["n_quarantined"])
    result = SweepResult(spec=spec, records=records, metrics=metrics)
    if quarantine is not None and len(quarantine):
        result.quarantine = quarantine.report_dict()
    return result


# -- rendering ---------------------------------------------------------

def metrics_json(result):
    """Canonical metrics JSON text: the byte-identity artifact."""
    return json.dumps(result.metrics, sort_keys=True, indent=2) + "\n"


def _fmt(value, pct=False):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{100 * value:.1f}" if pct else f"{value:.2f}"
    return str(value)


def _metric_row(label, m, top_k):
    return (label, m["n_programs"], m["n_found"],
            _fmt(m["recall"], pct=True), _fmt(m["top1"], pct=True),
            _fmt(m[f"top{top_k}"], pct=True),
            _fmt(m["precision_at_k"], pct=True),
            _fmt(m["mean_rank"]), _fmt(m["median_rank"]))


def format_corpus(result):
    """Render the Table IV/V-style accuracy report."""
    spec = result.spec
    k = spec.top_k
    program_rows = []
    for r in result.records:
        pos = r["debug_buffer_position"]
        pos_text = ">buf" if (pos is None and r["debug_overflowed"]) else (
            "-" if pos is None else str(pos))
        program_rows.append((
            r["program"], r["archetype"], r["motif"], r["status"],
            "-" if r["rank"] is None else str(r["rank"]),
            pos_text, f"{r['filter_pct']:.0f}",
            r["n_deps"], r["n_invalid"]))
    programs = render_table(
        ("Program", "Archetype", "Motif", "Status", "Rank",
         "Debug Buf. Pos.", "Filter (%)", "# Deps", "# Invalid"),
        program_rows,
        title=f"Corpus diagnosis (seed {spec.seed}, {spec.size} programs)")

    header = ("Group", "# Prog", "# Found", "Recall (%)", "Top-1 (%)",
              f"Top-{k} (%)", f"Prec@{k} (%)", "Mean Rank", "Med. Rank")
    group_rows = [_metric_row("overall", result.metrics["overall"], k)]
    for name, m in result.metrics["by_archetype"].items():
        group_rows.append(_metric_row(name, m, k))
    for name, m in result.metrics["by_motif"].items():
        group_rows.append(_metric_row(f"motif:{name}", m, k))
    groups = render_table(header, group_rows,
                          title="Accuracy by archetype and motif")

    lines = [programs, "", groups]
    overall = result.metrics["overall"]
    if overall["n_quarantined"]:
        lines.append(f"quarantined programs: {overall['n_quarantined']} "
                     "(scored as misses)")
    return "\n".join(lines)


def write_corpus_traces(spec, trace_dir, trace_format="columnar"):
    """Record each corpus program's failure run as a trace file.

    One file per program under ``trace_dir``, named
    ``<program>.columnar``/``<program>.jsonl``, written via
    :func:`repro.trace.write_trace` in the requested format. Returns
    the list of paths written (corpus order).
    """
    from repro.trace import write_trace
    from repro.workloads.framework import run_program

    paths = []
    for ps in corpus_programs(spec):
        # Same execution the diagnosis treats as the failure run:
        # buggy build under the spec's failure seed.
        run = run_program(GeneratedProgram(ps), seed=spec.failure_seed,
                          buggy=True)
        path = os.path.join(trace_dir, f"{ps.name}.{trace_format}")
        write_trace(run, path, trace_format=trace_format)
        paths.append(path)
    return paths


def preset_spec(spec_cls, preset, **fields):
    """A corpus experiment's spec at ``preset`` scale."""
    return spec_cls(seed=preset.corpus_seed, size=preset.corpus_size,
                    n_train_runs=preset.corpus_train_runs,
                    n_pruning_runs=preset.corpus_pruning_runs, **fields)


def run_corpus_for_preset(preset):
    """Experiment-registry entry point: corpus at preset scale."""
    return run_corpus(preset_spec(CorpusSpec, preset,
                                  engine=preset.corpus_engine),
                      jobs=preset.jobs)


# -- accuracy trajectory (BENCH_accuracy.json) -------------------------

#: Default trajectory file (repo root, next to BENCH_throughput.json).
DEFAULT_BENCH_PATH = "BENCH_accuracy.json"

#: Entry fields outside its spec: the experiment name and the results.
_NOT_SPEC = ("experiment", "engines", "frontier", "pareto")


def trajectory_entry(spec, **fields):
    """One deterministic trajectory entry (no timestamps: CI diffs it)."""
    return {"seed": spec.seed, "size": spec.size,
            "n_train_runs": spec.n_train_runs,
            "n_pruning_runs": spec.n_pruning_runs, **fields}


def _entry_key(entry):
    """The (experiment, spec) dedupe key; shootout entries predate the
    ``experiment`` field."""
    return (entry.get("experiment", "shootout"),
            {k: v for k, v in entry.items() if k not in _NOT_SPEC})


def append_trajectory(entry, path=DEFAULT_BENCH_PATH):
    """Append one experiment's entry to the accuracy trajectory.

    The file is ``{"schema": 1, "entries": [...]}``. An entry equal to
    the latest one with the same (experiment, spec) key is skipped, so
    re-running experiments on the same tree never grows the file, in
    whatever order they interleave. Returns the trajectory document.
    """
    doc = {"schema": 1, "entries": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    key = _entry_key(entry)
    latest = next((e for e in reversed(doc["entries"])
                   if _entry_key(e) == key), None)
    if latest != entry:
        doc["entries"].append(entry)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return doc
