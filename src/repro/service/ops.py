"""Service operations: the CLI command bodies as request/response data.

Each pipeline-running command (``diagnose``, ``corpus``, ``shootout``,
``frontier``, ``trace``, ``profile``) is a plain frozen request
dataclass plus a ``run_*`` function returning an :class:`Outcome` --
exit code and the exact text the CLI prints to stdout/stderr. The CLI
builds a request from its parsed arguments and prints the outcome;
tests and benchmarks call the same functions directly.

:class:`TrainedStateDir` is ``diagnose --cache-dir``: an on-disk
trained-state store that :func:`run_diagnose` hands to the engine
(:meth:`repro.engines.Predictor.store_key` builds the keys), so a
repeat diagnosis in a fresh process skips offline retraining. Training
is deterministic in the key, so a hit changes wall time and telemetry
(``cache.hits``, no ``engine.train`` span) but never the report.
"""

import hashlib
import os
from dataclasses import dataclass
from typing import Optional, Tuple

from repro import telemetry
from repro.common.errors import CheckpointError, EngineError, ReproError
from repro.core.config import ACTConfig
from repro.core.diagnosis import diagnose_failure
from repro.faults import Checkpoint, FaultPlan, Quarantine
from repro.telemetry import (
    TickClock,
    format_critical_path,
    format_flame,
    format_profile,
    is_event_stream,
    profile_dict,
    read_events_profile,
    read_profile,
    render_openmetrics,
)
from repro.telemetry import selfcost
from repro.trace.trace_io import write_trace
from repro.workloads.framework import run_program
from repro.workloads.registry import (
    all_bug_names,
    all_kernel_names,
    get_bug,
    get_kernel,
    get_workload,
)


@dataclass
class Outcome:
    """What one operation produced: exit code and exact CLI text.

    ``out``/``err`` hold the full stdout/stderr text (newline-joined,
    no trailing newline; empty string = nothing printed).
    """

    rc: int
    out: str = ""
    err: str = ""


def _fail(message):
    """The CLI error shape: message on stderr, exit code 2."""
    return Outcome(rc=2, err=message)


# ---------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnoseRequest:
    """``repro diagnose`` as data (defaults match the CLI flags)."""

    bug: str
    seed: int = 12345
    train_runs: int = 10
    pruning_runs: int = 20
    seq_len: int = 5
    debug_buffer: int = 60
    threshold: float = 0.05
    top: int = 5
    jobs: Optional[int] = None
    fast: bool = True
    engine: str = "nn"
    faults: Optional[str] = None
    policy: Optional[str] = None
    quarantine_report: Optional[str] = None
    checkpoint: Optional[str] = None
    resume: Optional[str] = None
    cache_dir: Optional[str] = None

    kind = "diagnose"

    @classmethod
    def from_args(cls, args):
        return cls(bug=args.bug, seed=args.seed,
                   train_runs=args.train_runs,
                   pruning_runs=args.pruning_runs, seq_len=args.seq_len,
                   debug_buffer=args.debug_buffer,
                   threshold=args.threshold, top=args.top, jobs=args.jobs,
                   fast=args.fast, engine=args.engine, faults=args.faults,
                   policy=args.policy,
                   quarantine_report=args.quarantine_report,
                   checkpoint=args.checkpoint, resume=args.resume,
                   cache_dir=args.cache_dir)


def _parse_policy(req, engine="nn"):
    """Resolve a request's ``--policy SPEC``; (policy, error Outcome).

    The adaptive layer is NN-path-only: an enabled policy with any
    other engine is rejected here with a CLI-shaped error instead of a
    traceback. ``None`` spec means "no policy" (the historical
    pipeline, byte-identical).
    """
    if not req.policy:
        return None, None
    from repro.core.policy import PolicySpec

    try:
        policy = PolicySpec.from_spec(req.policy)
    except ReproError as e:
        return None, _fail(f"error: bad --policy spec: {e}")
    if policy.enabled and engine != "nn":
        return None, _fail(f"error: --policy is NN-path-only; engine "
                           f"{engine!r} does not support it")
    return policy, None


def _quarantine_lines(quarantine, report_path):
    """The quarantine epilogue every pipeline command prints."""
    lines = []
    if len(quarantine):
        lines.append(quarantine.summary())
    if report_path:
        quarantine.write_report(report_path)
        lines.append(f"quarantine report written to {report_path}")
    return lines


def run_diagnose(req):
    """Run a full diagnosis, reusing trained state from ``cache_dir``."""
    from repro.engines import create

    try:
        program = get_bug(req.bug)
    except ReproError as e:
        return _fail(f"error: {e}")
    config = ACTConfig(seq_len=req.seq_len,
                      debug_buffer=req.debug_buffer,
                      mispred_threshold=req.threshold)
    try:
        engine = create(req.engine or "nn", config=config)
    except EngineError as e:
        return _fail(f"error: {e}")
    checkpoint = req.checkpoint
    if req.resume:
        if not os.path.isfile(req.resume):
            return _fail(f"error: checkpoint {req.resume!r} does not exist")
        checkpoint = req.resume
    plan = None
    if req.faults:
        try:
            plan = FaultPlan.from_spec(req.faults)
        except ReproError as e:
            return _fail(f"error: bad --faults spec: {e}")
    policy, policy_err = _parse_policy(req, engine.name)
    if policy_err is not None:
        return policy_err
    quarantine = None
    if plan is not None or req.quarantine_report:
        quarantine = Quarantine()
    store = None
    if req.cache_dir:
        if os.path.exists(req.cache_dir) and not os.path.isdir(req.cache_dir):
            return _fail(f"error: cache dir {req.cache_dir!r} is not a "
                         "directory")
        store = TrainedStateDir(req.cache_dir)
    try:
        report = engine.diagnose_report(
            program, n_train_runs=req.train_runs,
            n_pruning_runs=req.pruning_runs, failure_seed=req.seed,
            fast=req.fast, jobs=req.jobs, faults=plan,
            quarantine=quarantine, checkpoint=checkpoint, policy=policy,
            store=store)
    except (CheckpointError, EngineError) as e:
        return _fail(f"error: {e}")
    if report.engine is not None:
        return _engine_report_outcome(report, req, quarantine)
    lines = [
        f"program          : {report.program}",
        f"failure          : {report.failure_description}",
        f"deps observed    : {report.n_deps} "
        f"({report.n_invalid} flagged invalid)",
        f"debug buffer     : {report.n_debug_entries} entries"
        f"{' (overflowed)' if report.debug_overflowed else ''}",
        f"filtered         : {report.filter_pct:.0f}%",
        f"root cause found : {report.found}"
        + (f" at rank {report.rank}" if report.found else ""),
    ]
    for note in report.notes:
        lines.append(f"note: {note}")
    for i, f in enumerate(report.top(req.top), start=1):
        dep = f.mismatch_dep or f.seq[-1]
        lines.append(
            f"  #{i}: store {dep.store_pc:#x} -> load {dep.load_pc:#x} "
            f"({'inter' if dep.inter_thread else 'intra'}-thread, "
            f"matched {f.matched}, output {f.output:.3f})")
    if quarantine is not None:
        lines.extend(_quarantine_lines(quarantine, req.quarantine_report))
    return Outcome(rc=0 if report.found else 1, out="\n".join(lines))


def _engine_report_outcome(report, req, quarantine):
    """CLI text for a non-NN engine's candidate report."""
    lines = [
        f"program          : {report.program}",
        f"engine           : {report.engine}",
        f"failure          : {report.failure_description}",
        f"candidates       : {len(report.candidates)}",
        f"root cause found : {report.found}"
        + (f" at rank {report.rank}" if report.found else ""),
    ]
    if not report.applicable:
        lines.insert(4, "applicable       : False")
    for note in report.notes:
        lines.append(f"note: {note}")
    for i, cand in enumerate(report.candidates[:req.top], start=1):
        hit = ", hit" if cand["hit"] else ""
        lines.append(f"  #{i}: {cand['key']} "
                     f"(score {cand['score']:.3f}{hit})")
    if quarantine is not None:
        lines.extend(_quarantine_lines(quarantine, req.quarantine_report))
    return Outcome(rc=0 if report.found else 1, out="\n".join(lines))


# ---------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusRequest:
    """``repro corpus`` as data (defaults match the CLI flags)."""

    seed: int = 7
    size: int = 20
    train_runs: int = 6
    pruning_runs: int = 8
    seq_len: int = 3
    top: int = 5
    jobs: Optional[int] = None
    engine: str = "nn"
    out: Optional[str] = None
    trace_dir: Optional[str] = None
    trace_format: str = "columnar"
    faults: Optional[str] = None
    policy: Optional[str] = None
    quarantine_report: Optional[str] = None
    checkpoint: Optional[str] = None
    resume: Optional[str] = None

    kind = "corpus"

    @classmethod
    def from_args(cls, args):
        return cls(seed=args.seed, size=args.size,
                   train_runs=args.train_runs,
                   pruning_runs=args.pruning_runs, seq_len=args.seq_len,
                   top=args.top, jobs=args.jobs, engine=args.engine,
                   out=args.out, trace_dir=args.trace_dir,
                   trace_format=args.trace_format, faults=args.faults,
                   policy=args.policy,
                   quarantine_report=args.quarantine_report,
                   checkpoint=args.checkpoint, resume=args.resume)


def _missing_dir(*paths):
    """The CLI error for the first path whose directory is missing."""
    for path in paths:
        out_dir = os.path.dirname(path) if path else ""
        if out_dir and not os.path.isdir(out_dir):
            return _fail(f"error: output directory {out_dir!r} "
                         "does not exist")
    return None


def _sweep_outcome(result, text, out, bench=None, tail=()):
    """A corpus experiment's outcome: its rendered ``text``, its metrics
    JSON written to ``out`` and its trajectory entry appended to
    ``bench``, each noted, then the ``tail`` lines."""
    from repro.analysis.accuracy import append_trajectory, metrics_json

    lines = [text]
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(metrics_json(result))
        lines.append(f"metrics written to {out}")
    if bench:
        doc = append_trajectory(result.entry, bench)
        lines.append(f"accuracy trajectory: {bench} "
                     f"({len(doc['entries'])} entries)")
    lines.extend(tail)
    return Outcome(rc=0, out="\n".join(lines))


def run_corpus(req):
    """Run the diagnosis-accuracy harness over a generated corpus."""
    from repro.analysis.accuracy import (
        CorpusSpec,
        format_corpus,
        run_corpus,
        write_corpus_traces,
    )

    missing = _missing_dir(req.out)
    if missing:
        return missing
    engine = req.engine or "nn"
    # Corpus checkpoints hold per-program *records* (engine-agnostic,
    # keyed by a fingerprint that includes the engine), so unlike
    # diagnose no checkpoint restriction applies here.
    from repro.engines import create

    try:
        create(engine)
    except EngineError as e:
        return _fail(f"error: {e}")
    checkpoint = req.checkpoint
    if req.resume:
        if not os.path.isfile(req.resume):
            return _fail(f"error: checkpoint {req.resume!r} does not exist")
        checkpoint = req.resume
    plan = None
    if req.faults:
        try:
            plan = FaultPlan.from_spec(req.faults)
        except ReproError as e:
            return _fail(f"error: bad --faults spec: {e}")
    policy, policy_err = _parse_policy(req, engine)
    if policy_err is not None:
        return policy_err
    quarantine = None
    if plan is not None or req.quarantine_report:
        quarantine = Quarantine()
    spec = CorpusSpec(seed=req.seed, size=req.size, top_k=req.top,
                      n_train_runs=req.train_runs,
                      n_pruning_runs=req.pruning_runs,
                      engine=engine, policy=policy,
                      config=ACTConfig(seq_len=req.seq_len))
    try:
        result = run_corpus(spec, jobs=req.jobs, faults=plan,
                            quarantine=quarantine, checkpoint=checkpoint)
    except CheckpointError as e:
        return _fail(f"error: {e}")
    tail = []
    if req.trace_dir:
        os.makedirs(req.trace_dir, exist_ok=True)
        paths = write_corpus_traces(spec, req.trace_dir,
                                    trace_format=req.trace_format)
        tail.append(f"wrote {len(paths)} {req.trace_format} failure "
                    f"traces to {req.trace_dir}")
    if quarantine is not None:
        tail.extend(_quarantine_lines(quarantine, req.quarantine_report))
    return _sweep_outcome(result, format_corpus(result), req.out,
                          tail=tail)


# ---------------------------------------------------------------------
# shootout
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ShootoutRequest:
    """``repro shootout`` as data (defaults match the CLI flags)."""

    seed: int = 7
    size: int = 20
    engines: Tuple[str, ...] = ()
    train_runs: int = 6
    pruning_runs: int = 8
    seq_len: int = 3
    top: int = 5
    jobs: Optional[int] = None
    out: Optional[str] = None
    bench: Optional[str] = None

    kind = "shootout"

    @classmethod
    def from_args(cls, args):
        engines = tuple(
            name.strip() for name in (args.engines or "").split(",")
            if name.strip())
        bench = None if args.no_bench else args.bench
        return cls(seed=args.seed, size=args.size, engines=engines,
                   train_runs=args.train_runs,
                   pruning_runs=args.pruning_runs, seq_len=args.seq_len,
                   top=args.top, jobs=args.jobs, out=args.out,
                   bench=bench)


def run_shootout(req):
    """Race every (selected) engine over the same corpus."""
    from repro.analysis.shootout import (
        ShootoutSpec,
        format_shootout,
        run_shootout,
    )
    from repro.engines import create

    missing = _missing_dir(req.out, req.bench)
    if missing:
        return missing
    for name in req.engines:
        try:
            create(name)
        except EngineError as e:
            return _fail(f"error: {e}")
    spec = ShootoutSpec(seed=req.seed, size=req.size,
                        engines=tuple(req.engines), top_k=req.top,
                        n_train_runs=req.train_runs,
                        n_pruning_runs=req.pruning_runs,
                        config=ACTConfig(seq_len=req.seq_len))
    result = run_shootout(spec, jobs=req.jobs)
    return _sweep_outcome(result, format_shootout(result), req.out,
                          req.bench)


# ---------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class FrontierRequest:
    """``repro frontier`` as data (defaults match the CLI flags)."""

    seed: int = 7
    size: int = 20
    rates: Tuple[float, ...] = (1.0, 0.75, 0.5, 0.25)
    fifo_sizes: Tuple[int, ...] = (4, 8, 16)
    policy_seed: int = 0
    backoff: bool = True
    tighten: bool = True
    train_runs: int = 6
    pruning_runs: int = 8
    seq_len: int = 3
    top: int = 5
    jobs: Optional[int] = None
    out: Optional[str] = None
    bench: Optional[str] = None

    kind = "frontier"

    @classmethod
    def from_args(cls, args):
        bench = None if args.no_bench else args.bench
        return cls(seed=args.seed, size=args.size,
                   rates=tuple(args.rates), fifo_sizes=tuple(args.fifo_sizes),
                   policy_seed=args.policy_seed, backoff=not args.no_backoff,
                   tighten=not args.no_tighten,
                   train_runs=args.train_runs,
                   pruning_runs=args.pruning_runs, seq_len=args.seq_len,
                   top=args.top, jobs=args.jobs, out=args.out, bench=bench)


def run_frontier(req):
    """Sweep sampling rates x FIFO depths into a Pareto table."""
    from repro.analysis.frontier import (
        FrontierSpec,
        format_frontier,
        run_frontier,
    )

    missing = _missing_dir(req.out, req.bench)
    if missing:
        return missing
    try:
        spec = FrontierSpec(seed=req.seed, size=req.size,
                            rates=tuple(req.rates),
                            fifo_sizes=tuple(req.fifo_sizes),
                            policy_seed=req.policy_seed,
                            backoff=req.backoff, tighten=req.tighten,
                            top_k=req.top,
                            n_train_runs=req.train_runs,
                            n_pruning_runs=req.pruning_runs,
                            config=ACTConfig(seq_len=req.seq_len))
    except ReproError as e:
        return _fail(f"error: {e}")
    result = run_frontier(spec, jobs=req.jobs)
    return _sweep_outcome(result, format_frontier(result), req.out,
                          req.bench)


# ---------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class TraceRequest:
    """``repro trace`` as data (record a workload, or convert a file)."""

    program: str
    paths: Tuple[str, ...] = ()
    seed: int = 0
    out: str = "trace.jsonl"
    trace_format: Optional[str] = None
    verify: bool = False

    kind = "trace"

    @classmethod
    def from_args(cls, args):
        return cls(program=args.program, paths=tuple(args.paths),
                   seed=args.seed, out=args.out,
                   trace_format=args.trace_format, verify=args.verify)


def _run_trace_convert(req):
    """``trace convert IN OUT``: re-encode a trace file.

    The output format is the *other* one by default (columnar input ->
    JSON-lines output and vice versa); ``trace_format`` forces it.
    ``verify`` reads both files back and diffs the decoded events.
    """
    from repro.trace import columnar, read_trace

    if len(req.paths) != 2:
        return _fail("error: trace convert needs exactly IN and OUT paths")
    src, dst = req.paths
    if not os.path.isfile(src):
        return _fail(f"error: trace {src!r} does not exist")
    missing = _missing_dir(dst)
    if missing:
        return missing
    try:
        run = read_trace(src)
    except ReproError as e:
        return _fail(f"error: {e}")
    fmt = req.trace_format
    if fmt is None:
        fmt = "jsonl" if columnar.is_columnar(src) else "columnar"
    write_trace(run, dst, trace_format=fmt)
    lines = [f"converted {src} -> {dst} ({fmt}, {len(run.events)} events)"]
    if req.verify:
        a = read_trace(src)
        b = read_trace(dst)
        same = (a.events == b.events and a.failed == b.failed
                and a.n_threads == b.n_threads and a.seed == b.seed)
        if not same:
            return Outcome(rc=1, out="\n".join(lines),
                           err="error: verify failed: decoded traces "
                               "differ")
        lines.append(f"verified: both files decode to {len(a.events)} "
                     "identical events")
    return Outcome(rc=0, out="\n".join(lines))


def run_trace(req):
    """Record a workload trace, or convert one between formats."""
    if req.program == "convert":
        return _run_trace_convert(req)
    if req.paths:
        return _fail("error: unexpected extra arguments "
                     f"{' '.join(req.paths)!r} (paths are only for "
                     "'trace convert')")
    missing = _missing_dir(req.out)
    if missing:
        return missing
    try:
        program = get_workload(req.program)
    except ReproError as e:
        return _fail(f"error: {e}")
    run = run_program(program, seed=req.seed)
    write_trace(run, req.out, trace_format=req.trace_format)
    return Outcome(
        rc=0,
        out=f"wrote {len(run.events)} events "
            f"({run.n_threads} threads, failed={run.failed}) to {req.out}")


# ---------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileRequest:
    """``repro profile`` as data (run profiles and saved-file renders)."""

    programs: Tuple[str, ...] = ()
    seed: int = 1
    train_runs: int = 6
    pruning_runs: int = 8
    load: Optional[str] = None
    flame: bool = False
    critical_path: bool = False
    openmetrics: bool = False
    tick_clock: bool = False

    kind = "profile"

    @classmethod
    def from_args(cls, args):
        return cls(programs=tuple(args.programs), seed=args.seed,
                   train_runs=args.train_runs,
                   pruning_runs=args.pruning_runs, load=args.load,
                   flame=args.flame, critical_path=args.critical_path,
                   openmetrics=args.openmetrics,
                   tick_clock=args.tick_clock)


def _bug_run_profile(name, req):
    """Diagnose ``name`` under a fresh registry; return the profile dict."""
    program = get_bug(name)
    registry = telemetry.Registry(
        clock=TickClock() if req.tick_clock else None)
    with telemetry.use_registry(registry):
        report = diagnose_failure(program,
                                  n_train_runs=req.train_runs,
                                  n_pruning_runs=req.pruning_runs)
    meta = {"program": name, "found": report.found}
    if report.rank is not None:
        meta["rank"] = report.rank
    return profile_dict(
        registry, meta=meta, self_overhead=True,
        calibration=selfcost.PINNED_CALIBRATION if req.tick_clock else None)


def _rendered_profile(profile, req, title=None):
    """The requested views of ``profile`` as text chunks."""
    chunks = []
    if req.flame:
        chunks.append(format_flame(profile.get("spans") or []))
    if req.critical_path:
        chunks.append(format_critical_path(profile.get("spans") or []))
    if req.openmetrics:
        chunks.append(render_openmetrics(profile))
    if not chunks:
        chunks.append(format_profile(profile, title=title))
    return chunks


def run_profile(req):
    """Render run profiles (fresh diagnoses, kernels, or saved files)."""
    if req.load:
        if not os.path.isfile(req.load):
            return _fail(f"error: profile {req.load!r} does not exist")
        profile = (read_events_profile(req.load)
                   if is_event_stream(req.load)
                   else read_profile(req.load))
        return Outcome(rc=0,
                       out="\n".join(_rendered_profile(profile, req)))
    from repro.workloads.generator import parse_generated_name

    bug_names = set(all_bug_names())
    names = list(req.programs) or all_kernel_names()
    comm_profiles = []
    chunks = []
    for name in names:
        if name in bug_names or parse_generated_name(name) is not None:
            profile = _bug_run_profile(name, req)
            if chunks:
                chunks.append("")
            chunks.extend(_rendered_profile(profile, req,
                                            title=f"run profile: {name}"))
        else:
            from repro.sim.trace_stats import profile_run

            program = get_kernel(name)
            run = run_program(program, seed=req.seed)
            comm_profiles.append(profile_run(run, name=name))
    if comm_profiles:
        from repro.sim.trace_stats import profile_table

        if chunks:
            chunks.append("")
        chunks.append(profile_table(comm_profiles))
    return Outcome(rc=0, out="\n".join(chunks))


# ---------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------

REQUEST_TYPES = {
    "diagnose": DiagnoseRequest,
    "corpus": CorpusRequest,
    "shootout": ShootoutRequest,
    "frontier": FrontierRequest,
    "trace": TraceRequest,
    "profile": ProfileRequest,
}

_RUNNERS = {
    "diagnose": run_diagnose,
    "corpus": run_corpus,
    "shootout": run_shootout,
    "frontier": run_frontier,
    "trace": run_trace,
    "profile": run_profile,
}


def run_request(req):
    """Dispatch any request to its runner."""
    return _RUNNERS[req.kind](req)


# ---------------------------------------------------------------------
# trained-state cache directory
# ---------------------------------------------------------------------

class TrainedStateDir:
    """``diagnose --cache-dir``: trained state on disk, one file per key.

    Plugs into the engines' store interface (``get`` plus item
    assignment, keyed by :meth:`~repro.engines.Predictor.store_key`).
    Each entry is a :class:`~repro.faults.Checkpoint` of kind
    ``"trained-state"`` at ``DIR/<sha256(key)>.json``: the key is its
    fingerprint and the ``Predictor.serialize`` payload its one phase.
    A corrupt, edited or colliding entry is refused with
    :class:`~repro.common.errors.CheckpointError`, never loaded.
    """

    KIND = "trained-state"

    def __init__(self, path):
        self.path = path

    def _file(self, key):
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self.path, f"{digest}.json")

    def get(self, key):
        """Stored payload for ``key`` (None on miss); counts the lookup."""
        entry = Checkpoint.open(self._file(key), self.KIND, key)
        state = entry.phases.get("state")
        telemetry.get_registry().inc(
            "cache.misses" if state is None else "cache.hits")
        return state

    def __setitem__(self, key, payload):
        os.makedirs(self.path, exist_ok=True)
        Checkpoint(self._file(key), self.KIND, key).put("state", payload)
