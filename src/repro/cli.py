"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro list
    python -m repro.cli diagnose gzip
    python -m repro.cli diagnose mysql1 --debug-buffer 120
    python -m repro.cli diagnose gzip --telemetry profile.json
    python -m repro.cli diagnose gzip --checkpoint ck.json    # resumable
    python -m repro.cli diagnose gzip --resume ck.json
    python -m repro.cli diagnose gzip --faults seed=3,run_corrupt=0.3 \
        --quarantine-report quarantine.json
    python -m repro.cli diagnose gen-atomicity-pipeline-s7   # generated bug
    python -m repro.cli trace lu --seed 3 --out lu.jsonl
    python -m repro.cli experiment table5 --preset fast
    python -m repro.cli profile gzip          # telemetry phase/counter table
    python -m repro.cli profile lu mcf        # workload communication profile
    python -m repro.cli corpus --seed 7 --size 20 --jobs 4 \
        --out metrics.json                    # accuracy on generated corpus
    python -m repro.cli diagnose gzip --engine pset   # baseline engine
    python -m repro.cli shootout --seed 7 --size 20 \
        --out shootout.json                   # race all engines (Table I)
    python -m repro.cli diagnose gzip --policy rate=0.5,seed=3,backoff=1
    python -m repro.cli frontier --seed 7 --size 20 \
        --out frontier.json     # sampling-rate x FIFO Pareto frontier
    python -m repro.cli diagnose gzip --cache-dir cache  # reuse training

``diagnose`` runs the full ACT pipeline against a bundled bug program
or a generated one (``gen-<archetype>-<motif>-s<seed>``); ``trace``
records a workload execution to a JSON-lines trace file; ``experiment``
regenerates one of the paper's tables/figures; ``corpus`` runs the
diagnosis-accuracy harness over a seeded generated corpus and prints
precision/recall/rank tables (see ``docs/accuracy.md``); ``frontier``
sweeps adaptive sampling rates against FIFO depths and prints the
overhead-vs-accuracy Pareto table (see ``docs/adaptive.md``).
``diagnose``/``trace``/``corpus``/``shootout``/``frontier``/
``experiment`` accept ``--telemetry PATH`` to export the run profile
(counters + nested phase spans, see :mod:`repro.telemetry`), the one
telemetry record, and ``--tick-clock`` (only together with
``--telemetry``) to drive its timestamps from a deterministic tick
clock (byte-identical profiles across reruns, including ``--jobs N``
runs). ``profile`` renders profiles for humans -- given a bug name it
runs a telemetry-enabled diagnosis and prints the phase/counter tables,
given kernel names it prints the communication profile, and ``--load``
re-renders a saved profile JSON; ``--flame`` emits folded stacks for
flamegraph tooling and ``--critical-path`` the heaviest root-to-leaf
span chain.

``diagnose --cache-dir DIR`` keeps trained state on disk: a repeat
diagnosis of the same program, engine, config and training runs loads
it instead of retraining, and prints exactly what a cold run prints.
"""

import argparse
import os
import sys

from repro import __version__
from repro.analysis.experiments import experiment_names
from repro.common.errors import CheckpointError, EngineError, ReproError


def _fail(message):
    """A command error: ``message`` on stderr, exit code 2."""
    print(message, file=sys.stderr)
    return 2


def _missing_dir(what, *paths):
    """Print the error for the first of ``paths`` whose directory does
    not exist; return whether there was one."""
    for path in paths:
        out_dir = os.path.dirname(path) if path else ""
        if out_dir and not os.path.isdir(out_dir):
            _fail(f"error: {what} directory {out_dir!r} does not exist")
            return True
    return False


def _run_options(args, engine):
    """``--checkpoint``/``--resume``, ``--faults``, ``--policy`` and the
    quarantine of ``diagnose`` and ``corpus``, as (checkpoint, plan,
    policy, quarantine); None once an error is printed.

    The adaptive layer is NN-path-only: an enabled policy with any
    other ``engine`` is an error. No ``--policy`` means no policy (the
    historical pipeline, byte-identical).
    """
    from repro.core.policy import PolicySpec
    from repro.faults import FaultPlan, Quarantine

    checkpoint = args.checkpoint
    if args.resume:
        if not os.path.isfile(args.resume):
            _fail(f"error: checkpoint {args.resume!r} does not exist")
            return None
        checkpoint = args.resume
    plan = None
    if args.faults:
        try:
            plan = FaultPlan.from_spec(args.faults)
        except ReproError as e:
            _fail(f"error: bad --faults spec: {e}")
            return None
    policy = None
    if args.policy:
        try:
            policy = PolicySpec.from_spec(args.policy)
        except ReproError as e:
            _fail(f"error: bad --policy spec: {e}")
            return None
        if policy.enabled and engine != "nn":
            _fail(f"error: --policy is NN-path-only; engine {engine!r} "
                  "does not support it")
            return None
    quarantine = None
    if plan is not None or args.quarantine_report:
        quarantine = Quarantine()
    return checkpoint, plan, policy, quarantine


def _print_quarantine(quarantine, report_path):
    """The quarantine epilogue of ``diagnose`` and ``corpus``."""
    if len(quarantine):
        print(quarantine.summary())
    if report_path:
        quarantine.write_report(report_path)
        print(f"quarantine report written to {report_path}")


def _cmd_list(_args):
    from repro.workloads.registry import all_bug_names, all_kernel_names

    print("kernels:", ", ".join(all_kernel_names()))
    print("bugs:   ", ", ".join(all_bug_names()))
    print("generated: gen-<archetype>-<motif>-s<seed>, e.g. "
          "gen-atomicity-pipeline-s7")
    print("experiments:", ", ".join(experiment_names()))
    return 0


def _cmd_diagnose(args):
    """Diagnose one bug, reusing trained state from ``--cache-dir``."""
    from repro.core.config import ACTConfig
    from repro.engines import TrainedStateDir, create
    from repro.workloads.registry import get_bug

    try:
        program = get_bug(args.bug)
    except ReproError as e:
        return _fail(f"error: {e}")
    config = ACTConfig(seq_len=args.seq_len,
                       debug_buffer=args.debug_buffer,
                       mispred_threshold=args.threshold)
    try:
        engine = create(args.engine or "nn", config=config)
    except EngineError as e:
        return _fail(f"error: {e}")
    options = _run_options(args, engine.name)
    if options is None:
        return 2
    checkpoint, plan, policy, quarantine = options
    store = None
    if args.cache_dir:
        if os.path.exists(args.cache_dir) and not os.path.isdir(
                args.cache_dir):
            return _fail(f"error: cache dir {args.cache_dir!r} is not a "
                         "directory")
        store = TrainedStateDir(args.cache_dir)
    try:
        report = engine.diagnose_report(
            program, n_train_runs=args.train_runs,
            n_pruning_runs=args.pruning_runs, failure_seed=args.seed,
            faults=plan, quarantine=quarantine, checkpoint=checkpoint,
            policy=policy, store=store)
    except (CheckpointError, EngineError) as e:
        return _fail(f"error: {e}")
    print(f"program          : {report.program}")
    if report.engine is None:
        print(f"failure          : {report.failure_description}")
        print(f"deps observed    : {report.n_deps} "
              f"({report.n_invalid} flagged invalid)")
        print(f"debug buffer     : {report.n_debug_entries} entries"
              f"{' (overflowed)' if report.debug_overflowed else ''}")
        print(f"filtered         : {report.filter_pct:.0f}%")
        findings = []
        for f in report.top(args.top):
            dep = f.mismatch_dep or f.seq[-1]
            findings.append(
                f"store {dep.store_pc:#x} -> load {dep.load_pc:#x} "
                f"({'inter' if dep.inter_thread else 'intra'}-thread, "
                f"matched {f.matched}, output {f.output:.3f})")
    else:
        print(f"engine           : {report.engine}")
        print(f"failure          : {report.failure_description}")
        print(f"candidates       : {len(report.candidates)}")
        if not report.applicable:
            print("applicable       : False")
        findings = [f"{cand['key']} (score {cand['score']:.3f}"
                    f"{', hit' if cand['hit'] else ''})"
                    for cand in report.candidates[:args.top]]
    print(f"root cause found : {report.found}"
          + (f" at rank {report.rank}" if report.found else ""))
    for note in report.notes:
        print(f"note: {note}")
    for i, finding in enumerate(findings, start=1):
        print(f"  #{i}: {finding}")
    if quarantine is not None:
        _print_quarantine(quarantine, args.quarantine_report)
    return 0 if report.found else 1


def _sweep_spec(args):
    """The spec fields every corpus experiment takes from the flags
    :func:`_add_sweep_args` declares."""
    from repro.core.config import ACTConfig

    return dict(seed=args.seed, size=args.size, top_k=args.top,
                n_train_runs=args.train_runs,
                n_pruning_runs=args.pruning_runs,
                config=ACTConfig(seq_len=args.seq_len))


def _print_sweep(result, text, out, bench=None):
    """Print a corpus experiment's rendered ``text``, write its metrics
    JSON to ``out`` and append its trajectory entry to ``bench``,
    noting each."""
    from repro.analysis.accuracy import append_trajectory, metrics_json

    print(text)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(metrics_json(result))
        print(f"metrics written to {out}")
    if bench:
        doc = append_trajectory(result.entry, bench)
        print(f"accuracy trajectory: {bench} "
              f"({len(doc['entries'])} entries)")


def _cmd_corpus(args):
    """Run the diagnosis-accuracy harness over a generated corpus."""
    from repro.analysis.accuracy import (
        CorpusSpec,
        format_corpus,
        run_corpus,
        write_corpus_traces,
    )
    from repro.engines import create

    if _missing_dir("output", args.out):
        return 2
    engine = args.engine or "nn"
    # Corpus checkpoints hold per-program *records* (engine-agnostic,
    # keyed by a fingerprint that includes the engine), so unlike
    # diagnose no checkpoint restriction applies here.
    try:
        create(engine)
    except EngineError as e:
        return _fail(f"error: {e}")
    options = _run_options(args, engine)
    if options is None:
        return 2
    checkpoint, plan, policy, quarantine = options
    spec = CorpusSpec(engine=engine, policy=policy, **_sweep_spec(args))
    try:
        result = run_corpus(spec, jobs=args.jobs, faults=plan,
                            quarantine=quarantine, checkpoint=checkpoint)
    except CheckpointError as e:
        return _fail(f"error: {e}")
    _print_sweep(result, format_corpus(result), args.out)
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        paths = write_corpus_traces(spec, args.trace_dir)
        print(f"wrote {len(paths)} jsonl failure traces "
              f"to {args.trace_dir}")
    if quarantine is not None:
        _print_quarantine(quarantine, args.quarantine_report)
    return 0


def _cmd_shootout(args):
    """Race every (selected) engine over the same corpus."""
    from repro.analysis.shootout import (
        ShootoutSpec,
        format_shootout,
        run_shootout,
    )
    from repro.engines import create

    bench = None if args.no_bench else args.bench
    if _missing_dir("output", args.out, bench):
        return 2
    for name in args.engines:
        try:
            create(name)
        except EngineError as e:
            return _fail(f"error: {e}")
    spec = ShootoutSpec(engines=args.engines, **_sweep_spec(args))
    result = run_shootout(spec, jobs=args.jobs)
    _print_sweep(result, format_shootout(result), args.out, bench)
    return 0


def _cmd_frontier(args):
    """Sweep sampling rates x FIFO depths into a Pareto table."""
    from repro.analysis.frontier import (
        FrontierSpec,
        format_frontier,
        run_frontier,
    )

    bench = None if args.no_bench else args.bench
    if _missing_dir("output", args.out, bench):
        return 2
    try:
        spec = FrontierSpec(rates=args.rates, fifo_sizes=args.fifo_sizes,
                            policy_seed=args.policy_seed,
                            backoff=args.backoff, tighten=args.tighten,
                            **_sweep_spec(args))
    except ReproError as e:
        return _fail(f"error: {e}")
    result = run_frontier(spec, jobs=args.jobs)
    _print_sweep(result, format_frontier(result), args.out, bench)
    return 0


def _cmd_trace(args):
    """Record a workload trace as a JSON-lines file."""
    if _missing_dir("output", args.out):
        return 2
    from repro.trace import write_trace
    from repro.workloads.framework import run_program
    from repro.workloads.registry import get_workload

    try:
        program = get_workload(args.program)
    except ReproError as e:
        return _fail(f"error: {e}")
    run = run_program(program, seed=args.seed)
    write_trace(run, args.out)
    print(f"wrote {len(run.events)} events ({run.n_threads} threads, "
          f"failed={run.failed}) to {args.out}")
    return 0


def _bug_run_profile(name, args):
    """Diagnose ``name`` under a fresh registry; return the profile dict."""
    from repro import telemetry
    from repro.core.diagnosis import diagnose_failure
    from repro.telemetry import TickClock, profile_dict
    from repro.workloads.registry import get_bug

    program = get_bug(name)
    registry = telemetry.Registry(
        clock=TickClock() if args.tick_clock else None)
    with telemetry.use_registry(registry):
        report = diagnose_failure(program, n_train_runs=args.train_runs,
                                  n_pruning_runs=args.pruning_runs)
    meta = {"program": name, "found": report.found}
    if report.rank is not None:
        meta["rank"] = report.rank
    return profile_dict(registry, meta=meta)


def _rendered_profile(profile, args, title=None):
    """The requested views of ``profile`` as text chunks."""
    from repro.telemetry import (
        format_critical_path,
        format_flame,
        format_profile,
    )

    chunks = []
    if args.flame:
        chunks.append(format_flame(profile.get("spans") or []))
    if args.critical_path:
        chunks.append(format_critical_path(profile.get("spans") or []))
    if not chunks:
        chunks.append(format_profile(profile, title=title))
    return chunks


def _profile_programs(args):
    """Run profiles of the named bugs, then one communication-profile
    table of the named kernels (all kernels when none are named)."""
    from repro.sim.trace_stats import profile_run, profile_table
    from repro.workloads.framework import run_program
    from repro.workloads.generator import parse_generated_name
    from repro.workloads.registry import (
        all_bug_names,
        all_kernel_names,
        get_kernel,
    )

    bug_names = set(all_bug_names())
    comm_profiles = []
    chunks = []
    for name in args.programs or all_kernel_names():
        if name in bug_names or parse_generated_name(name) is not None:
            if chunks:
                chunks.append("")
            chunks.extend(_rendered_profile(_bug_run_profile(name, args),
                                            args,
                                            title=f"run profile: {name}"))
        else:
            run = run_program(get_kernel(name), seed=args.seed)
            comm_profiles.append(profile_run(run, name=name))
    if comm_profiles:
        if chunks:
            chunks.append("")
        chunks.append(profile_table(comm_profiles))
    return chunks


def _cmd_profile(args):
    """Render run profiles (fresh diagnoses, kernels, or saved files)."""
    if args.load:
        from repro.telemetry import read_profile

        if os.path.isdir(args.load):
            return _fail(f"error: profile {args.load!r} is not a file")
        if not os.path.isfile(args.load):
            return _fail(f"error: profile {args.load!r} does not exist")
        try:
            profile = read_profile(args.load)
        except ReproError as e:
            return _fail(f"error: {e}")
        chunks = _rendered_profile(profile, args)
    else:
        chunks = _profile_programs(args)
    text = "\n".join(chunks)
    if text:
        print(text)
    return 0


def _cmd_experiment(args):
    from dataclasses import replace

    from repro.analysis import presets
    from repro.analysis.experiments import run_experiment

    preset = {"fast": presets.FAST, "bench": presets.BENCH,
              "full": presets.FULL}[args.preset]
    if args.jobs is not None:
        preset = replace(preset, jobs=args.jobs)
    print(run_experiment(args.name, preset))
    return 0


# -- parser ------------------------------------------------------------


def _at_least(floor):
    """argparse type for an integer count of at least ``floor``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = floor - 1
        if value < floor:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {floor}, got {text!r}")
        return value
    return parse


def _csv_names(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _csv_floats(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _csv_ints(text):
    return tuple(int(v) for v in text.split(",") if v.strip())


def _add_telemetry_args(cmd):
    """The telemetry pair shared by every pipeline-running command."""
    cmd.add_argument("--telemetry", metavar="PATH",
                     help="export the telemetry run profile as JSON")
    cmd.add_argument("--tick-clock", action="store_true",
                     help="with --telemetry: drive profile timestamps "
                          "from a deterministic tick clock, so the "
                          "profile is byte-identical across reruns")


def _add_diagnose_args(d):
    """``diagnose`` flags."""
    d.add_argument("bug", metavar="BUG",
                   help="a bundled bug name (see 'repro list') or a "
                        "generated name like gen-atomicity-pipeline-s7")
    d.add_argument("--seed", type=int, default=12345)
    d.add_argument("--train-runs", type=int, default=10)
    d.add_argument("--pruning-runs", type=int, default=20)
    d.add_argument("--seq-len", type=int, default=5)
    d.add_argument("--debug-buffer", type=int, default=60)
    d.add_argument("--threshold", type=float, default=0.05)
    d.add_argument("--top", type=_at_least(1), default=5)
    d.add_argument("--engine", default="nn", metavar="NAME",
                   help="predictor engine (see docs/engines.md): nn "
                        "(default), aviso, pbi, pset, ensemble, or "
                        "ensemble:a+b for explicit members")
    d.add_argument("--checkpoint", metavar="PATH",
                   help="save checksummed phase snapshots to PATH "
                        "(created if missing, resumed if present)")
    d.add_argument("--resume", metavar="PATH",
                   help="resume a diagnosis from an existing checkpoint "
                        "(like --checkpoint, but PATH must exist)")
    d.add_argument("--faults", metavar="SPEC",
                   help="inject faults from a deterministic plan spec, "
                        "e.g. 'seed=3,run_corrupt=0.2,worker_kill=0.1' "
                        "(failed units are quarantined, not fatal)")
    d.add_argument("--quarantine-report", metavar="PATH",
                   help="write the quarantine report (skipped units and "
                        "why) as JSON")
    d.add_argument("--cache-dir", metavar="DIR",
                   help="keep trained state in DIR (created if missing) "
                        "and reuse it on a repeat diagnosis instead of "
                        "retraining; output is identical either way")
    _add_policy_arg(d)


def _add_policy_arg(cmd):
    cmd.add_argument("--policy", metavar="SPEC",
                     help="adaptive tracking policy, e.g. "
                          "'rate=0.5,seed=3,backoff=1' (seeded sampling + "
                          "load shedding; NN engine only -- see "
                          "docs/adaptive.md). Omitted = full-rate "
                          "tracking, byte-identical to the policy-free "
                          "pipeline")


def _add_trace_args(t):
    """``trace`` flags."""
    t.add_argument("program", help="workload name")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", default="trace.jsonl")


def _add_profile_args(p):
    """``profile`` flags."""
    p.add_argument("programs", nargs="*")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--train-runs", type=int, default=6)
    p.add_argument("--pruning-runs", type=int, default=8)
    p.add_argument("--load", metavar="PATH",
                   help="render a previously saved telemetry profile")
    p.add_argument("--flame", action="store_true",
                   help="print folded stacks (flamegraph.pl/speedscope "
                        "input) instead of tables")
    p.add_argument("--critical-path", action="store_true",
                   help="print the heaviest root-to-leaf span chain")
    p.add_argument("--tick-clock", action="store_true",
                   help="use the deterministic tick clock for fresh "
                        "profile runs")


def _add_sweep_args(cmd, what, bench=None):
    """Flags every corpus experiment shares: corpus shape, fan-out, the
    metrics JSON (``what``) and, when ``bench`` names what a run adds
    to it, the accuracy trajectory."""
    cmd.add_argument("--seed", type=int, default=7,
                     help="corpus seed (same seed + size => byte-identical "
                          "metrics JSON, whatever --jobs is)")
    cmd.add_argument("--size", type=int, default=20,
                     help="number of generated programs")
    cmd.add_argument("--train-runs", type=int, default=6)
    cmd.add_argument("--pruning-runs", type=int, default=8)
    cmd.add_argument("--seq-len", type=int, default=3,
                     help="dependences per NN input (generated programs "
                          "are sized for the default of 3)")
    cmd.add_argument("--top", type=_at_least(1), default=5, metavar="K",
                     help="k for the top-k metrics")
    cmd.add_argument("--jobs", type=_at_least(0), default=None, metavar="N",
                     help="worker processes for independent programs "
                          "(results identical to serial; 0 = all CPUs)")
    cmd.add_argument("--out", metavar="PATH",
                     help=f"write the canonical {what} JSON to PATH")
    if bench:
        cmd.add_argument("--bench", metavar="PATH",
                         default="BENCH_accuracy.json",
                         help=f"accuracy-trajectory file to append {bench} "
                              "to (default BENCH_accuracy.json)")
        cmd.add_argument("--no-bench", action="store_true",
                         help="do not touch the accuracy-trajectory file")


def _add_corpus_args(c):
    """``corpus`` flags."""
    _add_sweep_args(c, "metrics")
    c.add_argument("--engine", default="nn", metavar="NAME",
                   help="predictor engine to score (see docs/engines.md; "
                        "default nn)")
    c.add_argument("--trace-dir", metavar="DIR",
                   help="also record each program's failure run as a "
                        "trace file under DIR (created if missing)")
    c.add_argument("--checkpoint", metavar="PATH",
                   help="save per-program snapshots to PATH "
                        "(created if missing, resumed if present)")
    c.add_argument("--resume", metavar="PATH",
                   help="resume a corpus run from an existing checkpoint "
                        "(like --checkpoint, but PATH must exist)")
    c.add_argument("--faults", metavar="SPEC",
                   help="inject faults from a deterministic plan spec; "
                        "programs lost to faults are quarantined and "
                        "scored as misses")
    c.add_argument("--quarantine-report", metavar="PATH",
                   help="write the quarantine report (skipped programs "
                        "and why) as JSON")
    _add_policy_arg(c)


def _add_shootout_args(s):
    """``shootout`` flags."""
    _add_sweep_args(s, "shootout metrics",
                    bench="per-engine recall/top-1")
    s.add_argument("--engines", type=_csv_names, default=(),
                   metavar="NAMES",
                   help="comma-separated engine names to race "
                        "(default: every registered engine)")


def _add_frontier_args(f):
    """``frontier`` flags."""
    _add_sweep_args(f, "frontier metrics", bench="the frontier pick")
    f.add_argument("--rates", type=_csv_floats,
                   default=(1.0, 0.75, 0.5, 0.25), metavar="R,R,...",
                   help="comma-separated sampling rates to sweep; 1.0 "
                        "(the policy-free baseline) is always included "
                        "(default 1.0,0.75,0.5,0.25)")
    f.add_argument("--fifo-sizes", type=_csv_ints, default=(4, 8, 16),
                   metavar="N,N,...",
                   help="comma-separated FIFO depths for the overhead "
                        "simulation (default 4,8,16)")
    f.add_argument("--policy-seed", type=int, default=0,
                   help="seed for the sampling hash (default 0)")
    f.add_argument("--no-backoff", dest="backoff", action="store_false",
                   help="disable load-shedding backoff at sampled rates")
    f.add_argument("--no-tighten", dest="tighten", action="store_false",
                   help="disable suspicion-directed tightening (sampled "
                        "passes then run blind, without the full-rate "
                        "pass's suspicious-PC feedback)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="ACT failure-diagnosis reproduction")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list bundled workloads and experiments")

    d = sub.add_parser("diagnose",
                       help="diagnose a bundled or generated bug with ACT")
    _add_diagnose_args(d)
    _add_telemetry_args(d)

    t = sub.add_parser(
        "trace",
        help="record a workload trace as a JSON-lines file")
    _add_trace_args(t)
    _add_telemetry_args(t)

    p = sub.add_parser(
        "profile",
        help="telemetry run profile of a bug diagnosis, or the "
             "communication profile of workloads")
    _add_profile_args(p)

    c = sub.add_parser(
        "corpus",
        help="diagnosis accuracy over a generated ground-truth corpus")
    _add_corpus_args(c)
    _add_telemetry_args(c)

    sh = sub.add_parser(
        "shootout",
        help="race every registered engine over the same corpus "
             "(Table-I-style comparison)")
    _add_shootout_args(sh)
    _add_telemetry_args(sh)

    fr = sub.add_parser(
        "frontier",
        help="sweep sampling rates x FIFO depths over a generated "
             "corpus into an adaptive-overhead Pareto table")
    _add_frontier_args(fr)
    _add_telemetry_args(fr)

    e = sub.add_parser("experiment", help="regenerate a table/figure")
    e.add_argument("name", choices=experiment_names())
    e.add_argument("--preset", choices=("fast", "bench", "full"),
                   default="fast")
    e.add_argument("--jobs", type=_at_least(0), default=None, metavar="N",
                   help="worker processes for the corpus sweeps and the "
                        "Table IV topology grid (results identical to "
                        "serial; 0 = all CPUs)")
    _add_telemetry_args(e)

    return parser


def main(argv=None):
    """Run one ``repro`` command; returns its exit code.

    A reader that closes stdout early (``repro ... | head -1``) ends the
    command quietly with exit code 1, not a ``BrokenPipeError``
    traceback: stdout is flushed here, so a broken pipe surfaces inside
    the handler, and is then pointed at the null device, so the
    interpreter's own flush at exit has nothing left to fail on.
    """
    try:
        rc = _run_command(argv)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def _run_command(argv):
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "diagnose": _cmd_diagnose,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "corpus": _cmd_corpus,
        "shootout": _cmd_shootout,
        "frontier": _cmd_frontier,
        "experiment": _cmd_experiment,
    }[args.command]
    telemetry_out = getattr(args, "telemetry", None)
    tick = getattr(args, "tick_clock", False) and args.command != "profile"
    if not telemetry_out:
        if tick:
            return _fail("error: --tick-clock only applies to the "
                         "--telemetry profile; give --telemetry PATH")
        return handler(args)

    if _missing_dir("telemetry", telemetry_out):
        return 2
    from repro import telemetry
    from repro.telemetry import TickClock

    registry = telemetry.Registry(clock=TickClock() if tick else None)
    with telemetry.use_registry(registry):
        rc = handler(args)
    meta = {"command": args.command, "version": __version__}
    if tick:
        meta["clock"] = "tick"
    telemetry.write_profile(registry, telemetry_out, meta=meta)
    print(f"telemetry profile written to {telemetry_out}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
