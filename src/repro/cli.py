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
``diagnose``/``trace``/``corpus``/``experiment`` accept ``--telemetry
PATH`` to export a run profile (counters + nested phase spans, see
:mod:`repro.telemetry`), ``--events PATH`` to attach the bounded
flight recorder and flush its JSONL event stream, and ``--tick-clock``
to drive all telemetry timestamps from a deterministic tick clock
(byte-identical exports across reruns, including ``--jobs N`` runs).
``profile`` renders profiles for humans -- given a bug name it runs a
telemetry-enabled diagnosis and prints the phase/counter tables, given
kernel names it prints the communication profile, and ``--load``
re-renders a saved profile JSON *or* a flight recording; ``--flame``
emits folded stacks for flamegraph tooling, ``--critical-path`` the
heaviest root-to-leaf span chain, and ``--openmetrics`` the OpenMetrics
text exposition of the metrics.

``diagnose --cache-dir DIR`` keeps trained state on disk: a repeat
diagnosis of the same program, engine, config and training runs loads
it instead of retraining, and prints exactly what a cold run prints.
"""

import argparse
import os
import sys

from repro import __version__
from repro.analysis.experiments import experiment_names


def _emit(outcome):
    """Print an :class:`~repro.service.ops.Outcome`: stdout text, then
    stderr text; return its exit code."""
    if outcome.out:
        print(outcome.out)
    if outcome.err:
        print(outcome.err, file=sys.stderr)
    return outcome.rc


def _cmd_list(_args):
    from repro.workloads.registry import all_bug_names, all_kernel_names

    print("kernels:", ", ".join(all_kernel_names()))
    print("bugs:   ", ", ".join(all_bug_names()))
    print("generated: gen-<archetype>-<motif>-s<seed>, e.g. "
          "gen-atomicity-pipeline-s7")
    print("experiments:", ", ".join(experiment_names()))
    return 0


def _cmd_request(args):
    """``diagnose``, ``trace``, ``profile``, ``corpus``, ``shootout`` and
    ``frontier``: the request built from the flags, run by
    :mod:`repro.service.ops`."""
    from repro.service import ops

    req = ops.REQUEST_TYPES[args.command].from_args(args)
    return _emit(ops.run_request(req))


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


def _add_telemetry_args(cmd):
    """The telemetry trio shared by every pipeline-running command."""
    cmd.add_argument("--telemetry", metavar="PATH",
                     help="export a telemetry run profile (json/jsonl)")
    cmd.add_argument("--events", metavar="PATH",
                     help="attach the bounded flight recorder and flush "
                          "its JSONL event stream (span open/close, "
                          "counter deltas, fault/quarantine events, "
                          "simulator samples) to PATH")
    cmd.add_argument("--events-capacity", type=int, default=None,
                     metavar="N",
                     help="flight-recorder ring size (default 65536; "
                          "oldest non-span events drop first)")
    cmd.add_argument("--tick-clock", action="store_true",
                     help="drive telemetry timestamps from a deterministic "
                          "tick clock: exports and event streams become "
                          "byte-identical across reruns (self-overhead is "
                          "then modelled from pinned unit costs)")


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
    d.add_argument("--top", type=int, default=5)
    d.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for independent runs "
                        "(results identical to serial; 0 = all CPUs)")
    d.add_argument("--engine", default="nn", metavar="NAME",
                   help="predictor engine (see docs/engines.md): nn "
                        "(default), aviso, pbi, pset, ensemble, or "
                        "ensemble:a+b for explicit members")
    d.add_argument("--no-fast", dest="fast", action="store_false",
                   help="replay the failure run through the scalar "
                        "reference path instead of the batched fast path")
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


def _csv_floats(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _csv_ints(text):
    return tuple(int(v) for v in text.split(",") if v.strip())


def _add_trace_args(t):
    """``trace`` flags."""
    t.add_argument("program",
                   help="workload name, or 'convert' to re-encode an "
                        "existing trace file")
    t.add_argument("paths", nargs="*", metavar="PATH",
                   help="for 'convert': the input and output trace files")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", default="trace.jsonl")
    t.add_argument("--trace-format", choices=("jsonl", "columnar"),
                   default=None,
                   help="on-disk trace format (default jsonl when "
                        "recording; for 'convert' the default is the "
                        "opposite of the input's format). Reads always "
                        "auto-detect.")
    t.add_argument("--verify", action="store_true",
                   help="after 'convert', read both files back and "
                        "check they decode to identical events")


def _add_profile_args(p):
    """``profile`` flags."""
    p.add_argument("programs", nargs="*")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--train-runs", type=int, default=6)
    p.add_argument("--pruning-runs", type=int, default=8)
    p.add_argument("--load", metavar="PATH",
                   help="render a previously saved telemetry profile or "
                        "flight recording")
    p.add_argument("--flame", action="store_true",
                   help="print folded stacks (flamegraph.pl/speedscope "
                        "input) instead of tables")
    p.add_argument("--critical-path", action="store_true",
                   help="print the heaviest root-to-leaf span chain")
    p.add_argument("--openmetrics", action="store_true",
                   help="print the metrics in OpenMetrics text format")
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
    cmd.add_argument("--top", type=int, default=5, metavar="K",
                     help="k for the top-k metrics")
    cmd.add_argument("--jobs", type=int, default=None, metavar="N",
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
    c.add_argument("--trace-format", choices=("jsonl", "columnar"),
                   default="columnar",
                   help="format for --trace-dir trace files "
                        "(default columnar)")
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
    s.add_argument("--engines", metavar="NAMES", default=None,
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
    f.add_argument("--no-backoff", action="store_true",
                   help="disable load-shedding backoff at sampled rates")
    f.add_argument("--no-tighten", action="store_true",
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
        help="record a workload trace, or convert one between formats")
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
    e.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for independent runs "
                        "(results identical to serial; 0 = all CPUs)")
    _add_telemetry_args(e)

    return parser


def _check_out_dir(path, what):
    out_dir = os.path.dirname(path)
    if out_dir and not os.path.isdir(out_dir):
        print(f"error: {what} directory {out_dir!r} does not exist",
              file=sys.stderr)
        return False
    return True


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "diagnose": _cmd_request,
        "trace": _cmd_request,
        "profile": _cmd_request,
        "corpus": _cmd_request,
        "shootout": _cmd_request,
        "frontier": _cmd_request,
        "experiment": _cmd_experiment,
    }[args.command]
    telemetry_out = getattr(args, "telemetry", None)
    events_out = getattr(args, "events", None)
    tick = getattr(args, "tick_clock", False) and args.command != "profile"
    if not (telemetry_out or events_out or tick):
        return handler(args)

    if telemetry_out and not _check_out_dir(telemetry_out, "telemetry"):
        return 2
    if events_out and not _check_out_dir(events_out, "events"):
        return 2
    from repro import telemetry
    from repro.telemetry import (
        FlightRecorder,
        TickClock,
        profile_dict,
        selfcost,
    )

    registry = telemetry.Registry(clock=TickClock() if tick else None)
    recorder = None
    if events_out:
        capacity = getattr(args, "events_capacity", None)
        recorder = registry.attach_recorder(
            FlightRecorder(capacity=capacity)
            if capacity else FlightRecorder())
    with telemetry.use_registry(registry):
        rc = handler(args)
    meta = {"command": args.command, "version": __version__}
    if tick:
        meta["clock"] = "tick"
    calibration = selfcost.PINNED_CALIBRATION if tick else None
    if telemetry_out:
        telemetry.write_profile(registry, telemetry_out, meta=meta,
                                self_overhead=True, calibration=calibration)
        print(f"telemetry profile written to {telemetry_out}")
    if recorder is not None:
        profile = profile_dict(registry, meta=meta, self_overhead=True,
                               calibration=calibration)
        recorder.flush(events_out, meta=profile["meta"])
        print(f"flight recording written to {events_out}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
