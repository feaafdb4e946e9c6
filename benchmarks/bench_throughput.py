"""Execution, replay, simulation, orchestration, corpus and cached-diagnosis
throughput.

Ten measurements, all recorded into ``BENCH_throughput.json`` at the
repo root and into ``benchmarks/results/``, plus ``host.ref_s``: the
time of a fixed pure-Python loop in the same run, so the history can
tell a faster host from faster code. The execution, replay,
simulation, training and reference figures are each the median of
rounds repeated until they add up to at least a second of work (and at
least three rounds): a best-of-3 over 0.1-0.2 s moves with the host's
phase.

1. **Replay** -- deps/sec of :func:`deploy_on_run` over many distinct
   correct lu runs (one per seed), each a fresh deployment of one
   trained state, one dependence at a time through the per-core ACT
   Modules. Every deployment's modules share the window outputs the
   trained weights have already scored, as the deployments of one
   trained binary do. The 80 fast-preset runs hold 40 distinct windows
   among 5,760, so 99.3 % of the first pass's windows reuse a stored
   output, and every window of a later round does (34.7 % reused when
   each deployment scored its windows afresh). The figure is the
   per-dependence step of a warm, TESTING-dominated deployment. It is
   absolute, so the trend history tracks it without gating it.
   ``replay.miss_us`` prices what the memo saves: the median
   microseconds to encode and score one window with the AMs' shared
   network, as a module does on a window its dict does not hold, over
   the distinct windows of the same runs (tracked, not gated).
2. **Corpus fan-out** -- wall time of a preset-scaled corpus
   (:func:`~repro.analysis.accuracy.run_corpus_for_preset`) serial and
   with ``jobs=2`` on a live pool, from the median of alternating
   pairs, with identical metrics. The corpus starts at the preset's
   size and doubles until a serial run takes at least
   ``FANOUT_MIN_SERIAL_S``: on a shorter one the pair times the pool's
   dispatch and worker warm-up more than the fan-out (the 6-program
   fast corpus took 0.21 s serial and read 0.92x on a 2-CPU host). The
   per-program sweep is the fan-out that pays (one diagnosis runs
   serially); ``parallel.corpus_speedup``, serial over ``jobs=2``, is
   what the trend history gates. ``host_cpus`` is recorded alongside:
   on a single-CPU host the speedup honestly tops out below 1x (there
   is no second core to win on); the gate's widened threshold absorbs
   host-to-host variance.
3. **End-to-end corpus** -- wall seconds of the preset-scaled accuracy
   corpus (``repro corpus``), the number a user actually waits on: the
   median of at least 3 runs adding up to at least 1 s (one run of the
   fast corpus is about 0.2 s, short enough to move with the host's
   phase). Also exported flat as ``corpus_wall_seconds`` for the trend
   gate.
4. **Adaptive frontier** -- the sampling-rate x FIFO sweep
   (:mod:`repro.analysis.frontier`) at preset scale; the recorded
   ``frontier.overhead_proxy`` / ``frontier.top1`` ratios (the pick's
   fraction of full-rate overhead and top-1) feed the trend gates.
5. **Cached diagnosis** -- wall seconds of a full diagnosis cold
   (offline training included) vs a ``diagnose --cache-dir`` hit
   (training skipped, trained state read back from the cache
   directory). Reports are byte-identical; the recorded
   ``cache.warm_speedup`` is what a repeat ``repro diagnose --cache-dir``
   of the same (workload, seed, config) saves. Also an in-process
   re-diagnosis of the same gzip program object with ``trained=``,
   which skips training and reuses the Correct Set the first
   diagnosis kept; ``cache.rediagnose_speedup`` (cold over re-diagnosis,
   median of alternating pairs) is tracked in the trend history but
   not gated.
6. **Telemetry cost** -- wall seconds of the same gzip diagnosis under
   the disabled :class:`~repro.telemetry.NullRegistry` and under a
   recording :class:`~repro.telemetry.Registry` (what ``--telemetry``
   installs), from the median of alternating null/live pairs. Reports
   are equal; the recorded ``telemetry.overhead_pct`` is the measured
   price of recording a run profile, tracked in the trend history but
   not gated.
7. **Program execution** -- runs/sec, events/sec and deps/sec of
   executing every bundled bug on the generator scheduler and
   extracting its RAW dependences (word granularity, the streams the
   Correct Set and deployment consume), at fixed seeds: the correct
   runs a diagnosis prunes with and the failure run. Every
   diagnosis pays this path once per run, so it is most of a
   diagnosis once training is cached. ``execution.events_per_sec`` is
   tracked in the trend history but not gated (it is absolute).
8. **Simulation** -- memory accesses/sec of the timing simulator: base
   and ACT :func:`simulate_run` of the 12 Table III kernels at
   ``LARGE_PARAMS``. ``sim.accesses_per_sec`` counts every
   load and store both replays perform; it is tracked in the trend
   history but not gated (it is absolute).
9. **Offline training** -- stacked epochs/sec of
   :func:`~repro.nn.trainer.train_network` on the training sets of the
   bundled bugs at the CLI's ``--train-runs 4`` (what a ``repro
   diagnose`` of each fits). A stacked epoch steps every restart still
   running; ``training.epochs_per_sec`` counts them and is tracked in
   the trend history but not gated (it is absolute).
10. **Process start-up** -- median CPU seconds of fresh interpreters
    running ``repro diagnose gzip --train-runs 4 --pruning-runs 6``,
    ``repro --version`` and ``python -c "import numpy"``. Start-up is
    most of a ``repro diagnose``; the three ``startup.*`` figures are
    tracked in the trend history but not gated (they are absolute).
"""

import contextlib
import io
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

from repro import telemetry
from repro.analysis.accuracy import run_corpus_for_preset
from repro.analysis.scale import LARGE_PARAMS
from repro.core import offline
from repro.core.config import ACTConfig
from repro.core.deploy import deploy_on_run
from repro.core.offline import OfflineTrainer
from repro.nn.trainer import train_network
from repro.sim.machine import simulate_run
from repro.trace.raw import dep_sequences, extract_raw_deps
from repro.workloads.framework import run_program
from repro.workloads.registry import all_bug_names, get_bug, get_kernel

REPO_ROOT = pathlib.Path(__file__).parent.parent

# Distinct correct lu runs (seeds 99, 100, ...) the replay measurement
# deploys on, one fresh deployment each: a TESTING-dominated dependence
# stream (the production steady state of an always-on deployment).
REPEATS = {"fast": 80, "bench": 200, "full": 500}
# Correct-run seeds per bundled bug in the execution measurement (the
# pruning seeds of a diagnosis start at 100); plus the failure run.
N_EXECUTION_SEEDS = {"fast": 20, "bench": 50, "full": 100}
FAILURE_SEED = 12345
# The fan-out corpus doubles from the preset's size until one serial
# run takes at least this long (see measurement 2).
FANOUT_MIN_SERIAL_S = 0.5
# Processes timed by the start-up measurement, each run STARTUP_ROUNDS
# times (interleaved) for its median CPU seconds.
STARTUP_COMMANDS = {
    "diagnose_cpu_s": ["-m", "repro", "diagnose", "gzip",
                       "--train-runs", "4", "--pruning-runs", "6"],
    "version_cpu_s": ["-m", "repro", "--version"],
    "numpy_cpu_s": ["-c", "import numpy"],
}
STARTUP_ROUNDS = 5


def reference_loop(n=300_000):
    """A fixed pure-Python loop that touches none of the program: its
    time moves with the host (clock, load), not with the code."""
    total = 0
    for i in range(n):
        total = (total + i * i) % 1_000_003
    return total


def _median_of(fn, min_seconds=1.0, min_rounds=3):
    """Median wall time of rounds of ``fn``; returns (seconds, result).

    Rounds repeat until they add up to at least ``min_seconds`` and
    number at least ``min_rounds``.
    """
    times = []
    while len(times) < min_rounds or sum(times) < min_seconds:
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def _best_of_each(fns, rounds=3):
    """Best-of timings for several functions, rounds *interleaved*.

    Measuring a-a-a then b-b-b lets a load spike or frequency change
    midway skew the a/b ratio; interleaving a-b, a-b, a-b gives every
    function a sample under each machine condition, so best-of ratios
    stay honest. Returns (seconds list, results list), index-aligned
    with ``fns``.
    """
    bests = [None] * len(fns)
    outs = [None] * len(fns)
    for _ in range(rounds):
        for j, fn in enumerate(fns):
            t0 = time.perf_counter()
            result = fn()
            dt = time.perf_counter() - t0
            if bests[j] is None or dt < bests[j]:
                bests[j], outs[j] = dt, result
    return bests, outs


def _median_pair(fn_a, fn_b, pairs=9):
    """Wall times of ``fn_a`` and ``fn_b`` from the median of pairs.

    Each pair times the two back to back, in alternating order, so a
    shift in host speed between pairs hits both sides of a pair alike;
    the pair with the median ``b / a`` ratio is returned, as
    ``(seconds a, seconds b, result a, result b)``. The best of each
    side could come from different host speeds.
    """
    samples = []
    for i in range(pairs):
        t, out = [0.0, 0.0], [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            t0 = time.perf_counter()
            out[side] = (fn_a, fn_b)[side]()
            t[side] = time.perf_counter() - t0
        samples.append((t[1] / t[0], t[0], t[1], out[0], out[1]))
    samples.sort(key=lambda sample: sample[0])
    return samples[len(samples) // 2][1:]


def process_cpu_seconds(args):
    """CPU seconds (user + system) of one fresh ``python ARGS`` process
    run from the repository's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    # One BLAS thread, as perf/run.py runs it: the pool threads numpy
    # starts add CPU time (0.24 against 0.15 s for ``import numpy`` on a
    # 2-CPU host) that is not the program's work.
    env["OPENBLAS_NUM_THREADS"] = "1"
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, *args], check=True, env=env,
                   stdout=subprocess.DEVNULL, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime + after.ru_stime
            - before.ru_utime - before.ru_stime)


def startup_seconds():
    """Median CPU seconds of each :data:`STARTUP_COMMANDS` process."""
    samples = {name: [] for name in STARTUP_COMMANDS}
    for _ in range(STARTUP_ROUNDS):
        for name, args in STARTUP_COMMANDS.items():
            samples[name].append(process_cpu_seconds(args))
    return {name: statistics.median(times)
            for name, times in samples.items()}


def execute_bugs(n_seeds):
    """Execute and extract every bundled bug at fixed seeds.

    Returns ``(runs, events, deps)`` counts; the same on every call.
    """
    runs = [(seed, False) for seed in range(100, 100 + n_seeds)]
    runs.append((FAILURE_SEED, True))
    n_runs = n_events = n_deps = 0
    for name in all_bug_names():
        program = get_bug(name)
        for seed, buggy in runs:
            run = run_program(program, seed=seed, buggy=buggy)
            streams = extract_raw_deps(run)
            n_runs += 1
            n_events += len(run.events)
            n_deps += sum(len(s) for s in streams.values())
    return n_runs, n_events, n_deps


def replay_runs(trained, runs):
    """Deploy on each run afresh; returns (dependences, mode switches)."""
    n_deps = n_switches = 0
    for run in runs:
        deployment = deploy_on_run(trained, run)
        n_deps += deployment.n_deps
        n_switches += deployment.n_mode_switches
    return n_deps, n_switches


def replay_windows(trained, runs):
    """The distinct windows the per-core AMs see over ``runs``, in
    first-seen order."""
    seq_len = trained.config.seq_len
    windows = {}
    for run in runs:
        streams = extract_raw_deps(
            run, filter_stack=trained.config.filter_stack_loads)
        for stream in streams.values():
            windows.update(dict.fromkeys(dep_sequences(stream, seq_len)))
    return list(windows)


def miss_seconds(trained, windows, min_seconds=0.5):
    """Median seconds to encode and score one window on a cold memo:
    the work :meth:`ACTModule.process_dep` does for a window its dict
    does not hold, on the network the trained state shares."""
    output = trained.make_module(0).net.output
    encode = trained.encoder.encode_seq
    clock = time.perf_counter
    samples = []
    while sum(samples) < min_seconds:
        for seq in windows:
            t0 = clock()
            output(encode(seq))
            samples.append(clock() - t0)
    return statistics.median(samples)


def simulate_kernels(inputs):
    """Base and ACT replay of each (run, trained); returns accesses."""
    n_accesses = 0
    for run, trained in inputs:
        for result in (simulate_run(run), simulate_run(run, trained=trained)):
            stats = result.mem_stats
            n_accesses += stats["loads"] + stats["stores"]
    return n_accesses


def bundled_training_sets(monkeypatch):
    """The arguments of every ``train_network`` call offline training
    makes for the bundled bugs at ``repro diagnose --train-runs 4``."""
    sets = []
    real = offline.train_network

    def recording(positives, negatives, n_hidden, **kwargs):
        sets.append((positives, negatives, n_hidden, kwargs))
        return real(positives, negatives, n_hidden, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(offline, "train_network", recording)
        for name in all_bug_names():
            OfflineTrainer(config=ACTConfig()).train(get_bug(name), n_runs=4,
                                                     seed0=0)
    return sets


def fit_networks(sets):
    """Fit each training set; returns the stacked epochs run (one steps
    every restart still running, so a fit runs its longest restart's
    epoch count)."""
    return sum(max(train_network(pos, neg, n_hidden, **kwargs).restart_epochs)
               for pos, neg, n_hidden, kwargs in sets)


def test_throughput(preset, save_result, monkeypatch):
    prog = get_kernel("lu")
    config = ACTConfig()
    trained = OfflineTrainer(config=config).train(
        prog, n_runs=preset.n_train_traces, seed0=0)

    # --- program execution and dependence extraction ----------------
    n_exec_seeds = N_EXECUTION_SEEDS[preset.name]
    t_exec, (exec_runs, exec_events, exec_deps) = _median_of(
        lambda: execute_bugs(n_exec_seeds))

    # --- replay throughput -------------------------------------------
    replay_inputs = [run_program(prog, seed=99 + i)
                     for i in range(REPEATS[preset.name])]
    t_replay, (replay_deps, replay_switches) = _median_of(
        lambda: replay_runs(trained, replay_inputs))
    replay_dps = replay_deps / t_replay
    windows = replay_windows(trained, replay_inputs)
    miss_s = miss_seconds(trained, windows)

    # --- timing simulation of the Table III kernels -------------------
    sim_inputs = []
    for name, params in LARGE_PARAMS.items():
        kernel = get_kernel(name)
        sim_inputs.append((
            run_program(kernel, seed=7, **params),
            OfflineTrainer(config=config).train(
                kernel, n_runs=preset.n_train_traces, seed0=0, **params)))
    t_sim, sim_accesses = _median_of(lambda: simulate_kernels(sim_inputs))

    # --- offline training of the bundled bugs' networks ---------------
    training_sets = bundled_training_sets(monkeypatch)
    t_train, train_epochs = _median_of(lambda: fit_networks(training_sets))

    # --- host reference loop ----------------------------------------
    t_ref, _ = _median_of(reference_loop)

    # --- corpus fan-out: serial vs jobs=2 -----------------------------
    # Two workers even on one CPU, so the pool path is exercised (the
    # recorded speedup then honestly comes out ~1x or less). The corpus
    # grows until its serial run is long enough to time the fan-out.
    # One untimed pooled round first: the pairs time a live pool, as
    # every sweep after a process's first does.
    fan_jobs = 2
    fan_preset = replace(preset, jobs=None)
    while True:
        t0 = time.perf_counter()
        run_corpus_for_preset(fan_preset)
        if time.perf_counter() - t0 >= FANOUT_MIN_SERIAL_S:
            break
        fan_preset = replace(fan_preset,
                             corpus_size=2 * fan_preset.corpus_size)
    run_corpus_for_preset(replace(fan_preset, jobs=fan_jobs))
    t_fan_serial, t_fan_jobs, fan_serial, fan_jobs_result = _median_pair(
        lambda: run_corpus_for_preset(fan_preset),
        lambda: run_corpus_for_preset(replace(fan_preset, jobs=fan_jobs)),
        pairs=7)
    assert fan_jobs_result.metrics == fan_serial.metrics
    corpus_speedup = t_fan_serial / t_fan_jobs

    # --- end-to-end corpus wall time ---------------------------------
    corpus_wall, corpus_result = _median_of(
        lambda: run_corpus_for_preset(preset))

    # --- adaptive-overhead frontier ----------------------------------
    # The sweep's flat summary is a pair of baseline-relative ratios
    # (fraction of full-rate overhead / top-1 retained at the pick),
    # deterministic for the preset's corpus and machine-portable --
    # exactly what the frontier.* trend gates want.
    from repro.analysis.frontier import run_frontier_for_preset

    t0 = time.perf_counter()
    frontier_result = run_frontier_for_preset(preset)
    frontier_wall = time.perf_counter() - t0
    frontier_pick = frontier_result.metrics["frontier"]

    # --- cached diagnosis (a repeat diagnose --cache-dir) -------------
    from repro import cli

    def diagnose(*flags):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["diagnose", "gzip",
                           "--train-runs", str(preset.corpus_train_runs),
                           "--pruning-runs", str(preset.corpus_pruning_runs),
                           *flags])
        return rc, out.getvalue(), err.getvalue()

    cache_flags = ("--cache-dir", tempfile.mkdtemp(prefix="bench_cache_"))
    diagnose(*cache_flags)  # populate
    (t_diag_cold, t_diag_warm), (out_cold, out_warm) = _best_of_each(
        [diagnose, lambda: diagnose(*cache_flags)], rounds=3)
    assert out_warm == out_cold
    cache_speedup = t_diag_cold / t_diag_warm

    # --- in-process re-diagnosis with trained= ------------------------
    from repro.core.diagnosis import diagnose_failure

    gzip = get_bug("gzip")
    diagnose_runs = {"n_train_runs": preset.corpus_train_runs,
                     "n_pruning_runs": preset.corpus_pruning_runs}
    sink = []
    diagnose_failure(gzip, trained_sink=sink.append, **diagnose_runs)
    t_rediag_cold, t_rediag, report_cold, report_rediag = _median_pair(
        lambda: diagnose_failure(gzip, **diagnose_runs),
        lambda: diagnose_failure(gzip, trained=sink[0], **diagnose_runs))
    assert report_rediag == report_cold
    rediagnose_speedup = t_rediag_cold / t_rediag

    # --- telemetry cost: NullRegistry vs a recording Registry ----------
    def diagnose_under(registry):
        with telemetry.use_registry(registry):
            return diagnose_failure(gzip, **diagnose_runs)

    t_null, t_live, report_null, report_live = _median_pair(
        lambda: diagnose_under(telemetry.NullRegistry()),
        lambda: diagnose_under(telemetry.Registry()))
    assert report_live == report_null
    telemetry_pct = 100.0 * (t_live - t_null) / t_null

    # --- process start-up -------------------------------------------
    startup = startup_seconds()

    payload = {
        "preset": preset.name,
        "host_cpus": os.cpu_count(),
        "execution": {
            "programs": "bundled bugs",
            "runs": exec_runs,
            "events": exec_events,
            "deps": exec_deps,
            "seconds": round(t_exec, 6),
            "runs_per_sec": round(exec_runs / t_exec, 1),
            "events_per_sec": round(exec_events / t_exec, 1),
            "deps_per_sec": round(exec_deps / t_exec, 1),
        },
        "replay": {
            "program": "lu",
            "runs": len(replay_inputs),
            "n_deps": replay_deps,
            "seconds": round(t_replay, 6),
            "deps_per_sec": round(replay_dps, 1),
            "mode_switches": replay_switches,
            "distinct_windows": len(windows),
            "miss_us": round(miss_s * 1e6, 3),
        },
        "sim": {
            "kernels": len(sim_inputs),
            "accesses": sim_accesses,
            "seconds": round(t_sim, 6),
            "accesses_per_sec": round(sim_accesses / t_sim, 1),
        },
        "training": {
            "programs": "bundled bugs",
            "networks": len(training_sets),
            "stacked_epochs": train_epochs,
            "seconds": round(t_train, 6),
            "epochs_per_sec": round(train_epochs / t_train, 1),
        },
        "host": {
            "ref_s": round(t_ref, 6),
        },
        "parallel": {
            "corpus_size": fan_serial.spec.size,
            "jobs": fan_jobs,
            "serial_seconds": round(t_fan_serial, 6),
            "parallel_seconds": round(t_fan_jobs, 6),
            "corpus_speedup": round(corpus_speedup, 2),
        },
        "corpus": {
            "size": corpus_result.spec.size,
            "jobs": preset.jobs,
            "found": corpus_result.metrics["overall"]["n_found"],
            "wall_seconds": round(corpus_wall, 3),
        },
        "corpus_wall_seconds": round(corpus_wall, 3),
        "frontier": {
            "rate": frontier_pick["rate"],
            "fifo": frontier_pick["fifo"],
            "overhead_proxy": frontier_pick["overhead_proxy"],
            "top1": frontier_pick["top1"],
            "recall": frontier_pick["recall"],
            "wall_seconds": round(frontier_wall, 3),
        },
        "cache": {
            "program": "gzip",
            "train_runs": preset.corpus_train_runs,
            "pruning_runs": preset.corpus_pruning_runs,
            "cold_seconds": round(t_diag_cold, 6),
            "warm_seconds": round(t_diag_warm, 6),
            "warm_speedup": round(cache_speedup, 2),
            "rediagnose_cold_seconds": round(t_rediag_cold, 6),
            "rediagnose_seconds": round(t_rediag, 6),
            "rediagnose_speedup": round(rediagnose_speedup, 2),
        },
        "telemetry": {
            "program": "gzip",
            "train_runs": preset.corpus_train_runs,
            "pruning_runs": preset.corpus_pruning_runs,
            "null_seconds": round(t_null, 6),
            "live_seconds": round(t_live, 6),
            "overhead_pct": round(telemetry_pct, 2),
        },
        "startup": {
            "rounds": STARTUP_ROUNDS,
            **{name: round(t, 4) for name, t in startup.items()},
        },
    }
    (REPO_ROOT / "BENCH_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    lines = [
        f"Program execution + RAW extraction ({exec_runs} runs of the "
        "bundled bugs)",
        f"  runs                : {exec_runs / t_exec:,.0f} runs/sec",
        f"  events              : {exec_events / t_exec:,.0f} events/sec",
        f"  dependences         : {exec_deps / t_exec:,.0f} deps/sec",
        "",
        f"Replay throughput (TESTING-dominated deploy, {len(replay_inputs)} "
        "distinct lu runs)",
        f"  deps replayed       : {replay_deps}",
        f"  throughput          : {replay_dps:,.0f} deps/sec",
        f"  memo miss           : {miss_s * 1e6:.2f} us/window "
        f"({len(windows)} distinct windows)",
        "",
        f"Timing simulation ({len(sim_inputs)} Table III kernels at large "
        "scale, base + ACT)",
        f"  accesses simulated  : {sim_accesses}",
        f"  throughput          : {sim_accesses / t_sim:,.0f} accesses/sec",
        "",
        f"Offline training ({len(training_sets)} networks of the bundled "
        "bugs, restarts stacked)",
        f"  stacked epochs      : {train_epochs}",
        f"  throughput          : {train_epochs / t_train:,.0f} epochs/sec",
        "",
        f"Host reference loop   : {t_ref:.4f} s",
        "",
        f"Corpus fan-out (size {fan_serial.spec.size}, jobs={fan_jobs}, "
        f"host_cpus={os.cpu_count()})",
        f"  serial              : {t_fan_serial:.3f} s",
        f"  jobs={fan_jobs}              : {t_fan_jobs:.3f} s",
        f"  speedup             : {corpus_speedup:.2f}x",
        "",
        f"Corpus end-to-end (size {corpus_result.spec.size}, "
        f"jobs={preset.jobs})",
        f"  wall time           : {corpus_wall:.1f} s",
        "",
        f"Adaptive frontier pick (rate {frontier_pick['rate']:g} @ "
        f"FIFO {frontier_pick['fifo']})",
        f"  overhead vs full    : {frontier_pick['overhead_proxy']}",
        f"  top-1 retained      : {frontier_pick['top1']}",
        f"  wall time           : {frontier_wall:.1f} s",
        "",
        "Cached diagnosis (gzip, --cache-dir hit)",
        f"  cold                : {t_diag_cold:.3f} s",
        f"  cache hit           : {t_diag_warm:.3f} s",
        f"  speedup             : {cache_speedup:.1f}x",
        "",
        "In-process re-diagnosis (gzip, trained=, Correct Set kept)",
        f"  cold                : {t_rediag_cold:.4f} s",
        f"  re-diagnosis        : {t_rediag:.4f} s",
        f"  speedup             : {rediagnose_speedup:.1f}x",
        "",
        "Telemetry cost (gzip diagnosis, NullRegistry vs Registry)",
        f"  telemetry off       : {t_null:.3f} s",
        f"  recording registry  : {t_live:.3f} s",
        f"  overhead            : {telemetry_pct:+.1f}%",
        "",
        f"Process start-up (median CPU of {STARTUP_ROUNDS} processes each)",
        f"  repro diagnose gzip : {startup['diagnose_cpu_s']:.3f} s",
        f"  repro --version     : {startup['version_cpu_s']:.3f} s",
        f"  import numpy        : {startup['numpy_cpu_s']:.3f} s",
    ]
    save_result("throughput", "\n".join(lines))

    # A cache hit skips offline training entirely; the report is
    # byte-identical, so anything short of a speedup means the cache
    # stopped doing its one job.
    assert cache_speedup > 1.0, (
        f"cached diagnosis not faster than cold: {t_diag_warm:.3f}s vs "
        f"{t_diag_cold:.3f}s")
