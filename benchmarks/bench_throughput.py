"""Replay, orchestration, corpus and cached-diagnosis throughput.

Five measurements, all recorded into ``benchmarks/results/`` and into
``BENCH_throughput.json`` at the repo root:

1. **Batched replay** -- deps/sec of :func:`deploy_on_run` over a long
   TESTING-dominated production replay, scalar reference path vs the
   chunked fast path (:mod:`repro.core.fastpath`). The fast path is
   bit-identical, so anything short of a real speedup is a regression:
   the assertion fails if batched replay is not faster than scalar.
2. **Parallel orchestration** -- wall time of correct-run collection,
   serial vs the process-wide warm pool (``jobs``), with identical
   outputs. The *cold* figure times the first parallel batch on a fresh
   pool (what a one-shot CLI run pays); the *warm* figure interleaves
   serial and pool rounds with the shared pool already live, so neither
   side carries startup cost -- that steady-state ratio is the recorded
   ``speedup`` and what the trend history gates. ``host_cpus`` is
   recorded alongside: on a single-CPU host the warm speedup honestly
   tops out below 1x (there is no second core to win on); the gate's
   widened threshold absorbs host-to-host variance.
3. **End-to-end corpus** -- wall seconds of the preset-scaled accuracy
   corpus (``repro corpus``), the number a user actually waits on. Also
   exported flat as ``corpus_wall_seconds`` for the trend gate.
4. **Adaptive frontier** -- the sampling-rate x FIFO sweep
   (:mod:`repro.analysis.frontier`) at preset scale; the recorded
   ``frontier.overhead_proxy`` / ``frontier.top1`` ratios (the pick's
   fraction of full-rate overhead and top-1) feed the trend gates.
5. **Cached diagnosis** -- wall seconds of a full diagnosis cold
   (offline training included) vs a ``diagnose --cache-dir`` hit
   (training skipped, trained state read back from the cache
   directory). Reports are byte-identical; the recorded
   ``cache.warm_speedup`` is what a repeat ``repro diagnose --cache-dir``
   of the same (workload, seed, config) saves.
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from repro.analysis.accuracy import run_corpus_for_preset
from repro.core.config import ACTConfig
from repro.core.deploy import deploy_on_run
from repro.core.offline import OfflineTrainer, collect_correct_runs
from repro.parallel import get_pool
from repro.workloads.framework import run_program
from repro.workloads.registry import get_kernel

REPO_ROOT = pathlib.Path(__file__).parent.parent

# Trace-repeat factor: the deploy replay concatenates one correct lu
# trace this many times, giving a long TESTING-dominated dependence
# stream (the production steady state the fast path targets).
# "fast" is still long enough (~0.3s scalar) that the recorded speedup
# ratio is stable to well under the trend gate's 30% threshold.
REPEATS = {"fast": 80, "bench": 200, "full": 500}
N_PARALLEL_RUNS = {"fast": 8, "bench": 16, "full": 32}


def _noop(_):
    return None


def measure_pool_startup(jobs, rounds=2):
    """Seconds to spawn ``jobs`` workers and round-trip one no-op each.

    The fixed cost the first pool batch in a process pays before any
    real work runs (fork/spawn + interpreter + imports); best of
    ``rounds`` fresh pools, measured on throwaway executors so the
    shared warm pool is not disturbed.
    """
    best = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            list(ex.map(_noop, range(jobs)))
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best


def _best_of(fn, rounds=3):
    """Smallest wall time over ``rounds`` calls; returns (seconds, result)."""
    (best,), (out,) = _best_of_each([fn], rounds=rounds)
    return best, out


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


def test_throughput(preset, save_result):
    prog = get_kernel("lu")
    config = ACTConfig()
    trained = OfflineTrainer(config=config).train(
        prog, n_runs=preset.n_train_traces, seed0=0)

    # --- batched replay vs scalar ------------------------------------
    base = run_program(prog, seed=99)
    long_run = replace(base, events=base.events * REPEATS[preset.name])
    (t_scalar, t_fast), (d_scalar, d_fast) = _best_of_each(
        [lambda: deploy_on_run(trained, long_run, fast=False),
         lambda: deploy_on_run(trained, long_run, fast=True)],
        rounds=4)
    assert d_fast.n_deps == d_scalar.n_deps
    for tid, module in d_scalar.modules.items():
        assert d_fast.modules[tid].stats == module.stats
    scalar_dps = d_scalar.n_deps / t_scalar
    fast_dps = d_fast.n_deps / t_fast
    replay_speedup = t_scalar / t_fast

    # --- parallel run collection vs serial ---------------------------
    n_runs = N_PARALLEL_RUNS[preset.name]
    # At least 2 workers so the pool path is exercised even on one CPU
    # (where the recorded speedup will honestly come out ~1x or less).
    jobs = preset.jobs or max(2, min(4, os.cpu_count() or 1))
    pool = get_pool()
    # Cold: the first parallel batch in a fresh process -- pool spawn,
    # imports, then the work.
    pool.shutdown()
    t0 = time.perf_counter()
    runs_cold = collect_correct_runs(prog, n_runs, seed0=0, jobs=jobs)
    t_cold = time.perf_counter() - t0
    # Warm: the shared pool is live; serial and pool rounds interleave
    # so *neither* side carries startup cost and the ratio is pure
    # steady-state orchestration.
    pool.warm(jobs)
    (t_serial, t_warm), (runs_serial, runs_jobs) = _best_of_each(
        [lambda: collect_correct_runs(prog, n_runs, seed0=0),
         lambda: collect_correct_runs(prog, n_runs, seed0=0, jobs=jobs)],
        rounds=3)
    assert [r.seed for r in runs_jobs] == [r.seed for r in runs_serial]
    assert all(a.events == b.events
               for a, b in zip(runs_serial, runs_jobs))
    assert all(a.events == b.events
               for a, b in zip(runs_serial, runs_cold))
    t_startup = measure_pool_startup(jobs)

    # --- end-to-end corpus wall time ---------------------------------
    t0 = time.perf_counter()
    corpus_result = run_corpus_for_preset(preset)
    corpus_wall = time.perf_counter() - t0

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

    payload = {
        "preset": preset.name,
        "host_cpus": os.cpu_count(),
        "replay": {
            "program": "lu",
            "n_deps": d_scalar.n_deps,
            "scalar_seconds": round(t_scalar, 6),
            "batched_seconds": round(t_fast, 6),
            "scalar_deps_per_sec": round(scalar_dps, 1),
            "batched_deps_per_sec": round(fast_dps, 1),
            "speedup": round(replay_speedup, 2),
            "mode_switches": d_scalar.n_mode_switches,
        },
        "parallel": {
            "program": "lu",
            "n_runs": n_runs,
            "jobs": jobs,
            "serial_seconds": round(t_serial, 6),
            "parallel_cold_seconds": round(t_cold, 6),
            "parallel_warm_seconds": round(t_warm, 6),
            "pool_startup_seconds": round(t_startup, 6),
            "speedup": round(t_serial / t_warm, 2),
            "speedup_cold": round(t_serial / t_cold, 2),
            "speedup_warm": round(t_serial / t_warm, 2),
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
        },
    }
    (REPO_ROOT / "BENCH_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    lines = [
        "Replay throughput (TESTING-dominated deploy, program lu)",
        f"  deps replayed       : {d_scalar.n_deps}",
        f"  scalar              : {scalar_dps:,.0f} deps/sec",
        f"  batched fast path   : {fast_dps:,.0f} deps/sec",
        f"  speedup             : {replay_speedup:.1f}x",
        "",
        f"Run collection ({n_runs} correct runs, jobs={jobs}, "
        f"host_cpus={os.cpu_count()})",
        f"  serial              : {t_serial:.3f} s",
        f"  warm pool           : {t_warm:.3f} s",
        f"  cold pool           : {t_cold:.3f} s",
        f"  pool startup        : {t_startup:.3f} s",
        f"  speedup warm/cold   : {t_serial / t_warm:.2f}x / "
        f"{t_serial / t_cold:.2f}x",
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
    ]
    save_result("throughput", "\n".join(lines))

    # The fast path is bit-identical; being slower than the scalar
    # reference would make it pointless.
    assert fast_dps > scalar_dps, (
        f"batched replay slower than scalar: {fast_dps:.0f} vs "
        f"{scalar_dps:.0f} deps/sec")
    # A cache hit skips offline training entirely; the report is
    # byte-identical, so anything short of a speedup means the cache
    # stopped doing its one job.
    assert cache_speedup > 1.0, (
        f"cached diagnosis not faster than cold: {t_diag_warm:.3f}s vs "
        f"{t_diag_cold:.3f}s")
