"""The benchmark's workloads. ``run.py`` runs each in its own interpreter::

    PYTHONPATH=src python perf/workloads.py corpus-cold --seed 7 --seconds 10

and reads the JSON document this prints as its last line of stdout.

A workload is a set-up (building inputs, timed as set-up) and a round of
operations over those inputs. Rounds repeat, one client and one
operation at a time, until ``--seconds`` have passed and at least two
rounds are done. Every round must give the same outputs as the
reference: the set-up's cold reports for ``corpus-warm``, round 1 for
the others.

Every time is CPU time (:func:`cpu_seconds`) at a reference host speed.
The program is single-threaded (``run.py`` holds numpy's BLAS to one
thread), so on an idle host its CPU time is its wall time, and CPU time
leaves out the time other tenants of a shared host take from it. They
also slow it while it runs, through shared cores and caches: on the
2-CPU host this benchmark was built on, the CPU switches between two
speeds about 1.6x apart for seconds to minutes at a time. So just before
every operation, and every step of a set-up, the benchmark times
:func:`reference_task`, fixed work that runs no program code, and scales
the time measured by how long that took against REFERENCE_S. Over ten
runs per workload on that host, raw throughput spread 9-51 % (quartile
distance over median) and scaled throughput 1-7 %.

Each operation's time is its median over the rounds. Summaries are taken
over those per-operation times, and the tail of all samples is reported
alongside.
"""

import argparse
import collections
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
from repro.analysis.scale import LARGE_PARAMS
from repro.core import diagnosis
from repro.core.config import ACTConfig
from repro.core.offline import OfflineTrainer
from repro.sim.machine import simulate_run
from repro.trace.events import EventKind
from repro.workloads import framework
from repro.workloads.generator import (ARCHETYPES, MOTIFS, GeneratedProgram,
                                       ProgramSpec)
from repro.workloads.registry import all_bug_names, get_kernel

import spans
import stats


def cpu_seconds():
    """CPU seconds used so far by this process, from interpreter start,
    and by every child process it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


#: Interpreter start-up and imports: the first part of every set-up.
IMPORT_S = cpu_seconds()

#: CPU seconds reference_task takes on the reference host: the 2-CPU
#: host the benchmark was built on, in the faster of its two speeds.
REFERENCE_S = 0.006


def reference_task():
    """Fixed work that runs no program code, of the two kinds the program
    does: Python dictionary and tuple churn, and small numpy steps."""
    table = {}
    for i in range(18000):
        table[i * 7919 % 4099] = (i, i * 0.5)
    total = sum(v[0] for v in table.values())
    w = np.full((10, 16), 0.01)
    x = np.linspace(0.0, 1.0, 32 * 16).reshape(32, 16)
    for _ in range(360):
        h = 1.0 / (1.0 + np.exp(-(x @ w.T)))
        w -= 0.01 * (h.T @ x)
    return total + float(w[0, 0])


def probe():
    """CPU seconds of one reference task: the host's speed right now."""
    t0 = cpu_seconds()
    reference_task()
    return cpu_seconds() - t0


def scaled(seconds, probe_s):
    """CPU ``seconds`` measured when the reference task took ``probe_s``,
    at the reference host's speed."""
    return seconds * REFERENCE_S / probe_s


class StepClock:
    """Scaled CPU time of a task made of steps: each step's time is
    scaled by the reference task's time just before it. ``lap()`` ends a
    step and starts the next."""

    def __init__(self):
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.probes = []
        self._start()

    def _start(self):
        self.probes.append(probe())
        self._t0 = cpu_seconds()

    def lap(self):
        step = cpu_seconds() - self._t0
        self.cpu_seconds += step
        self.seconds += scaled(step, self.probes[-1])
        self._start()


def no_lap():
    """``lap`` for a set-up that is not timed."""


#: Set-ups per untraced run, at least, and the time spent on set-ups
#: below which more are made; set-up time is their median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0

CORPUS_CONFIG = ACTConfig(seq_len=3)
CORPUS_RUNS = {"n_train_runs": 6, "n_pruning_runs": 8, "failure_seed": 12345}
CLI_RUNS = ("--train-runs", "4", "--pruning-runs", "6")

#: Program shapes (workers, rounds, width) ProgramSpec.from_seed draws.
SHAPES = [(w, r, width)
          for w in (2, 3) for r in (3, 4) for width in (3, 4, 5)]


#: The archetypes whose bugs train fastest, in about a quarter of the
#: time an atomicity bug takes. corpus-warm's set-up trains every one of
#: its programs, three times per run; the replay it then times follows
#: motif and shape, which every archetype spans, not archetype.
WARM_ARCHETYPES = ("order", "use_after_reset")


def stratified_corpus(seed, archetypes=ARCHETYPES):
    """Generated programs, one per (archetype, motif) cell, every corpus
    with the same mix of program shapes (twenty with all archetypes).

    Cold diagnosis cost is set by the cell (training a regular-motif
    atomicity bug takes ~50x an order bug on a producer-consumer motif)
    and warm cost by motif and shape (a 3-worker, 4-round, width-5
    pointer chase replays ~4x a 2-worker, 3-round, width-3 pipeline), so
    fixing both keeps every seed's corpus equally expensive. Slot ``s``
    takes shape ``7 s mod 12`` (a stride that visits all twelve).
    ``seed`` assigns each motif's shapes to archetypes, draws each
    program's own seed (its data values) and orders the programs.
    """
    rng = random.Random(seed)
    cells = []
    for i, motif in enumerate(MOTIFS):
        shapes = [SHAPES[7 * (len(archetypes) * i + k) % len(SHAPES)]
                  for k in range(len(archetypes))]
        rng.shuffle(shapes)
        cells += [(a, motif, shape) for a, shape in zip(archetypes, shapes)]
    rng.shuffle(cells)
    return [_spec_of_shape(rng, *cell) for cell in cells]


def _spec_of_shape(rng, archetype, motif, shape):
    """A generated program of the given cell and shape, found by drawing
    program seeds, so its name still rebuilds the same program."""
    for _ in range(10_000):
        spec = ProgramSpec.from_seed(rng.randrange(1, 1_000_000),
                                     archetype=archetype, motif=motif)
        if (spec.n_workers, spec.rounds, spec.width) == shape:
            return spec
    raise RuntimeError(f"no {archetype} {motif} program of shape {shape}")


def report_key(report):
    """A diagnosis report as JSON: what a user reads from it."""
    return {
        "program": report.program, "failed": report.failed,
        "found": report.found, "rank": report.rank,
        "findings": [
            [[[d.store_pc, d.load_pc, int(d.inter_thread)] for d in f.seq],
             f.matched, float(f.output), f.tid, f.index]
            for f in report.findings],
    }


def digest(value):
    """SHA-256 of a JSON value in canonical form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def diagnose(program, **kwargs):
    return diagnosis.diagnose_failure(program, config=CORPUS_CONFIG,
                                      **CORPUS_RUNS, **kwargs)


def accuracy(outputs, found, rank):
    """Recall and top-1 over one round of diagnosis outputs."""
    n = len(outputs)
    return {"recall": sum(found(o) for o in outputs) / n,
            "top1": sum(rank(o) == 1 for o in outputs) / n}


class Workload:
    """One workload: ``setup`` fills ``self.inputs``, ``run_op(i)`` runs
    one timed operation on ``self.inputs[i]`` and returns its output."""

    name = ""
    op_span = "op"
    smoke_ops = 5  # inputs kept by --smoke

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.smoke = smoke
        self.inputs = []

    def _trim(self, items):
        return items[:self.smoke_ops] if self.smoke else items

    def setup(self, lap=no_lap):
        """Build the inputs; returns a digest of the set-up's outputs.
        ``lap()`` is called between the set-up's steps (see StepClock)."""
        raise NotImplementedError

    def run_op(self, i, tracer):
        raise NotImplementedError

    def reference(self):
        """Expected outputs of every round; None means round 1's."""
        return None

    def problem(self, output):
        """Why one operation's output is wrong, or None."""
        return None

    def exact(self, outputs):
        """Deterministic results of one round, compared exactly."""
        return {}

    def layer_extras(self, times):
        """Per-layer metrics measured outside the traced process."""
        return {"cli.startup_s": 0.0, "cli.numpy_floor_s": 0.0,
                "cli.work_s": 0.0}


class _Corpus(Workload):
    """Diagnoses of the stratified generated corpus."""

    op_span = "diagnosis"

    def problem(self, output):
        return None if output["failed"] else "failure run did not fail"

    def exact(self, outputs):
        return accuracy(outputs, lambda o: o["found"], lambda o: o["rank"])


class CorpusCold(_Corpus):
    """Full diagnoses, offline training included."""

    name = "corpus-cold"

    def setup(self, lap=no_lap):
        specs = self._trim(stratified_corpus(self.seed))
        self.inputs = [GeneratedProgram(s) for s in specs]
        lap()
        # Untimed warm-up on the cheapest cell: first-call costs (lazy
        # imports, numpy dispatch caches) stay out of the timed rounds.
        warmup = GeneratedProgram(ProgramSpec.from_seed(
            self.seed, archetype="order", motif="producer_consumer"))
        return digest(report_key(diagnose(warmup)))

    def run_op(self, i, tracer):
        return report_key(diagnose(self.inputs[i]))


class CorpusWarm(_Corpus):
    """Re-diagnoses with trained state reused: no offline training."""

    name = "corpus-warm"

    def setup(self, lap=no_lap):
        self.inputs = []
        self.cold = []
        for spec in self._trim(stratified_corpus(self.seed,
                                                 WARM_ARCHETYPES)):
            program = GeneratedProgram(spec)
            sink = []
            report = diagnose(program, trained_sink=sink.append)
            self.inputs.append((program, sink[0]))
            self.cold.append(report_key(report))
            lap()
        return digest(self.cold)

    def run_op(self, i, tracer):
        program, trained = self.inputs[i]
        return report_key(diagnose(program, trained=trained))

    def reference(self):
        return self.cold


class SimOverhead(Workload):
    """Cycle-level simulation of the Table III kernels, base and ACT."""

    name = "sim-overhead"
    op_span = "sim.kernel"
    smoke_ops = 2

    def setup(self, lap=no_lap):
        config = ACTConfig()
        self.inputs = []
        for name in self._trim(list(LARGE_PARAMS)):
            program = get_kernel(name)
            params = dict(LARGE_PARAMS[name])
            trained = OfflineTrainer(config=config).train(
                program, n_runs=4, seed0=0, **params)
            run = framework.run_program(program, seed=self.seed, **params)
            memory_events = sum(e.kind in (EventKind.LOAD, EventKind.STORE)
                                for e in run.events)
            self.inputs.append((name, trained, run, memory_events))
            lap()
        return digest([[name, trained.default_weights.tolist(),
                        len(run.events)]
                       for name, trained, run, _ in self.inputs])

    def run_op(self, i, tracer):
        name, trained, run, memory_events = self.inputs[i]
        with tracer.span("sim.base"):
            base = simulate_run(run)
        with tracer.span("sim.act"):
            act = simulate_run(run, trained=trained)
        if tracer.enabled:
            counts = tracer.counts
            counts["sim.events"] += 2 * memory_events
            counts["sim.deps_offered"] += act.deps_offered
            counts["sim.deps_stalled"] += act.deps_stalled
            counts["sim.act_stall_cycles"] += act.act_stall_cycles
        return {"kernel": name, "base_cycles": base.cycles,
                "act_cycles": act.cycles, "deps_offered": act.deps_offered,
                "deps_stalled": act.deps_stalled,
                "act_stall_cycles": act.act_stall_cycles}

    def problem(self, output):
        return None if output["base_cycles"] > 0 else "no cycles simulated"

    def exact(self, outputs):
        pct = [100.0 * (o["act_cycles"] / o["base_cycles"] - 1.0)
               for o in outputs]
        return {"sim_overhead_pct": statistics.fmean(pct)}


def _cli_rank(stdout):
    """The rank ``repro diagnose`` printed for the root cause, or None."""
    for line in stdout.splitlines():
        if line.startswith("root cause found") and " at rank " in line:
            return int(line.rsplit(" ", 1)[1])
    return None


def _cpu(argv):
    """Scaled CPU seconds one process takes from start to exit."""
    probe_s = probe()
    t0 = cpu_seconds()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL,
                   timeout=60)
    return scaled(cpu_seconds() - t0, probe_s)


class CliBugs(Workload):
    """One ``repro diagnose`` process per bundled Table V bug."""

    name = "cli-bugs"
    op_span = "cli.process"
    smoke_ops = 2

    def setup(self, lap=no_lap):
        self.inputs = self._trim(all_bug_names())
        version = subprocess.run(
            [sys.executable, "-m", "repro", "--version"], check=True,
            capture_output=True, text=True, timeout=60)
        return digest(version.stdout)

    def run_op(self, i, tracer):
        bug = self.inputs[i]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "diagnose", bug,
             "--seed", str(self.seed), *CLI_RUNS],
            capture_output=True, text=True, timeout=120)
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"{bug}: exit {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        return {"bug": bug, "rc": proc.returncode, "stdout": proc.stdout}

    def problem(self, output):
        lines = output["stdout"].splitlines()
        failure = [ln for ln in lines if ln.startswith("failure ")]
        if (not failure or not failure[0].split(":", 1)[1].strip()
                or "failure run did not fail" in output["stdout"]):
            return "failure run did not fail"
        return None

    def exact(self, outputs):
        return accuracy(outputs, lambda o: o["rc"] == 0,
                        lambda o: _cli_rank(o["stdout"]))

    def layer_extras(self, times):
        startup = statistics.median(
            _cpu([sys.executable, "-m", "repro", "--version"])
            for _ in range(5))
        floor = statistics.median(
            _cpu([sys.executable, "-c", "import numpy"]) for _ in range(5))
        return {"cli.startup_s": startup, "cli.numpy_floor_s": floor,
                "cli.work_s": stats.nearest_rank(times, 50) - startup}


WORKLOADS = {w.name: w for w in (CorpusCold, CorpusWarm, SimOverhead,
                                 CliBugs)}


#: Rounds every run makes at least: each operation's time is its median
#: over the rounds.
MIN_ROUNDS = 2


class Timed(collections.namedtuple("Timed",
                                   "times outputs errors probes")):
    """Timed rounds: ``times[r][i]`` and ``outputs[r][i]`` are operation
    ``i`` of round ``r``, and ``probes[r][i]`` the reference task's time
    just before it; an operation that raised has output None."""

    def scaled(self):
        """``times`` at the reference host's speed."""
        return [[scaled(t, p) for t, p in zip(ts, ps)]
                for ts, ps in zip(self.times, self.probes)]

    def typical(self):
        """Each operation's median scaled time over the rounds."""
        return [statistics.median(op) for op in zip(*self.scaled())]

    def samples(self):
        return [t for round_times in self.scaled() for t in round_times]

    @property
    def failed(self):
        return sum(out is None for round_out in self.outputs
                   for out in round_out)

    def every(self, start, step):
        """The rounds ``start``, ``start + step``, ..."""
        return Timed(self.times[start::step], self.outputs[start::step],
                     self.errors, self.probes[start::step])


def timed_rounds(workload, tracers, seconds=None, rounds=None):
    """Run rounds, round ``r`` under ``tracers[r % len(tracers)]``, until
    ``rounds`` are done, or else until ``seconds`` have passed and every
    tracer has had MIN_ROUNDS."""
    times, outputs, errors, probes = [], [], [], []
    start = time.perf_counter()
    while True:
        r = len(times)
        if rounds is not None:
            if r >= rounds:
                break
        elif (r >= MIN_ROUNDS * len(tracers) and r % len(tracers) == 0
              and time.perf_counter() - start >= seconds):
            break
        tracer = tracers[r % len(tracers)]
        round_times, round_out, round_probes = [], [], []
        with tracer.installed():
            for i in range(len(workload.inputs)):
                # Each operation starts from a collected heap, so it pays
                # for the collections its own allocations trigger and
                # not for garbage an earlier one left.
                gc.collect()
                round_probes.append(probe())
                t0 = cpu_seconds()
                try:
                    with tracer.span(workload.op_span, op=f"{r}:{i}"):
                        out = workload.run_op(i, tracer)
                except Exception as exc:  # a failed operation is counted
                    errors.append(f"round {r + 1}, op {i}: {exc!r}")
                    out = None
                round_times.append(cpu_seconds() - t0)
                round_out.append(out)
        times.append(round_times)
        outputs.append(round_out)
        probes.append(round_probes)
    return Timed(times, outputs, errors, probes)


def check_outputs(workload, outputs):
    """Every problem with the rounds' outputs: operations whose output
    is wrong, and outputs that differ from the reference."""
    reference = workload.reference() or outputs[0]
    source = "set-up" if workload.reference() else "round 1"
    problems = []
    for r, round_out in enumerate(outputs, start=1):
        for i, out in enumerate(round_out):
            if out is None:
                continue  # raised; counted as failed
            why = workload.problem(out)
            if why:
                problems.append(f"round {r}, op {i}: {why}")
            if out != reference[i]:
                problems.append(f"round {r}, op {i}: output differs "
                                f"from {source}")
    return problems


def peak_rss_mb():
    """Peak resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def repeated_setup(workload):
    """Set up SETUP_REPEATS times, and more while under SETUP_SECONDS in
    all, so sub-second set-ups get enough repeats for a steady median.
    Returns a StepClock and a digest per set-up."""
    clocks, digests = [], []
    while (len(clocks) < SETUP_REPEATS
           or (sum(c.cpu_seconds for c in clocks) < SETUP_SECONDS
               and len(clocks) < 25)):
        gc.collect()
        clock = StepClock()
        digests.append(workload.setup(clock.lap))
        clock.lap()
        clocks.append(clock)
        if workload.smoke:
            break
    return clocks, digests


def traced_metrics(workload, seconds, rounds, spans_path):
    """Per-layer metrics: one traced set-up, then untraced and traced
    rounds alternating, so drift in host speed hits both alike."""
    tracer = spans.Tracer(clock=cpu_seconds)
    with tracer.installed():
        workload.setup()
    setup_spans, setup_counts = tracer.spans, tracer.counts
    tracer.spans, tracer.counts = [], collections.Counter()
    both = timed_rounds(workload, [spans.NullTracer(), tracer], seconds,
                        rounds and 2 * rounds)
    plain, traced = both.every(0, 2), both.every(1, 2)
    n = len(traced.times)
    agg = spans.per_round_spans(spans.aggregate(setup_spans),
                                spans.aggregate(tracer.spans), n)
    metrics = spans.layer_metrics(
        agg, spans.per_round(setup_counts, tracer.counts, n))
    metrics.update(workload.layer_extras(plain.typical()))
    metrics["trace.overhead_pct"] = 100.0 * (
        sum(traced.typical()) / sum(plain.typical()) - 1.0)
    if spans_path:
        _write_spans(spans_path, setup_spans, tracer.spans)
    return both, metrics, agg


def measure(workload, seconds, trace=False, spans_path=None):
    """Set up and time ``workload``; the result document run.py reads."""
    rounds = 1 if workload.smoke else None
    doc = {"workload": workload.name}
    problems = []
    if trace:
        timed, metrics, doc["spans"] = traced_metrics(workload, seconds,
                                                      rounds, spans_path)
    else:
        setups, setup_digests = repeated_setup(workload)
        if len(set(setup_digests)) > 1:
            problems.append("repeated set-ups gave different outputs")
        timed = timed_rounds(workload, [spans.NullTracer()], seconds, rounds)
        typical, samples = timed.typical(), timed.samples()
        tail = stats.tail_percentile(len(samples)) or 50.0
        metrics = {
            "setup_s": (scaled(IMPORT_S, setups[0].probes[0])
                        + statistics.median(c.seconds for c in setups)),
            "latency_geomean_s": math.exp(statistics.fmean(
                math.log(t) for t in typical)),
            "ops_per_s": len(typical) / sum(typical),
            "latency_tail_s": stats.nearest_rank(samples, tail),
        }
        doc.update(tail_pct=tail, import_cpu_s=IMPORT_S,
                   setup_cpu_s=[c.cpu_seconds for c in setups],
                   setup_scaled_s=[c.seconds for c in setups],
                   op_typical_s=typical,
                   probe_p50_s=statistics.median(
                       p for ps in timed.probes for p in ps))
    problems += timed.errors + check_outputs(workload, timed.outputs)
    metrics["peak_rss_mb"] = peak_rss_mb()
    first = timed.outputs[0]
    attempted = len(timed.samples())
    exact = workload.exact(first) if None not in first else {}
    exact.update(error_rate=timed.failed / attempted,
                 outputs_digest=digest(first))
    if trace:
        metrics["ranking.recall"] = exact.get("recall", 0.0)
        metrics["ranking.top1"] = exact.get("top1", 0.0)
        metrics["sim.overhead_pct"] = exact.get("sim_overhead_pct", 0.0)
    doc.update(correct=not problems, attempted=attempted,
               failed=timed.failed, rounds=len(timed.times),
               problems=problems[:20], metrics=metrics, exact=exact)
    return doc


def _write_spans(path, setup_spans, timed_spans):
    with open(path, "w", encoding="utf-8") as f:
        for phase, recorded in (("setup", setup_spans),
                                ("timed", timed_spans)):
            for sid, name, start, end, parent, op in recorded:
                f.write(json.dumps({"phase": phase, "id": sid, "name": name,
                                    "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", metavar="PATH")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    doc = measure(workload, args.seconds, trace=args.trace,
                  spans_path=args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
