"""Declared metric catalog.

Every metric the instrumented pipeline reports is declared here with
its kind, owning layer and meaning. A fresh :class:`Registry`
pre-registers the catalog, so every run profile carries the full key
set (a counter that stayed at zero -- no mode switches, no FIFO stalls
-- still shows up as 0 instead of silently missing).
:func:`format_catalog` renders the table; ``docs/observability.md``
keeps a hand-grouped copy of it.

Instrumentation may still report undeclared names (ad-hoc metrics are
not an error), but everything intended to be stable API belongs in this
table.
"""

from dataclasses import dataclass

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric."""

    name: str
    kind: str
    layer: str
    description: str


CATALOG = (
    # -- ACT module (core.act_module / core.buffers) -------------------
    MetricSpec("act.deps_processed", COUNTER, "core.act_module",
               "RAW dependences entering any ACT module's input buffer"),
    MetricSpec("act.predictions", COUNTER, "core.act_module",
               "NN classifications made (input buffer warm)"),
    MetricSpec("act.invalid_predictions", COUNTER, "core.act_module",
               "predicted-invalid sequences (the Invalid Counter, summed "
               "over all modules and windows)"),
    MetricSpec("act.online_trained", COUNTER, "core.act_module",
               "back-propagation updates applied in online-training mode"),
    MetricSpec("act.windows_checked", COUNTER, "core.act_module",
               "periodic Invalid-Counter checks (one per check_window)"),
    MetricSpec("act.mode_switches", COUNTER, "core.act_module",
               "testing<->training mode alternations"),
    MetricSpec("act.window_mispred_rate", HISTOGRAM, "core.act_module",
               "per-window misprediction rate driving the mode controller"),
    MetricSpec("debug_buffer.logged", COUNTER, "core.buffers",
               "entries logged into any Debug Buffer"),
    MetricSpec("debug_buffer.overflows", COUNTER, "core.buffers",
               "logged entries that overwrote the oldest entry (the "
               "MySQL#1 overflow mode)"),
    MetricSpec("debug_buffer.occupancy", HISTOGRAM, "core.buffers",
               "Debug Buffer occupancy observed at each log"),
    # -- diagnosis workflow (core.diagnosis / core.deploy) -------------
    MetricSpec("diagnose.runs", COUNTER, "core.diagnosis",
               "completed diagnose_failure calls"),
    MetricSpec("diagnose.found", COUNTER, "core.diagnosis",
               "diagnoses that ranked the ground-truth root cause"),
    MetricSpec("diagnose.deps_observed", COUNTER, "core.diagnosis",
               "failure-run dependences replayed through the AMs"),
    MetricSpec("diagnose.invalids_flagged", COUNTER, "core.diagnosis",
               "failure-run dependences flagged invalid"),
    MetricSpec("diagnose.mode_switches", COUNTER, "core.diagnosis",
               "mode alternations during the failure run"),
    MetricSpec("deploy.runs", COUNTER, "core.deploy",
               "trace replays through per-core AMs"),
    MetricSpec("policy.deps_sampled", COUNTER, "core.policy",
               "dependences admitted by an active sampling policy"),
    MetricSpec("policy.deps_shed", COUNTER, "core.policy",
               "dependences dropped by an active sampling policy"),
    MetricSpec("policy.deps_tightened", COUNTER, "core.policy",
               "dependences force-admitted by suspicion tightening"),
    MetricSpec("policy.shed_windows", COUNTER, "core.policy",
               "backoff control windows that engaged load shedding"),
    MetricSpec("deploy.deps", COUNTER, "core.deploy",
               "dependences fed to AMs during replays"),
    # -- parallel run orchestration (repro.parallel) -------------------
    MetricSpec("parallel.batches", COUNTER, "repro.parallel",
               "work batches dispatched to the process pool"),
    MetricSpec("parallel.tasks", COUNTER, "repro.parallel",
               "individual work items executed in pool workers"),
    MetricSpec("parallel.pool_restarts", COUNTER, "repro.parallel",
               "process pools rebuilt after a genuine worker crash"),
    MetricSpec("parallel.jobs_resolved", GAUGE, "repro.parallel",
               "worker count the most recent --jobs/REPRO_JOBS value "
               "resolved to (0 = auto = all CPUs)"),
    # -- trained-state cache (diagnose --cache-dir) -------------------
    MetricSpec("cache.hits", COUNTER, "repro.engines",
               "trained-state lookups served from --cache-dir (offline "
               "retraining skipped)"),
    MetricSpec("cache.misses", COUNTER, "repro.engines",
               "trained-state lookups absent from --cache-dir (the "
               "engine trains and stores the state)"),
    MetricSpec("cache.saves", COUNTER, "repro.engines",
               "trained-state entries written to --cache-dir"),
    # -- fault injection & resilience (repro.faults) -------------------
    MetricSpec("faults.trace_drops", COUNTER, "workloads.framework",
               "run events dropped from the trace by the active fault "
               "plan (every engine reads the run without them)"),
    MetricSpec("faults.trace_reorders", COUNTER, "workloads.framework",
               "adjacent run events swapped in the trace by the active "
               "fault plan"),
    MetricSpec("faults.fifo_overflows", COUNTER, "core.buffers",
               "injected input-FIFO overruns (unconsumed entries lost)"),
    MetricSpec("faults.weight_flips", COUNTER, "core.offline",
               "deployed weight sets poisoned with NaN/Inf by the plan"),
    MetricSpec("faults.weights_healed", COUNTER, "core.deploy",
               "AMs whose non-finite weights were replaced at deploy"),
    MetricSpec("faults.quarantined", COUNTER, "repro.faults",
               "work units quarantined instead of aborting the run"),
    # -- generated corpus & accuracy harness ---------------------------
    MetricSpec("gen.programs_built", COUNTER, "workloads.generator",
               "generated programs assembled from a ProgramSpec"),
    MetricSpec("corpus.programs", COUNTER, "analysis.accuracy",
               "corpus programs scored by the accuracy harness"),
    MetricSpec("corpus.found", COUNTER, "analysis.accuracy",
               "corpus programs whose root cause was ranked"),
    MetricSpec("corpus.quarantined", COUNTER, "analysis.accuracy",
               "corpus programs whose diagnosis raised an error, e.g. "
               "training runs left with no dependences (scored as "
               "misses)"),
    # -- predictor engines (repro.engines) ------------------------------
    MetricSpec("engine.trainings", COUNTER, "repro.engines",
               "cold engine trainings run by the registry-routed path"),
    MetricSpec("engine.diagnoses", COUNTER, "repro.engines",
               "diagnoses completed by registry-routed (non-NN) engines"),
    MetricSpec("shootout.engines", COUNTER, "analysis.shootout",
               "engines raced to completion by the shootout harness"),
    MetricSpec("frontier.points", COUNTER, "analysis.frontier",
               "rate x FIFO sweep points measured by the frontier"),
    # -- offline training (core.offline / nn.trainer) ------------------
    MetricSpec("offline.correct_runs", COUNTER, "core.offline",
               "correct executions collected for training/pruning"),
    MetricSpec("offline.train_error", GAUGE, "core.offline",
               "training error of the most recent offline training"),
    MetricSpec("nn.networks_trained", COUNTER, "nn.trainer",
               "networks trained (restart winners)"),
    MetricSpec("nn.train_restarts", COUNTER, "nn.trainer",
               "extra restart trainings beyond each first attempt"),
    MetricSpec("nn.train_epochs", COUNTER, "nn.trainer",
               "epochs run by winning trainings"),
    MetricSpec("nn.epochs_run", COUNTER, "nn.trainer",
               "epochs run by every restart"),
    MetricSpec("nn.epoch_cap_hits", COUNTER, "nn.trainer",
               "restarts that ran to the max_epochs cap"),
    MetricSpec("nn.train_error", HISTOGRAM, "nn.trainer",
               "final training error per trained network"),
    MetricSpec("nn.epoch_error", HISTOGRAM, "nn.trainer",
               "per-epoch training misclassification rate"),
    MetricSpec("nn.topologies_evaluated", COUNTER, "nn.trainer",
               "topology-search grid points trained and scored"),
    MetricSpec("nn.topology_mispred_rate", HISTOGRAM, "nn.trainer",
               "held-out misprediction rate per searched topology"),
    # -- timing simulator (sim.machine / sim.coherence) ----------------
    MetricSpec("sim.runs", COUNTER, "sim.machine",
               "timed trace replays"),
    MetricSpec("sim.cycles", COUNTER, "sim.machine",
               "simulated execution cycles (max core clock, summed)"),
    MetricSpec("sim.deps_offered", COUNTER, "sim.machine",
               "dependences offered to the NN pipeline"),
    MetricSpec("sim.fifo_stalls", COUNTER, "sim.machine",
               "loads stalled at retirement on a full input FIFO"),
    MetricSpec("sim.act_stall_cycles", COUNTER, "sim.machine",
               "cycles lost to those FIFO stalls"),
    MetricSpec("sim.fifo_occupancy", HISTOGRAM, "sim.machine",
               "NN-pipeline FIFO occupancy at each offer"),
    MetricSpec("sim.overhead_proxy", GAUGE, "sim.machine",
               "adaptive-tracking cost of the most recent replay "
               "(deps offered x (1 + mean FIFO occupancy))"),
    MetricSpec("sim.cache.loads", COUNTER, "sim.coherence",
               "loads issued to the memory system"),
    MetricSpec("sim.cache.stores", COUNTER, "sim.coherence",
               "stores issued to the memory system"),
    MetricSpec("sim.cache.l1_hits", COUNTER, "sim.coherence",
               "loads served by the private L1"),
    MetricSpec("sim.cache.l2_hits", COUNTER, "sim.coherence",
               "loads served by the private L2"),
    MetricSpec("sim.cache.c2c", COUNTER, "sim.coherence",
               "cache-to-cache transfers"),
    MetricSpec("sim.cache.mem", COUNTER, "sim.coherence",
               "accesses missing to main memory"),
    MetricSpec("sim.cache.upgrades", COUNTER, "sim.coherence",
               "S->M upgrade requests"),
    MetricSpec("sim.cache.evictions", COUNTER, "sim.coherence",
               "L2 line evictions"),
    MetricSpec("sim.cache.lw_dropped", COUNTER, "sim.coherence",
               "evictions that discarded last-writer metadata"),
    # -- workload framework (workloads.framework) ----------------------
    MetricSpec("sched.runs", COUNTER, "workloads.framework",
               "workload executions"),
    MetricSpec("sched.failed_runs", COUNTER, "workloads.framework",
               "executions ending in a SimulatedFailure"),
    MetricSpec("sched.steps", COUNTER, "workloads.framework",
               "scheduler steps (operations committed or control ops)"),
    MetricSpec("sched.quanta", COUNTER, "workloads.framework",
               "scheduling decisions (quantum boundaries)"),
    MetricSpec("sched.events", COUNTER, "workloads.framework",
               "trace events committed"),
    MetricSpec("sched.events_per_run", HISTOGRAM, "workloads.framework",
               "trace length distribution across executions"),
    MetricSpec("sched.events_per_sec", GAUGE, "workloads.framework",
               "event throughput of the most recent execution"),
)


def format_catalog():
    """Render the catalog as a text table (used by the docs)."""
    from repro.common.texttable import render_table

    rows = [(m.name, m.kind, m.layer, m.description) for m in CATALOG]
    return render_table(("metric", "kind", "layer", "description"), rows)
