"""End-to-end failure diagnosis (the full ACT workflow of Figure 1).

1. Offline-train from correct runs (or reuse a provided TrainedACT).
2. Execute the failure run, replaying its dependences one at a time
   through per-core ACT Modules in online testing/training mode.
3. After the failure, collect the Debug Buffers, build a Correct Set
   from ~20 fresh correct runs (or reuse the one a provided TrainedACT
   kept from an earlier diagnosis of the same program), prune and rank.
4. Report where the ground-truth root-cause dependence landed.

Resilience hooks (all inert by default, zero-fault runs are
bit-identical to a plain call):

- ``faults``: a :class:`~repro.faults.FaultPlan` activated for the whole
  diagnosis; its injected damage is absorbed by the quarantine instead
  of aborting the pipeline.
- ``quarantine``: a :class:`~repro.faults.Quarantine` that records every
  skipped run / healed module; attached to the report when non-empty.
"""

from dataclasses import dataclass, field
from typing import Optional

from repro import faults as _faults
from repro import telemetry
from repro.common.errors import ReproError
from repro.core import policy as _policy
from repro.core.config import ACTConfig
from repro.core.deploy import deploy_on_run
from repro.core.offline import OfflineTrainer, collect_runs_for_seeds
from repro.core.postprocess import CorrectSet, postprocess
from repro.workloads.framework import run_program

@dataclass
class DiagnosisReport:
    """Everything Table V reports for one bug, plus diagnostics."""

    program: str
    failed: bool
    found: bool
    rank: Optional[int]
    debug_buffer_position: Optional[int]
    filter_pct: float
    n_debug_entries: int
    debug_overflowed: bool
    findings: list = field(default_factory=list)
    root_cause: Optional[set] = None
    failure_description: str = ""
    n_deps: int = 0
    n_invalid: int = 0
    mode_switches: int = 0
    notes: list = field(default_factory=list)
    quarantine: Optional[dict] = None
    #: name of the engine that produced this report; ``None`` for the
    #: historical direct NN path (keeps pre-registry reports equal).
    engine: Optional[str] = None
    #: False when the engine's candidate space cannot express this bug
    #: (e.g. Aviso on a single-threaded program).
    applicable: bool = True
    #: engine-native ranked candidates ``{"key", "score", "hit"}``;
    #: empty for NN reports, whose ranking lives in ``findings``.
    candidates: list = field(default_factory=list)
    #: failure runs consumed by an engine that accumulates several
    #: (Aviso); ``None`` for engines that diagnose from one.
    n_failure_runs: Optional[int] = None

    def top(self, k=5):
        return self.findings[:k]


def _aborted_report(program, error, quarantine):
    """Terminal report for a diagnosis whose training phase was lost."""
    report = DiagnosisReport(
        program=getattr(program, "name", "?"), failed=False, found=False,
        rank=None, debug_buffer_position=None, filter_pct=0.0,
        n_debug_entries=0, debug_overflowed=False)
    report.notes.append(f"offline training aborted: {error}")
    if quarantine is not None and len(quarantine):
        report.quarantine = quarantine.report_dict()
    return report


def diagnose_failure(program, config=None, trained=None,
                     n_train_runs=10, train_seed0=0,
                     failure_seed=12345,
                     n_pruning_runs=20, pruning_seed0=100,
                     failure_params=None, correct_params=None,
                     pruning_params=None, root_cause=None, faults=None,
                     quarantine=None, trained_sink=None, policy=None):
    """Diagnose ``program``'s failure with the full ACT pipeline.

    Args:
        program: a workload :class:`~repro.workloads.framework.Program`.
            Bug programs take a ``buggy`` parameter; correct runs are
            produced with ``buggy=False`` and the failure run with
            ``buggy=True`` unless overridden via the param dicts.
        config: :class:`ACTConfig` (default config when omitted).
        trained: reuse an existing :class:`TrainedACT` (skips step 1).
            It is the whole warm state: a diagnosis also keeps its
            Correct Set in it, and a later diagnosis of the same
            program object with the same pruning seeds, pruning params,
            ``seq_len`` and ``filter_stack_loads`` reuses that set
            instead of re-running the pruning programs. Nothing is
            kept or reused under an enabled fault plan, or from a
            build that quarantined a run, so the report is the same
            either way.
        failure_params: params for the failure execution
            (default ``{"buggy": True}``).
        correct_params: params for training executions
            (default ``{"buggy": False}``).
        pruning_params: params for the post-failure pruning runs.
            Defaults to ``correct_params``; pass different params when
            the correct runs must cover code the training lacked (the
            paper's new-code protocol: pruning traces "contain RAW
            dependences from the code sections where the dependence
            sequences of the Debug Buffer belong").
        root_cause: override the program's ground-truth dependence keys.
        faults: :class:`~repro.faults.FaultPlan` to activate for the
            whole diagnosis (defaults to the ambient plan; the zero
            plan is a no-op and preserves bit-identical output).
        quarantine: :class:`~repro.faults.Quarantine` collecting
            skip-and-report records for failed runs and healed
            modules; when provided, they degrade coverage instead of
            raising.
        trained_sink: optional callable invoked with the
            :class:`TrainedACT` once training state is in hand (freshly
            trained or passed in). The NN engine's trained-state store
            hangs off this hook; it never changes the report. The sink
            gets the object this diagnosis then prunes with, so its
            Correct Set is kept there too.
        policy: :class:`~repro.core.policy.PolicySpec` governing
            adaptive tracking during the failure-run deployment
            (defaults to the ambient policy; a disabled policy is a
            no-op and preserves bit-identical output). Training and
            pruning runs are never sampled -- only the production
            deployment is.

    Returns:
        :class:`DiagnosisReport`.
    """
    active_policy = policy if policy is not None else _policy.get_policy()
    config = config or ACTConfig()
    failure_params = dict(failure_params or {"buggy": True})
    correct_params = dict(correct_params or {"buggy": False})
    pruning_params = dict(pruning_params if pruning_params is not None
                          else correct_params)
    plan = faults if faults is not None else _faults.get_plan()
    tele = telemetry.get_registry()
    with _faults.use_plan(plan), _policy.use_policy(active_policy):
        with tele.span("diagnose", program=getattr(program, "name", "?")):
            return _diagnose_phases(
                program, config, trained, tele, n_train_runs, train_seed0,
                failure_seed, n_pruning_runs, pruning_seed0, failure_params,
                correct_params, pruning_params, root_cause,
                quarantine, trained_sink)


def _diagnose_phases(program, config, trained, tele, n_train_runs,
                     train_seed0, failure_seed, n_pruning_runs,
                     pruning_seed0, failure_params, correct_params,
                     pruning_params, root_cause, quarantine=None,
                     trained_sink=None):
    if trained is None:
        try:
            trained = train_phase(program, config, n_train_runs,
                                  train_seed0, quarantine=quarantine,
                                  **correct_params)
        except ReproError as e:
            if quarantine is None:
                raise
            return _aborted_report(program, e, quarantine)
    if trained_sink is not None:
        trained_sink(trained)

    # --- The production failure run ----------------------------------
    with tele.span("diagnose.failure_run", seed=failure_seed):
        failure_run = run_program(program, seed=failure_seed,
                                  **failure_params)
    report = failure_report(program, failure_run, root_cause)
    if not failure_run.failed:
        report.notes.append("failure run did not fail; nothing to diagnose")
        return report
    if not report.root_cause:
        report.notes.append("program provides no ground-truth root cause")

    deployment = deploy_phase(trained, failure_run, report,
                              quarantine=quarantine)

    # --- Offline post-processing --------------------------------------
    # A clean Correct Set is kept in ``trained`` for later diagnoses of
    # the same program. Faulted builds are neither kept nor reused, and
    # a build that quarantined a run is not kept.
    seeds = list(range(pruning_seed0, pruning_seed0 + n_pruning_runs))
    memo = {} if _faults.get_plan().enabled else trained._correct_sets
    key = _pruning_key(program, config, seeds, pruning_params)
    if key in memo:
        correct_set = memo[key][1]
    else:
        n_quarantined = len(quarantine) if quarantine is not None else 0
        correct_set = pruning_phase(
            program, config, seeds, quarantine=quarantine, **pruning_params)
        if quarantine is None or len(quarantine) == n_quarantined:
            # The program rides along so its id is not reused by
            # another object while the entry lives.
            memo[key] = (program, correct_set)
    rank_phase(deployment, correct_set, report)
    if tele.enabled:
        tele.inc("diagnose.runs")
        if report.found:
            tele.inc("diagnose.found")
    if quarantine is not None and len(quarantine):
        report.quarantine = quarantine.report_dict()
    return report


# The phases of one diagnosis, in pipeline order. Each runs under its
# ``diagnose.*`` telemetry span; the frontier sweep reuses the policy-
# independent ones and repeats deploy + rank once per sampling rate.

def train_phase(program, config, n_runs, seed0=0, quarantine=None,
                **params):
    """Offline training from ``n_runs`` correct runs."""
    with telemetry.get_registry().span("diagnose.offline_train",
                                       n_runs=n_runs):
        return OfflineTrainer(config=config).train(
            program, n_runs=n_runs, seed0=seed0, quarantine=quarantine,
            **params)


def failure_report(program, failure_run, root_cause=None):
    """The report of ``failure_run`` before deployment and ranking.

    Its ``root_cause`` is the ground truth: ``root_cause`` when given,
    else the run's own tag.
    """
    return DiagnosisReport(
        program=failure_run.meta.get("program", getattr(program, "name", "?")),
        failed=failure_run.failed, found=False, rank=None,
        debug_buffer_position=None, filter_pct=0.0, n_debug_entries=0,
        debug_overflowed=False,
        root_cause=root_cause or failure_run.meta.get("root_cause"),
        failure_description=str(failure_run.failure) if failure_run.failure else "")


def deploy_phase(trained, failure_run, report, quarantine=None):
    """Replay the failure run through the ACT Modules under the ambient
    policy; fills the report's deployment counts and Debug Buffer
    position. Returns the deployment."""
    tele = telemetry.get_registry()
    with tele.span("diagnose.deploy"):
        deployment = deploy_on_run(trained, failure_run,
                                   quarantine=quarantine)
    report.n_deps = deployment.n_deps
    report.n_invalid = deployment.n_invalid
    report.mode_switches = deployment.n_mode_switches
    active_policy = _policy.get_policy()
    if active_policy.enabled:
        report.notes.append(
            f"adaptive policy active ({active_policy.describe()}): "
            f"shed {deployment.n_shed} of {deployment.n_deps} deps, "
            f"tightened {deployment.n_tightened}")
    if tele.enabled:
        tele.inc("diagnose.deps_observed", deployment.n_deps)
        tele.inc("diagnose.invalids_flagged", deployment.n_invalid)
        tele.inc("diagnose.mode_switches", deployment.n_mode_switches)

    # Table V "Debug Buf. Pos.": depth of the root cause from the newest
    # entry of its core's buffer at failure time.
    truth = report.root_cause
    if truth:
        def is_root(entry):
            return any((d.store_pc, d.load_pc) in truth for d in entry.seq)
        positions = [m.debug_buffer.position_from_newest(is_root)
                     for m in deployment.modules.values()]
        positions = [p for p in positions if p is not None]
        report.debug_buffer_position = min(positions) if positions else None
        report.debug_overflowed = any(
            m.debug_buffer.overflowed for m in deployment.modules.values())
        if report.debug_buffer_position is None and report.debug_overflowed:
            report.notes.append(
                "root cause not in debug buffer; buffer overflowed -- "
                "retry with a larger debug_buffer (the MySQL#1 case)")
    return deployment


def _pruning_key(program, config, seeds, params):
    """What a Correct Set is a function of, besides the fault plan: the
    program object (by identity), the pruning seeds and params, and the
    sequence length and stack filter of its sequences."""
    return (id(program), tuple(seeds), repr(sorted(params.items())),
            config.seq_len, config.filter_stack_loads)


def pruning_phase(program, config, seeds, quarantine=None, **params):
    """The Correct Set from one fresh correct run per seed."""
    with telemetry.get_registry().span("diagnose.pruning_runs",
                                       n_runs=len(seeds)):
        correct_set = CorrectSet(config.seq_len,
                                 filter_stack=config.filter_stack_loads)
        for run in collect_runs_for_seeds(program, seeds,
                                          quarantine=quarantine, **params):
            correct_set.add_run(run)
    return correct_set


def rank_phase(deployment, correct_set, report):
    """Prune the Debug Buffer entries against the Correct Set and rank
    them; fills the report's findings and the root cause's rank."""
    with telemetry.get_registry().span("diagnose.ranking"):
        entries = deployment.debug_entries()
        report.n_debug_entries = len(entries)
        result = postprocess(entries, correct_set)
    report.findings = result.findings
    report.filter_pct = result.filter_pct
    if report.root_cause:
        report.rank = result.rank_of_dep(report.root_cause)
        report.found = report.rank is not None


def diagnose_with_buffer_escalation(program, config=None, max_buffer=960,
                                    **kwargs):
    """Diagnose, doubling the debug buffer until the root cause is caught.

    Models the paper's MySQL#1 observation: with the default 60-entry
    buffer the buggy sequence is overwritten before the failure, and "ACT
    cannot find the buggy sequence without a larger buffer".

    Returns (report, buffer_size_used).
    """
    config = config or ACTConfig()
    size = config.debug_buffer
    while True:
        report = diagnose_failure(program, config=config.with_(
            debug_buffer=size), **kwargs)
        if report.found or size >= max_buffer:
            return report, size
        size *= 2
