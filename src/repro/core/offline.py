"""Offline training of ACT networks from correct-execution traces.

Section III.B: traces from correct runs (test-suite executions) are
turned into positive sequence examples plus synthesised negatives
(store-before-last), then a network is trained per program. The paper
trains one topology for all threads with per-thread weights; our
workloads' threads run symmetric code, so the trainer pools all
threads' sequences into one weight set that every thread starts from.
Per-thread weights arise only online: the thread library saves each
thread's weights at exit (see DESIGN.md).

Collection and training run serially: within one diagnosis a worker
round trip costs more than it saves. The corpus sweeps and the Table IV
topology grid are what fan out (see :mod:`repro.parallel`).
"""

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro import faults as _faults
from repro import telemetry
from repro.common.errors import ReproError
from repro.core.act_module import ACTModule
from repro.core.config import ACTConfig
from repro.core.encoding import DepEncoder
from repro.nn.network import OneHiddenLayerNet, SigmoidTable
from repro.nn.trainer import (
    TrainConfig,
    evaluate_misprediction,
    fit_from,
    search_topology,
    train_network,
)
from repro.trace.raw import (
    dep_sequences,
    extract_raw_deps_with_negatives,
    negative_sequences,
)
from repro.workloads.framework import run_program


def _correct_run_task(payload):
    """Picklable work item for one training/pruning execution."""
    program, seed, params = payload
    return run_program(program, seed=seed, **params)


def collect_runs_for_seeds(program, seeds, quarantine=None, **params):
    """Run ``program`` once per seed; every run must pass.

    These model the paper's test-suite executions used for offline
    training and for building the post-processing Correct Set. The
    runs go through :func:`repro.parallel.run_tasks` serially, keyed by
    seed for the quarantine.

    Without a quarantine, a failed run (or one whose program raises a
    :class:`~repro.common.errors.ReproError`) aborts the whole
    collection. With one, bad runs are recorded and dropped, and only
    the clean subset is returned -- diagnosing on it is identical to
    never having scheduled the bad seeds (the differential suite pins
    this).
    """
    from repro.parallel import run_tasks

    seeds = list(seeds)
    runs = run_tasks(
        _correct_run_task,
        [(program, seed, params) for seed in seeds],
        quarantine=quarantine, phase="offline.collect", keys=seeds)
    kept = []
    for seed, run in zip(seeds, runs):
        if run is None:  # quarantined by run_tasks
            continue
        if run.failed:
            error = ReproError(
                f"{run.meta.get('program')}: training run with seed "
                f"{run.seed} failed ({run.failure}); offline training "
                "uses only correct executions")
            if quarantine is None:
                raise error
            quarantine.admit("offline.collect", seed, error)
            continue
        kept.append(run)
    telemetry.get_registry().inc("offline.correct_runs", len(kept))
    return kept


def collect_correct_runs(program, n_runs, seed0=0, quarantine=None,
                         **params):
    """Collect runs for the contiguous seed range ``seed0 .. seed0+n-1``.

    See :func:`collect_runs_for_seeds` for the quarantine semantics.
    """
    return collect_runs_for_seeds(
        program, [seed0 + i for i in range(n_runs)], quarantine=quarantine,
        **params)


def sequences_from_runs(runs, seq_len, filter_stack=True, granularity=4):
    """Extract (positive, negative) sequence lists from runs, every
    thread's sequences pooled.

    ``granularity`` is the last-writer tracking unit in bytes (4 =
    perfect word table; a line size = what the deployed hardware sees).
    """
    pooled_pos, pooled_neg = [], []
    for run in runs:
        streams = extract_raw_deps_with_negatives(
            run, filter_stack=filter_stack, granularity=granularity)
        for stream in streams.values():
            pooled_pos.extend(dep_sequences(stream, seq_len))
            pooled_neg.extend(negative_sequences(stream, seq_len))
    return pooled_pos, pooled_neg


def _dedupe(seqs):
    return list(dict.fromkeys(seqs))


def _store_universe(code_map):
    """All static store pcs of the program (for negative augmentation).

    A bug's wild dependence often comes from a store *no load ever
    legitimately reads* (a free, a reset, an adjacent allocation), so
    the corruption candidates must cover every store in the binary, not
    only those observed as dependence sources.
    """
    if code_map is None:
        return None
    return code_map.store_pcs()


def augment_negative_sequences(pos_seqs, seed=0, per_positive=2,
                               store_pcs=None, protected_pairs=None):
    """Synthesize extra invalid sequences by corrupting the last writer.

    The paper's negative examples pair each load with the store *before*
    the last store to the same address. With our (much smaller) traces
    that alone under-populates the invalid class, so we additionally
    corrupt each valid sequence's newest dependence: replace its store
    with another store pc drawn from the program's observed stores such
    that the resulting (store, load) pair never occurs as a valid
    dependence. This teaches the geometric rule the hardware needs --
    "this load has a specific set of legal writers" -- and is exactly
    the class of invalid dependence a bug produces.
    """
    from repro.common.rng import make_rng
    from repro.trace.raw import RawDep

    pos_seqs = _dedupe(pos_seqs)
    if store_pcs is None:
        store_pcs = {d.store_pc for seq in pos_seqs for d in seq}
    store_pcs = sorted(store_pcs)
    valid_pairs = {(d.store_pc, d.load_pc) for seq in pos_seqs for d in seq}
    if protected_pairs:
        # Pairs the deployed hardware can legitimately form (e.g. line-
        # granularity aliases) must never be taught as invalid.
        valid_pairs = valid_pairs | set(protected_pairs)
    rng = make_rng(seed, stream=0xAE6)
    out = []
    for seq in pos_seqs:
        last = seq[-1]
        candidates = [s for s in store_pcs
                      if (s, last.load_pc) not in valid_pairs]
        if not candidates:
            continue
        k = min(per_positive, len(candidates))
        for s in rng.sample(candidates, k):
            # The corrupted dependence keeps the original's thread label:
            # the label axis must stay neutral (a dependence may be
            # legitimately intra- or inter-thread depending on the
            # interleaving, so a flipped label is not evidence of a bug).
            bad = RawDep(s, last.load_pc, inter_thread=last.inter_thread)
            out.append(seq[:-1] + (bad,))
    return _dedupe(out)


@dataclass
class TrainedACT:
    """A trained ACT configuration ready for deployment.

    Stores the topology, the encoder, and per-thread weight arrays --
    the binary-augmentation artifact of Section IV.C.
    """

    config: ACTConfig
    encoder: DepEncoder
    weights: Dict[int, np.ndarray]  # tid -> flat weight array
    default_weights: np.ndarray
    train_error: float = 0.0
    test_mispred_rate: float = 0.0
    topology: str = ""
    metrics: dict = field(default_factory=dict)
    #: Correct Sets built by diagnoses that used this state, by pruning
    #: key (see :func:`repro.core.diagnosis.diagnose_failure`). A cache:
    #: not serialised, not compared, not a constructor argument.
    _correct_sets: dict = field(default_factory=dict, init=False,
                                repr=False, compare=False)
    #: Window -> output dicts shared by the AMs, by weight vector held
    #: (None for the default, else the tid), with the weights, sigmoid
    #: table and encoder each was scored with. A cache, like the above.
    _scores: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def weights_for(self, tid):
        """Weights for a thread, falling back to the pooled default."""
        return self.weights.get(tid, self.default_weights)

    def make_network(self, tid=0):
        """The thread's network, built from its saved weights."""
        flat = self.weights_for(tid)
        plan = _faults.get_plan()
        if plan.enabled and plan.fires("weight_flip", tid):
            # Injected soft error in the weight register file: one
            # weight becomes NaN/Inf. Deployment heals it (see
            # repro.core.deploy) by falling back to pristine weights.
            flat = _faults.flip_weights(flat, plan, tid)
            telemetry.get_registry().inc("faults.weight_flips")
        return OneHiddenLayerNet(
            self.config.n_inputs, self.config.n_hidden,
            max_inputs=self.config.max_inputs,
            sigmoid=SigmoidTable(self.config.sigmoid_resolution),
            weights=flat)

    def make_module(self, tid=0, config=None):
        """A fresh AM for one core, initialised with the thread's weights.

        Thread creation in Section IV.C: ``chkwt`` finds the thread's
        saved weights (else the defaults) and a loop of ``stwt`` loads
        them into the AM. ``config`` replaces the trained configuration
        (the timing simulator's hardware overrides).
        """
        net = self.make_network(tid)
        return ACTModule(config=config or self.config, encoder=self.encoder,
                         net=net, tid=tid, outputs=self._scores_for(tid, net))

    def _scores_for(self, tid, net):
        """The shared window -> output dict for ``net``'s weights.

        None when ``net`` does not hold the thread's stored weights (a
        ``weight_flip`` fault changed them): that module scores alone.
        """
        weights = net.read_weights().tobytes()
        if weights != np.asarray(self.weights_for(tid), float).tobytes():
            return None
        key = (weights, net.sigmoid.resolution, net.sigmoid.clip,
               self.encoder)
        slot = tid if tid in self.weights else None
        held = self._scores.get(slot)
        if held is None or held[0] != key:
            held = self._scores[slot] = (key, {})
        return held[1]

    def record_thread_weights(self, tid, flat):
        """Patch the binary with weights read out at thread exit.

        Thread exit in Section IV.C: a loop of ``ldwt``
        (:meth:`ACTModule.save_weights`) reads the weights out, and the
        next execution's :meth:`make_module` starts from them.
        """
        self.weights[tid] = np.asarray(flat, dtype=float).copy()
        self._scores.pop(tid, None)

    # -- serialisation -------------------------------------------------

    def to_payload(self):
        """JSON-serialisable snapshot (weights + encoder + metrics).

        ``diagnose --cache-dir`` persists this as the NN engine's
        trained state, so a later process reloads the exact weights
        instead of re-running training.
        """
        return {
            "encoder_pcs": [int(pc) for pc in self.encoder.pcs],
            "weights": {str(tid): [float(w) for w in flat]
                        for tid, flat in sorted(self.weights.items())},
            "default_weights": [float(w) for w in self.default_weights],
            "train_error": float(self.train_error),
            "test_mispred_rate": float(self.test_mispred_rate),
            "topology": self.topology,
        }

    @classmethod
    def from_payload(cls, payload, config):
        """Rebuild a TrainedACT from :meth:`to_payload` output."""
        encoder = DepEncoder(pcs=payload["encoder_pcs"])
        weights = {int(tid): np.asarray(flat, dtype=float)
                   for tid, flat in payload["weights"].items()}
        return cls(config=config, encoder=encoder, weights=weights,
                   default_weights=np.asarray(payload["default_weights"],
                                              dtype=float),
                   train_error=payload["train_error"],
                   test_mispred_rate=payload["test_mispred_rate"],
                   topology=payload["topology"])

    def train_negative_feedback(self, invalid_seqs, support_runs=None,
                                epochs=500):
        """Teach confirmed-invalid sequences as negative examples.

        Section III.C: "If the neural network predicts an invalid RAW
        dependence sequence to be valid and a failure occurs, ACT will
        not be able to diagnose it. If ... the programmer ... is able
        to pinpoint the invalid dependence sequence, the sequence can
        be fed to the neural network (similar to offline training) as
        a negative example."

        Every stored weight set (the default and each thread's) is
        updated in place by the offline recipe started from its current
        weights (:func:`~repro.nn.trainer.fit_from`): class-balanced
        full-batch descent, for at most ``epochs`` epochs, until the
        negatives and the rehearsed positives are all classified right.
        ``support_runs`` optionally supplies correct runs whose
        sequences are rehearsed as positives during the update so
        existing knowledge is not catastrophically forgotten.

        Returns the number of weight sets updated.
        """
        seqs = list(invalid_seqs)
        if not seqs:
            return 0
        xs_neg = self.encoder.encode_many(seqs, seq_len=self.config.seq_len)
        xs_pos = None
        if support_runs:
            pos, _neg = sequences_from_runs(
                support_runs, self.config.seq_len,
                filter_stack=self.config.filter_stack_loads)
            xs_pos = self.encoder.encode_many(_dedupe(pos),
                                              seq_len=self.config.seq_len)
        train_config = TrainConfig(max_epochs=epochs)

        updated = 0
        for key in [None] + list(self.weights):
            net = OneHiddenLayerNet(
                self.config.n_inputs, self.config.n_hidden,
                max_inputs=self.config.max_inputs,
                sigmoid=SigmoidTable(self.config.sigmoid_resolution),
                weights=(self.default_weights if key is None
                         else self.weights[key]))
            fit_from(net, xs_pos, xs_neg, train_config)
            flat = net.read_weights()
            if key is None:
                self.default_weights = flat
            else:
                self.weights[key] = flat
            updated += 1
        return updated


class OfflineTrainer:
    """Drives offline training end-to-end for one program."""

    #: Wrong-writer corruptions synthesized per valid sequence.
    AUGMENT_PER_POSITIVE = 4

    def __init__(self, config=None, train_config=None,
                 augment_negatives=True, train_line_view=True):
        self.config = config or ACTConfig()
        self.train_config = train_config or TrainConfig(
            learning_rate=self.config.learning_rate)
        self.augment_negatives = augment_negatives
        self.train_line_view = train_line_view

    def _line_alias_pairs(self, runs):
        """Line-alias pairs of ``runs`` that augmentation must not
        corrupt into (None when augmentation is off)."""
        if not self.augment_negatives:
            return None
        from repro.trace.raw import line_level_pairs

        return line_level_pairs(runs, line_size=self.config.line_size,
                                filter_stack=self.config.filter_stack_loads)

    def train(self, program=None, runs=None, n_runs=10, seed0=0,
              encoder=None, quarantine=None, **params) -> TrainedACT:
        """Train from a program (running it) or from pre-collected runs.

        ``quarantine`` lets corrupt training runs be skipped-and-reported
        (training proceeds on the clean subset); training on an empty
        clean subset raises :class:`~repro.common.errors.ReproError`.
        """
        with telemetry.get_registry().span(
                "offline.train", program=getattr(program, "name", "runs")):
            if runs is None:
                if program is None:
                    raise ReproError("need a program or pre-collected runs")
                runs = collect_correct_runs(program, n_runs, seed0=seed0,
                                            quarantine=quarantine, **params)
                if not runs:
                    raise ReproError(
                        "no correct training run survived quarantine "
                        f"({len(quarantine)} of {n_runs} runs quarantined)"
                        if quarantine is not None else
                        "no correct training runs collected")
            if encoder is None:
                code_map = runs[0].code_map
                if code_map is None:
                    raise ReproError("runs carry no code map; pass an encoder")
                encoder = DepEncoder(code_map=code_map)

            cfg = self.config
            store_universe = _store_universe(runs[0].code_map)
            protected = self._line_alias_pairs(runs)
            pos, neg = sequences_from_runs(
                runs, cfg.seq_len, filter_stack=cfg.filter_stack_loads)
            if not cfg.lw_word_granularity and self.train_line_view:
                # The deployed hardware sees line-granularity writers;
                # train on that view as well so its benign aliases are
                # in-distribution (Section V: "the increase [in
                # misprediction] is insignificant").
                line_pos, _line_neg = sequences_from_runs(
                    runs, cfg.seq_len, filter_stack=cfg.filter_stack_loads,
                    granularity=cfg.line_size)
                pos = pos + line_pos
            weights, result = self._train_one(pos, neg, encoder,
                                              store_universe, protected)

            telemetry.get_registry().set_gauge("offline.train_error",
                                               result.train_error)
            return TrainedACT(config=cfg, encoder=encoder, weights={},
                              default_weights=weights,
                              train_error=result.train_error,
                              topology=f"{cfg.n_inputs}-{cfg.n_hidden}-1")

    def _train_one(self, pos_seqs, neg_seqs, encoder, store_universe=None,
                   protected_pairs=None):
        pos_unique, neg_unique = self.prepare_examples(
            pos_seqs, neg_seqs, store_universe=store_universe,
            protected_pairs=protected_pairs)
        xs_pos = encoder.encode_many(pos_unique,
                                     seq_len=self.config.seq_len)
        xs_neg = encoder.encode_many(neg_unique,
                                     seq_len=self.config.seq_len)
        result = train_network(xs_pos, xs_neg, self.config.n_hidden,
                               config=self.train_config,
                               max_inputs=self.config.max_inputs)
        return result.net.read_weights(), result

    def prepare_examples(self, pos_seqs, neg_seqs, store_universe=None,
                         protected_pairs=None):
        """The offline-training recipe, shared by train() and search():
        dedupe, drop contradiction-teaching negatives, augment with
        wrong-writer corruptions that avoid ``protected_pairs`` (see
        :meth:`_line_alias_pairs`)."""
        if not pos_seqs:
            raise ReproError("no positive sequences to train on")
        pos_unique = _dedupe(pos_seqs)
        # A before-last-store negative whose final dependence also
        # occurs as a *valid* dependence (same store, load and label)
        # elsewhere teaches a contradiction: in programs with
        # nondeterministic interleavings the same pair is valid in some
        # schedules. Keeping such negatives makes the network memorise
        # exact windows and reject every unseen benign permutation.
        # Contextual single-pair anomalies are instead covered by the
        # wrong-writer augmentation below.
        valid_triples = {(d.store_pc, d.load_pc, d.inter_thread)
                         for s in pos_unique for d in s}
        neg_unique = [
            s for s in _dedupe(neg_seqs)
            if (s[-1].store_pc, s[-1].load_pc, s[-1].inter_thread)
            not in valid_triples]
        if self.augment_negatives:
            extra = augment_negative_sequences(
                pos_unique, seed=self.train_config.seed,
                per_positive=self.AUGMENT_PER_POSITIVE,
                store_pcs=store_universe, protected_pairs=protected_pairs)
            pos_set = set(pos_unique)
            neg_unique = _dedupe(neg_unique
                                 + [s for s in extra if s not in pos_set])
        return pos_unique, neg_unique

    # ------------------------------------------------------------------
    # Table IV: topology search + misprediction evaluation
    # ------------------------------------------------------------------

    def search(self, program=None, train_runs=None, test_runs=None,
               seq_lens=(1, 2, 3, 4, 5), hidden_widths=None,
               n_train_runs=10, n_test_runs=10, seed0=0, jobs=None,
               **params):
        """Grid-search topologies as in Table IV.

        Training examples come from ``train_runs``; the misprediction
        rate is the dynamic false-positive rate over ``test_runs``.
        ``jobs`` spreads the topology grid across worker processes
        (identical results to serial); runs are collected serially.

        Returns (best TopologyChoice, all choices, encoder).
        """
        if train_runs is None or test_runs is None:
            runs = collect_correct_runs(program, n_train_runs + n_test_runs,
                                        seed0=seed0, **params)
            train_runs = runs[:n_train_runs]
            test_runs = runs[n_train_runs:]
        encoder = DepEncoder(code_map=train_runs[0].code_map)
        cfg = self.config
        store_universe = _store_universe(train_runs[0].code_map)
        protected = self._line_alias_pairs(train_runs)

        example_sets = {}
        for n in seq_lens:
            tr_pos, tr_neg = sequences_from_runs(
                train_runs, n, filter_stack=cfg.filter_stack_loads)
            te_pos, _te_neg = sequences_from_runs(
                test_runs, n, filter_stack=cfg.filter_stack_loads)
            if not tr_pos or not te_pos:
                continue
            if not cfg.lw_word_granularity and self.train_line_view:
                line_pos, _ = sequences_from_runs(
                    train_runs, n, filter_stack=cfg.filter_stack_loads,
                    granularity=cfg.line_size)
                tr_pos = tr_pos + line_pos
            pos_unique, neg_unique = self.prepare_examples(
                tr_pos, tr_neg, store_universe=store_universe,
                protected_pairs=protected)
            # Table IV tests contain no invalid dependences: the measured
            # rate is purely false positives, so negatives stay out of
            # the test set here.
            example_sets[n] = (
                encoder.encode_many(pos_unique, seq_len=n),
                encoder.encode_many(neg_unique, seq_len=n),
                encoder.encode_many(te_pos, seq_len=n),
                encoder.encode_many([], seq_len=n),
            )
        if not example_sets:
            raise ReproError("no sequence length produced training examples")
        with telemetry.get_registry().span(
                "offline.topology_search",
                program=getattr(program, "name", "runs"),
                seq_lens=len(example_sets)):
            best, choices = search_topology(
                example_sets, hidden_widths=hidden_widths,
                config=self.train_config, max_inputs=self.config.max_inputs,
                jobs=jobs)
        return best, choices, encoder


def evaluate_false_positive_rate(trained, runs):
    """Dynamic fraction of valid sequences predicted invalid over runs."""
    net = trained.make_network()
    cfg = trained.config
    pos, _neg = sequences_from_runs(runs, cfg.seq_len,
                                    filter_stack=cfg.filter_stack_loads)
    if not pos:
        return 0.0
    xs = trained.encoder.encode_many(pos)
    return evaluate_misprediction(net, xs, None)


def strict_invalid_sequences(runs, config, reference_runs=None, seed=0):
    """Sequences whose final dependence is *certainly* invalid.

    The paper "intentionally form[s] invalid RAW dependences (e.g., RAW
    dependences with a store instruction before the last one)". In
    programs with nondeterministic interleavings the before-last writer
    is often a legitimate writer under another schedule, so testing on
    raw before-last negatives mislabels genuinely-valid dependences as
    invalid. This builds the *strict* set: before-last-store negatives
    plus wrong-writer corruptions, keeping only those whose final
    (store, load, label) never occurs as a valid dependence anywhere in
    ``runs`` + ``reference_runs`` and is not a line-granularity alias of
    one.
    """
    from repro.trace.raw import line_level_pairs

    cfg = config
    all_runs = list(runs) + list(reference_runs or [])
    pos, neg = sequences_from_runs(runs, cfg.seq_len,
                                   filter_stack=cfg.filter_stack_loads)
    ref_pos, _ = sequences_from_runs(all_runs, cfg.seq_len,
                                     filter_stack=cfg.filter_stack_loads)
    valid_triples = {(d.store_pc, d.load_pc, d.inter_thread)
                     for s in ref_pos for d in s}
    protected = line_level_pairs(all_runs, line_size=cfg.line_size,
                                 filter_stack=cfg.filter_stack_loads)

    def strictly_invalid(dep):
        if (dep.store_pc, dep.load_pc, dep.inter_thread) in valid_triples:
            return False
        return (dep.store_pc, dep.load_pc) not in protected

    out = [s for s in _dedupe(neg) if strictly_invalid(s[-1])]
    store_universe = _store_universe(all_runs[0].code_map)
    if store_universe is None:
        store_universe = sorted({d.store_pc for s in ref_pos for d in s})
    corrupted = augment_negative_sequences(
        _dedupe(pos), seed=seed, per_positive=2, store_pcs=store_universe,
        protected_pairs=protected | {(d.store_pc, d.load_pc)
                                     for s in ref_pos for d in s})
    out.extend(s for s in corrupted if strictly_invalid(s[-1]))
    return _dedupe(out)


def evaluate_strict_false_negative_rate(trained, runs, reference_runs=None):
    """False-negative rate over :func:`strict_invalid_sequences`.

    Returns (rate, n_tested).
    """
    seqs = strict_invalid_sequences(runs, trained.config,
                                    reference_runs=reference_runs)
    if not seqs:
        return 0.0, 0
    net = trained.make_network()
    xs = trained.encoder.encode_many(seqs)
    return evaluate_misprediction(net, None, xs), len(seqs)
