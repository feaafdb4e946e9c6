"""Ablations of ACT's design choices.

Not a table in the paper, but each knob is one the paper argues about:

- sequence length ``N`` (how much history the network sees);
- Debug-Buffer size (the MySQL#1 sensitivity);
- misprediction threshold (the online test/train control loop);
- offline-training ingredients (negative augmentation, line-view
  positives).
"""

from dataclasses import dataclass
from typing import List, Optional

from repro.common.texttable import render_table
from repro.core.config import ACTConfig
from repro.core.deploy import deploy_on_run
from repro.core.diagnosis import diagnose_failure
from repro.core.offline import (
    OfflineTrainer,
    collect_correct_runs,
    evaluate_false_positive_rate,
)
from repro.workloads.framework import run_program
from repro.workloads.registry import get_bug, get_kernel


@dataclass
class SeqLenPoint:
    seq_len: int
    rank: Optional[int]
    found: bool
    false_positive_pct: float


def ablate_seq_len(bug="mysql2", seq_lens=(1, 2, 3, 4, 5),
                   n_train=8, n_pruning=10) -> List[SeqLenPoint]:
    """Diagnosis quality and FP rate as the history window shrinks."""
    out = []
    program = get_bug(bug)
    for n in seq_lens:
        cfg = ACTConfig(seq_len=n)
        trained = OfflineTrainer(config=cfg).train(
            program, n_runs=n_train, buggy=False)
        test_runs = collect_correct_runs(program, 5, seed0=200, buggy=False)
        fp = evaluate_false_positive_rate(trained, test_runs)
        report = diagnose_failure(program, config=cfg, trained=trained,
                                  n_pruning_runs=n_pruning)
        out.append(SeqLenPoint(seq_len=n, rank=report.rank,
                               found=report.found,
                               false_positive_pct=100.0 * fp))
    return out


@dataclass
class BufferPoint:
    size: int
    found: bool
    rank: Optional[int]
    overflowed: bool


def ablate_debug_buffer(bug="mysql1", sizes=(15, 30, 60, 120, 240),
                        n_train=8, n_pruning=10) -> List[BufferPoint]:
    """The MySQL#1 story: small buffers lose the root cause."""
    program = get_bug(bug)
    cfg = ACTConfig()
    trained = OfflineTrainer(config=cfg).train(program, n_runs=n_train,
                                               buggy=False)
    out = []
    for size in sizes:
        sized = cfg.with_(debug_buffer=size)
        report = diagnose_failure(program, config=sized,
                                  trained=_rebuffer(trained, sized),
                                  n_pruning_runs=n_pruning)
        out.append(BufferPoint(size=size, found=report.found,
                               rank=report.rank,
                               overflowed=report.debug_overflowed))
    return out


def _rebuffer(trained, config):
    """A TrainedACT clone with a different hardware config.

    The clone shares the original's Correct Sets: the Debug Buffer size
    is not part of their key, so the pruning runs are collected once
    across every size.
    """
    from repro.core.offline import TrainedACT
    clone = TrainedACT(config=config, encoder=trained.encoder,
                       weights=dict(trained.weights),
                       default_weights=trained.default_weights,
                       topology=trained.topology)
    clone._correct_sets = trained._correct_sets
    return clone


@dataclass
class ThresholdPoint:
    threshold: float
    mode_switches: int
    online_trained: int
    invalid_predictions: int


def ablate_threshold(kernel="fft", thresholds=(0.01, 0.05, 0.2, 0.5),
                     n_train=6) -> List[ThresholdPoint]:
    """Mode-control sensitivity: deploy a network trained on the legacy
    binary over the rewritten one and watch the control loop react."""
    program = get_kernel(kernel)
    out = []
    for thr in thresholds:
        cfg = ACTConfig(mispred_threshold=thr, check_window=25)
        trained = OfflineTrainer(config=cfg).train(
            program, n_runs=n_train, new_code=False)
        run = run_program(program, seed=77, new_code=True)
        result = deploy_on_run(trained, run)
        out.append(ThresholdPoint(
            threshold=thr,
            mode_switches=result.n_mode_switches,
            online_trained=sum(m.stats.online_trained
                               for m in result.modules.values()),
            invalid_predictions=result.n_invalid))
    return out


@dataclass
class TrainingAblationRow:
    variant: str
    found: bool
    rank: Optional[int]
    false_positive_pct: float


def ablate_training_ingredients(bug="ptx", n_train=8,
                                n_pruning=10) -> List[TrainingAblationRow]:
    """What each offline-training ingredient buys.

    - ``full``: augmentation + line-view positives (the default);
    - ``no_augment``: only the paper's before-last-store negatives;
    - ``no_line_view``: augmentation but word-only positives.
    """
    program = get_bug(bug)
    cfg = ACTConfig()
    variants = {
        "full": dict(augment_negatives=True, train_line_view=True),
        "no_augment": dict(augment_negatives=False, train_line_view=True),
        "no_line_view": dict(augment_negatives=True, train_line_view=False),
    }
    out = []
    for name, kwargs in variants.items():
        trained = OfflineTrainer(config=cfg, **kwargs).train(
            program, n_runs=n_train, buggy=False)
        test_runs = collect_correct_runs(program, 5, seed0=300, buggy=False)
        fp = evaluate_false_positive_rate(trained, test_runs)
        report = diagnose_failure(program, config=cfg, trained=trained,
                                  n_pruning_runs=n_pruning)
        out.append(TrainingAblationRow(variant=name, found=report.found,
                                       rank=report.rank,
                                       false_positive_pct=100.0 * fp))
    return out


def format_ablations(seq_pts, buf_pts, thr_pts, train_rows):
    tables = [
        render_table(("N", "Found", "Rank", "FP (%)"),
                     [(p.seq_len, p.found, p.rank or "-",
                       f"{p.false_positive_pct:.1f}") for p in seq_pts],
                     title="Ablation: RAW-sequence length"),
        render_table(("Debug buffer", "Found", "Rank", "Overflowed"),
                     [(p.size, p.found, p.rank or "-", p.overflowed)
                      for p in buf_pts],
                     title="Ablation: Debug-Buffer size (MySQL#1)"),
        render_table(("Threshold", "Mode switches", "Online trained",
                      "Invalid preds"),
                     [(f"{p.threshold:.2f}", p.mode_switches,
                       p.online_trained, p.invalid_predictions)
                      for p in thr_pts],
                     title="Ablation: misprediction threshold (new code)"),
        render_table(("Training variant", "Found", "Rank", "FP (%)"),
                     [(r.variant, r.found, r.rank or "-",
                       f"{r.false_positive_pct:.1f}") for r in train_rows],
                     title="Ablation: offline-training ingredients"),
    ]
    return "\n\n".join(tables)
