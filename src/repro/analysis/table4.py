"""Table IV: training of neural networks.

Per program: number of training traces, number of distinct RAW
dependences, the selected topology (grid search over sequence length
and hidden width) and the false-positive misprediction rate on held-out
test traces. The paper reports an average rate of about 0.45 %.
"""

from dataclasses import dataclass
from typing import List

from repro.analysis.presets import FULL
from repro.common.texttable import render_table
from repro.core.config import ACTConfig
from repro.core.offline import OfflineTrainer, collect_correct_runs
from repro.trace.raw import extract_raw_deps
from repro.workloads.registry import get_kernel


@dataclass
class Table4Row:
    program: str
    n_traces: int
    n_raw_deps: int
    topology: str
    mispred_pct: float


def count_unique_deps(runs, filter_stack=True):
    deps = set()
    for run in runs:
        for stream in extract_raw_deps(run, filter_stack=filter_stack).values():
            deps.update(rec.dep for rec in stream)
    return len(deps)


def run_table4(preset=FULL, config=None) -> List[Table4Row]:
    config = config or ACTConfig()
    rows = []
    from repro.analysis.scale import workload_params
    for name in preset.table4_programs:
        program = get_kernel(name)
        runs = collect_correct_runs(
            program, preset.n_train_traces + preset.n_test_traces, seed0=0,
            **workload_params(name, preset.trace_scale))
        train_runs = runs[:preset.n_train_traces]
        test_runs = runs[preset.n_train_traces:]
        trainer = OfflineTrainer(config=config)
        best, _choices, _enc = trainer.search(
            train_runs=train_runs, test_runs=test_runs,
            seq_lens=preset.seq_lens, hidden_widths=preset.hidden_widths,
            jobs=preset.jobs)
        rows.append(Table4Row(
            program=name,
            n_traces=len(train_runs),
            n_raw_deps=count_unique_deps(runs),
            topology=best.topology,
            mispred_pct=100.0 * best.mispred_rate,
        ))
    return rows


def format_table4(rows):
    avg = sum(r.mispred_pct for r in rows) / len(rows) if rows else 0.0
    table_rows = [(r.program, r.n_traces, r.n_raw_deps, r.topology,
                   f"{r.mispred_pct:.3f}") for r in rows]
    table_rows.append(("Average", "", "", "", f"{avg:.3f}"))
    return render_table(
        ("Program", "# Traces for Training", "# RAW Dep", "Topology",
         "% Mispred. Rate"),
        table_rows, title="Table IV: training of neural networks")
