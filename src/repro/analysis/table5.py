"""Table V: diagnosis of real bugs -- ACT vs Aviso vs PBI.

Per bug: traces used for training, where the root cause sat in the
Debug Buffer, the offline-filter percentage, ACT's final rank, Aviso's
rank (with the number of failure runs it needed) and PBI's rank (with
the total number of predicates it reported). The baseline columns come
from the Aviso and PBI engines, trained and run on the seeds below.
"""

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.presets import FULL
from repro.common.texttable import render_table
from repro.core.config import ACTConfig
from repro.core.diagnosis import diagnose_with_buffer_escalation
from repro.engines.baseline_engines import AvisoEngine, PBIEngine
from repro.workloads.registry import all_bug_names, get_bug

# The baselines' own seeds, apart from ACT's: Aviso learns pair rates
# from 15 correct runs and feeds failure runs from seed 901 on; PBI
# ranks preset.pbi_correct_runs correct runs against one failure run.
AVISO_CORRECT_RUNS = 15
AVISO_CORRECT_SEED0 = 300
AVISO_FAILURE_SEED = 901
PBI_CORRECT_SEED0 = 500
PBI_FAILURE_SEED = 12345

BUG_DESCRIPTIONS = {
    "aget": ("Order. vio. on bwritten", "Comp."),
    "apache": ("Atom. vio. on ref. counter", "Crash"),
    "memcached": ("Atom. vio. on item data", "Comp."),
    "mysql1": ("Atom. vio. causing loss of logged data", "Comp."),
    "mysql2": ("Atom. vio. on thd proc-info", "Crash"),
    "mysql3": ("Atom. vio. in join-init-cache (OOB loop)", "Crash"),
    "pbzip2": ("Order. vio. between threads", "Crash"),
    "gzip": ("Semantic bug: wrong descriptor for get_method", "Comp."),
    "seq": ("Semantic bug: wrong terminator in print_numbers", "Comp."),
    "ptx": ("Buffer overflow of string in get_method", "Comp."),
    "paste": ("collapse_escapes reads out of buffer", "Crash"),
}


@dataclass
class Table5Row:
    bug: str
    description: str
    status: str
    n_train_traces: int
    debug_buf_pos: Optional[int]
    debug_overflowed: bool
    filter_pct: float
    act_rank: Optional[int]
    buffer_used: int
    aviso_rank: Optional[int]
    aviso_failures: Optional[int]
    aviso_applicable: bool
    pbi_rank: Optional[int]
    pbi_total: int


def run_table5(preset=FULL, config=None, bugs=None) -> List[Table5Row]:
    config = config or ACTConfig()
    rows = []
    aviso = AvisoEngine(max_failures=preset.aviso_max_failures)
    pbi = PBIEngine()
    for name in bugs or all_bug_names():
        program = get_bug(name)
        report, buffer_used = diagnose_with_buffer_escalation(
            program, config=config,
            n_train_runs=preset.n_train_traces,
            n_pruning_runs=preset.n_pruning_runs)
        aviso.train(program, n_runs=AVISO_CORRECT_RUNS,
                    seed0=AVISO_CORRECT_SEED0, buggy=False)
        a = aviso.report_trained(program, failure_seed=AVISO_FAILURE_SEED)
        pbi.train(program, n_runs=preset.pbi_correct_runs,
                  seed0=PBI_CORRECT_SEED0, buggy=False)
        p = pbi.report_trained(program, failure_seed=PBI_FAILURE_SEED)
        desc, status = BUG_DESCRIPTIONS.get(name, ("", "?"))
        rows.append(Table5Row(
            bug=name, description=desc, status=status,
            n_train_traces=preset.n_train_traces,
            debug_buf_pos=report.debug_buffer_position,
            debug_overflowed=report.debug_overflowed,
            filter_pct=report.filter_pct,
            act_rank=report.rank, buffer_used=buffer_used,
            aviso_rank=a.rank,
            aviso_failures=a.n_failure_runs if a.applicable else None,
            aviso_applicable=a.applicable,
            pbi_rank=p.rank, pbi_total=len(p.candidates)))
    return rows


def format_table5(rows):
    def fmt_opt(v):
        return "-" if v is None else str(v)

    table_rows = []
    for r in rows:
        pos = fmt_opt(r.debug_buf_pos)
        if r.debug_buf_pos is None and r.debug_overflowed:
            pos = ">60"
        aviso = ("n/a (sequential)" if not r.aviso_applicable
                 else f"{fmt_opt(r.aviso_rank)} ({r.aviso_failures})")
        table_rows.append((
            r.bug, r.description, r.status, r.n_train_traces, pos,
            f"{r.filter_pct:.0f}", fmt_opt(r.act_rank),
            r.buffer_used, aviso,
            f"{fmt_opt(r.pbi_rank)} ({r.pbi_total})"))
    return render_table(
        ("Bug", "Description", "Status", "# Traces", "Debug Buf. Pos.",
         "Filter (%)", "ACT Rank", "Buf. Used", "Aviso Rank (# fail.)",
         "PBI Rank (total pred.)"),
        table_rows, title="Table V: diagnosis of real bugs")
