"""Table V: diagnosis of real bugs -- ACT vs Aviso vs PBI.

Per bug: traces used for training, where the root cause sat in the
Debug Buffer, the offline-filter percentage, ACT's final rank, Aviso's
rank (with the number of failure runs it needed) and PBI's rank (with
the total number of predicates it reported).
"""

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.presets import FULL
from repro.baselines.aviso import AvisoDiagnoser
from repro.baselines.pbi import PBIDiagnoser
from repro.common.texttable import render_table
from repro.core.config import ACTConfig
from repro.core.diagnosis import diagnose_with_buffer_escalation
from repro.workloads.registry import all_bug_names, get_bug

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
    aviso = AvisoDiagnoser()
    pbi = PBIDiagnoser(n_correct=preset.pbi_correct_runs)
    for name in bugs or all_bug_names():
        program = get_bug(name)
        report, buffer_used = diagnose_with_buffer_escalation(
            program, config=config,
            n_train_runs=preset.n_train_traces,
            n_pruning_runs=preset.n_pruning_runs)
        a = aviso.diagnose(get_bug(name),
                           max_failures=preset.aviso_max_failures)
        p = pbi.diagnose(get_bug(name))
        desc, status = BUG_DESCRIPTIONS.get(name, ("", "?"))
        rows.append(Table5Row(
            bug=name, description=desc, status=status,
            n_train_traces=preset.n_train_traces,
            debug_buf_pos=report.debug_buffer_position,
            debug_overflowed=report.debug_overflowed,
            filter_pct=report.filter_pct,
            act_rank=report.rank, buffer_used=buffer_used,
            aviso_rank=a.rank,
            aviso_failures=a.n_failures_used if a.applicable else None,
            aviso_applicable=a.applicable,
            pbi_rank=p.rank, pbi_total=p.total_predicates))
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
