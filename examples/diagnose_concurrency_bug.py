"""Diagnosing a concurrency bug: Apache's reference-counter atomicity
violation, with the Aviso and PBI baselines for comparison (Table V).

Two request handlers race on a shared reference count; in the failure
interleaving both believe they are the last user and both free the
object -- the second free crashes. ACT diagnoses it from the single
failure run; Aviso needs the failure reproduced several times; PBI
samples cache events over many runs. Both baselines run through their
engines, on the seeds Table V uses.

Run:  python examples/diagnose_concurrency_bug.py
"""

from repro.core import ACTConfig, diagnose_failure
from repro.engines import create
from repro.workloads import get_bug, run_program


def main():
    program = get_bug("apache")
    config = ACTConfig()

    print("=== Apache ref-count atomicity violation ===\n")
    failure = run_program(program, seed=12345, buggy=True)
    print(f"Crash: {failure.failure} (thread {failure.failure.tid})\n")

    # --- ACT: one failure run is enough -----------------------------
    report = diagnose_failure(program, config=config,
                              n_train_runs=10, n_pruning_runs=20)
    code_map = failure.code_map
    print(f"[ACT]   rank {report.rank} from ONE failure run")
    for i, f in enumerate(report.top(3), start=1):
        dep = f.mismatch_dep or f.seq[-1]
        label = "inter-thread" if dep.inter_thread else "intra-thread"
        print(f"        #{i}: {code_map.describe(dep.store_pc)} -> "
              f"{code_map.describe(dep.load_pc)} [{label}]")

    # --- Aviso: needs the bug to recur -------------------------------
    # Background pair rates from 15 correct runs, then up to 10
    # failure reproductions.
    aviso = create("aviso").diagnose_report(
        program, n_train_runs=15, train_seed0=300, failure_seed=901)
    if aviso.rank is not None:
        print(f"[Aviso] rank {aviso.rank} after "
              f"{aviso.n_failure_runs} failure reproductions")
    else:
        print(f"[Aviso] constraint not found in "
              f"{aviso.n_failure_runs} failures")

    # --- PBI: cache-event sampling ------------------------------------
    pbi = create("pbi").diagnose_report(
        program, n_train_runs=15, train_seed0=500, failure_seed=12345)
    if pbi.rank is not None:
        print(f"[PBI]   rank {pbi.rank} of {len(pbi.candidates)} "
              "reported predicates (15 correct + 1 failing run)")
    else:
        print(f"[PBI]   missed ({len(pbi.candidates)} predicates)")

    print("\nACT pinpointed the handler's free-store -> header-load "
          "dependence: the second thread read an object header last "
          "written by the other thread's free.")


if __name__ == "__main__":
    main()
