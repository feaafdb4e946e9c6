"""Experiment scale presets.

``FULL`` reproduces the paper-scale protocol (20 traces per program,
the complete topology grid, every workload); ``BENCH`` is the benchmark
suite's default (same protocol, trimmed topology grid); ``FAST`` is the
same pipeline at reduced scale for the test suite and quick smoke runs.
Select via the ``REPRO_PRESET`` environment variable (fast|bench|full)
when running the benchmarks.
"""

import os
from dataclasses import dataclass, replace
from typing import Optional, Tuple


@dataclass(frozen=True)
class Preset:
    """Knobs shared by the experiment runners."""

    name: str
    # Worker processes for the corpus sweeps and the Table IV topology
    # grid (None/1 = serial); results are identical either way. Set via
    # --jobs or REPRO_JOBS.
    jobs: Optional[int] = None
    # Table IV / Fig 7a
    n_train_traces: int = 10
    n_test_traces: int = 10
    seq_lens: Tuple[int, ...] = (1, 2, 3, 4, 5)
    hidden_widths: Tuple[int, ...] = tuple(range(1, 11))
    table4_programs: Tuple[str, ...] = (
        "lu", "fft", "radix", "barnes", "ocean", "canneal",
        "fluidanimate", "streamcluster", "swaptions", "bzip2", "mcf", "bc")
    # Table V
    n_pruning_runs: int = 20
    aviso_max_failures: int = 10
    pbi_correct_runs: int = 15
    # Fig 7b
    adaptivity_programs: Tuple[str, ...] = (
        "fft", "barnes", "fluidanimate", "lu", "radix")
    # Overhead
    overhead_programs: Tuple[str, ...] = (
        "lu", "fft", "radix", "barnes", "ocean", "canneal",
        "fluidanimate", "streamcluster", "swaptions", "bzip2", "mcf", "bc")
    overhead_scale: str = "large"
    # Workload scale for the training experiments (Table IV / Fig 7a).
    trace_scale: str = "large"
    muladd_sweep: Tuple[int, ...] = (1, 2, 5, 10)
    fifo_sweep: Tuple[int, ...] = (4, 8, 16)
    core_sweep: Tuple[int, ...] = (4, 8, 16)
    line_sweep: Tuple[int, ...] = (4, 32, 64, 128)
    # Accuracy corpus (generated ground-truth programs)
    corpus_seed: int = 7
    corpus_size: int = 20
    corpus_train_runs: int = 6
    corpus_pruning_runs: int = 8
    # Engine selection (see repro.engines): the corpus harness runs one
    # engine; the shootout races the listed ones (empty = all).
    corpus_engine: str = "nn"
    shootout_engines: Tuple[str, ...] = ()
    # Sampling rates the adaptive-overhead frontier sweeps (1.0 -- the
    # policy-free baseline -- is always included); FIFO depths reuse
    # fifo_sweep.
    frontier_rates: Tuple[float, ...] = (1.0, 0.75, 0.5, 0.25)


FULL = Preset(name="full")

# The benchmark suite's default: paper-scale workloads and protocols
# with a trimmed (but still 2-D) topology grid so the whole suite runs
# in minutes rather than hours.
BENCH = Preset(
    name="bench",
    seq_lens=(2, 3, 4, 5),
    hidden_widths=(2, 4, 6, 8, 10),
)

FAST = Preset(
    name="fast",
    n_train_traces=4,
    n_test_traces=3,
    seq_lens=(3, 5),
    hidden_widths=(4, 10),
    table4_programs=("lu", "fft", "canneal", "bc"),
    trace_scale="default",
    n_pruning_runs=8,
    aviso_max_failures=4,
    pbi_correct_runs=6,
    adaptivity_programs=("fft", "lu"),
    overhead_programs=("lu", "fft", "canneal"),
    overhead_scale="default",
    muladd_sweep=(1, 10),
    fifo_sweep=(4, 16),
    core_sweep=(8,),
    line_sweep=(32, 128),
    corpus_size=6,
    corpus_train_runs=4,
    corpus_pruning_runs=6,
    frontier_rates=(1.0, 0.5),
)


def preset_from_env(default="bench"):
    """Resolve the preset named by ``REPRO_PRESET`` (fast|bench|full).

    ``REPRO_JOBS`` additionally sets the worker-process count (serial
    when unset, ``0`` = auto/all CPUs -- resolved by
    :func:`repro.parallel.resolve_jobs`, the one shared place).
    """
    from repro.parallel import jobs_from_env

    name = os.environ.get("REPRO_PRESET", default).lower()
    try:
        preset = {"fast": FAST, "bench": BENCH, "full": FULL}[name]
    except KeyError:
        raise ValueError(f"unknown REPRO_PRESET {name!r}; "
                         "expected fast, bench or full") from None
    jobs = jobs_from_env()
    if jobs is not None:
        preset = replace(preset, jobs=jobs)
    return preset
