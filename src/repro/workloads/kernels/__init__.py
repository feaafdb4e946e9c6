"""Benchmark kernels.

Synthetic stand-ins for the paper's applications, preserving the
*communication structure* ACT observes: regular owner-computes loops
with boundary exchange (SPLASH2), irregular/pipelined sharing (PARSEC),
and input-dependent sequential patterns (SPEC INT / coreutils).

Each family lives in its own module, imported on first use: by
:func:`repro.workloads.registry.get_kernel` for one of its names, or
here when one of the classes below is first read. Importing a module
registers its kernels with :mod:`repro.workloads.registry`.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workloads.kernels.splash": ("Barnes", "FFT", "LU", "Ocean",
                                       "Radix"),
    "repro.workloads.kernels.parsec": ("Canneal", "Fluidanimate",
                                       "Streamcluster", "Swaptions"),
    "repro.workloads.kernels.spec": ("BC", "Bzip2Like", "McfLike"),
})
