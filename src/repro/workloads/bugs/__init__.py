"""The paper's bug suite (Table V real bugs; Table VI uses kernel
``inject`` parameters).

Every bug Program takes ``buggy: bool``:

- ``buggy=False``: the *correct* program (proper synchronisation /
  benign input). Used for offline training and pruning runs.
- ``buggy=True``: the failure execution -- the buggy interleaving is
  forced deterministically (concurrency bugs) or the failure-triggering
  input is supplied (sequential bugs), and the run ends in a
  :class:`~repro.common.errors.SimulatedFailure`.

Each built instance tags its ground-truth ``root_cause`` dependence
keys so the evaluation can score diagnosis ranks.

Each bug lives in its own module, imported on first use: by
:func:`repro.workloads.registry.get_bug` for its name, or here when one
of the classes below is first read.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workloads.bugs.aget": ("AgetBug",),
    "repro.workloads.bugs.apache": ("ApacheBug",),
    "repro.workloads.bugs.gzip_bug": ("GzipBug",),
    "repro.workloads.bugs.memcached": ("MemcachedBug",),
    "repro.workloads.bugs.mysql1": ("MySQL1Bug",),
    "repro.workloads.bugs.mysql2": ("MySQL2Bug",),
    "repro.workloads.bugs.mysql3": ("MySQL3Bug",),
    "repro.workloads.bugs.paste": ("PasteBug",),
    "repro.workloads.bugs.pbzip2": ("PBzip2Bug",),
    "repro.workloads.bugs.ptx": ("PtxBug",),
    "repro.workloads.bugs.seq_bug": ("SeqBug",),
})
