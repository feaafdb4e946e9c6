"""ACT: production-run software failure diagnosis via adaptive communication tracking.

Reproduction of Alam & Muzahid, ISCA 2016. The package is organised as:

- :mod:`repro.trace` -- execution traces and RAW-dependence extraction.
- :mod:`repro.workloads` -- mini concurrent-program framework, kernels, bugs.
- :mod:`repro.nn` -- one-hidden-layer neural network, trainer, hardware
  pipeline timing models.
- :mod:`repro.core` -- the ACT module itself (online testing/training,
  debug buffer, offline training, post-processing and diagnosis).
- :mod:`repro.sim` -- multicore timing simulator (caches, MESI, last-writer
  metadata, ACT back-pressure) used for overhead/false-sharing studies.
- :mod:`repro.baselines` -- scoring math of the Aviso-, PBI- and
  PSet-like comparison schemes.
- :mod:`repro.engines` -- one ``Predictor`` interface over ACT and the
  baselines; each baseline's diagnosis flow is its engine there.
- :mod:`repro.analysis` -- experiment harness regenerating every table and
  figure of the paper's evaluation.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.config": ("ACTConfig",),
    "repro.core.diagnosis": ("DiagnosisReport", "diagnose_failure"),
    "repro.core.offline": ("OfflineTrainer", "TrainedACT"),
})

__version__ = "1.0.0"
