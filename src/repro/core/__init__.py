"""ACT proper: the paper's primary contribution.

- :mod:`repro.core.config` -- all Table III parameters in one dataclass.
- :mod:`repro.core.encoding` -- RAW dependences to NN input vectors.
- :mod:`repro.core.buffers` -- Input Generator Buffer and Debug Buffer.
- :mod:`repro.core.act_module` -- the per-processor ACT Module (AM):
  online testing/training alternation driven by the invalid counter.
- :mod:`repro.core.offline` -- offline training and topology selection.
- :mod:`repro.core.postprocess` -- pruning + ranking after a failure.
- :mod:`repro.core.diagnosis` -- end-to-end failure diagnosis driver.

The names below are imported from their submodules on first access.
``repro.core.postprocess`` is the submodule; its function of the same
name is ``repro.core.postprocess.postprocess``.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.act_module": ("ACTModule", "Mode"),
    "repro.core.buffers": ("DebugBuffer", "DebugEntry",
                           "InputGeneratorBuffer"),
    "repro.core.config": ("ACTConfig",),
    "repro.core.deploy": ("DeploymentResult", "deploy_on_run"),
    "repro.core.encoding": ("DepEncoder",),
    "repro.core.diagnosis": ("DiagnosisReport", "diagnose_failure"),
    "repro.core.offline": ("OfflineTrainer", "TrainedACT"),
    "repro.core.postprocess": ("CorrectSet", "RankedFinding"),
})
