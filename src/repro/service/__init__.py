"""The CLI's request layer.

:mod:`repro.service.ops` holds the command bodies of ``diagnose``,
``corpus``, ``shootout``, ``frontier``, ``trace`` and ``profile`` as
plain request dataclasses plus ``run_*`` functions that return the exact
text and exit code the CLI prints. It also holds
:class:`~repro.service.ops.TrainedStateDir`, the on-disk trained-state
store behind ``diagnose --cache-dir``.

The names below are imported from their submodules on first access.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.service.ops": ("CorpusRequest", "DiagnoseRequest", "Outcome",
                          "ProfileRequest", "TraceRequest",
                          "TrainedStateDir", "run_request"),
})
