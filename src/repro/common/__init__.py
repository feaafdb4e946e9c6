"""Shared utilities: deterministic RNG, errors, table rendering."""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.common.errors": ("ReproError", "SimulatedFailure"),
    "repro.common.rng": ("make_rng",),
})
