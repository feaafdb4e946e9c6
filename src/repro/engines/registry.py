"""Name -> engine factory registry.

``register(name, factory)`` adds an engine; ``create(name, config=...)``
instantiates one; ``names()`` lists what is registered (insertion
order: the default ``nn`` first, then the baselines, then
``ensemble``). Unknown names raise
:class:`~repro.common.errors.EngineError` whose message lists the
registered names -- the one shared error path for ``--engine``
everywhere (CLI and corpus).

Built-in engines are a static name -> ``"module:attr"`` table, so
``names()`` imports nothing and ``create(name)`` imports only that
engine's module: ``create("nn")`` never loads the baselines.

Composite syntax: ``ensemble`` fuses every non-ensemble engine;
``ensemble:nn+pset`` fuses an explicit member list.
"""

import importlib

from repro.common.errors import EngineError

_REGISTRY = {
    "nn": "repro.engines.nn_engine:NNEngine",
    "aviso": "repro.engines.baseline_engines:AvisoEngine",
    "pbi": "repro.engines.baseline_engines:PBIEngine",
    "pset": "repro.engines.baseline_engines:PSetEngine",
    "ensemble": "repro.engines.ensemble:EnsembleEngine",
}


def register(name, factory):
    """Register ``factory(config=None) -> Predictor`` under ``name``."""
    _REGISTRY[name] = factory


def names():
    """Registered engine names, registration order."""
    return tuple(_REGISTRY)


def _factory(name):
    factory = _REGISTRY[name]
    if isinstance(factory, str):
        module, _, attr = factory.partition(":")
        factory = getattr(importlib.import_module(module), attr)
    return factory


def create(name, config=None):
    """Instantiate the engine registered under ``name``.

    ``ensemble:a+b`` builds a composite over explicitly named member
    engines; bare ``ensemble`` takes every non-ensemble engine.
    """
    base, sep, spec = name.partition(":")
    if spec and base != "ensemble":
        raise EngineError(
            f"unknown engine {name!r} (only 'ensemble:' takes a member "
            f"list); registered engines: {', '.join(names())}",
            engine=name, known=names())
    if base not in _REGISTRY:
        raise EngineError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(names())}", engine=name, known=names())
    if base != "ensemble":
        return _factory(base)(config=config)
    members = [m for m in spec.split("+") if m] if spec else None
    if sep and not members:
        raise EngineError(
            f"engine {name!r} names no members; registered engines: "
            f"{', '.join(names())}", engine=name, known=names())
    for member in members or ():
        if member == "ensemble" or member not in _REGISTRY:
            raise EngineError(
                f"unknown ensemble member {member!r} in {name!r}; "
                f"registered engines: {', '.join(names())}",
                engine=member, known=names())
    members = members or [n for n in names() if n != "ensemble"]
    return _factory("ensemble")(
        [create(m, config=config) for m in members], config=config)
