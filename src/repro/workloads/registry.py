"""Registry of benchmark kernels, bug programs, and generated programs.

Kernels model the communication structure of the paper's SPLASH2 /
PARSEC / SPEC / coreutils applications; bugs model the paper's 11 real
bugs and 5 injected bugs (Tables V and VI). Beyond the fixed sets, any
name matching the generated-program grammar
``gen-<archetype>-<motif>-s<seed>`` (see
:mod:`repro.workloads.generator`) resolves to a deterministic seeded
workload, so generated programs are first-class everywhere a bug name
is accepted -- ``repro diagnose``, ``repro trace``, and the corpus
harness.

The bundled programs are listed below by the module that defines
them, and a name imports only its own module: ``repro diagnose gzip``
loads the gzip bug, not the other bugs or any kernel, and a
``gen-...`` name loads no bundled module. Each module registers its
classes with :func:`register_kernel`/:func:`register_bug` when it is
imported.
"""

import importlib

from repro.common.errors import ReproError

_KERNELS = {}
_BUGS = {}

_SPLASH = "repro.workloads.kernels.splash"
_PARSEC = "repro.workloads.kernels.parsec"
_SPEC = "repro.workloads.kernels.spec"
_TASKPAR = "repro.workloads.taskpar"

#: Bundled kernel name -> the module that registers it.
_KERNEL_MODULES = {
    "lu": _SPLASH, "fft": _SPLASH, "radix": _SPLASH, "barnes": _SPLASH,
    "ocean": _SPLASH,
    "canneal": _PARSEC, "fluidanimate": _PARSEC, "streamcluster": _PARSEC,
    "swaptions": _PARSEC,
    "bzip2": _SPEC, "mcf": _SPEC, "bc": _SPEC,
    "taskmapreduce": _TASKPAR, "taskgraphbug": _TASKPAR,
}

#: Bundled bug name -> the module that registers it.
_BUG_MODULES = {
    name: f"repro.workloads.bugs.{module}" for name, module in (
        ("aget", "aget"), ("apache", "apache"), ("gzip", "gzip_bug"),
        ("memcached", "memcached"), ("mysql1", "mysql1"),
        ("mysql2", "mysql2"), ("mysql3", "mysql3"), ("paste", "paste"),
        ("pbzip2", "pbzip2"), ("ptx", "ptx"), ("seq", "seq_bug"))
}


def register_kernel(cls):
    """Class decorator: register a kernel Program by its ``name``."""
    _KERNELS[cls.name] = cls
    return cls


def register_bug(cls):
    """Class decorator: register a bug Program by its ``name``."""
    _BUGS[cls.name] = cls
    return cls


def _registered(table, modules, name):
    """The class registered in ``table`` under ``name``, importing its
    bundled module first; None when no such name exists."""
    if name not in table and name in modules:
        importlib.import_module(modules[name])
    return table.get(name)


def get_kernel(name):
    """Instantiate the kernel registered under ``name``."""
    cls = _registered(_KERNELS, _KERNEL_MODULES, name)
    if cls is None:
        raise ReproError(f"unknown kernel {name!r}; known: "
                         f"{all_kernel_names()}")
    return cls()


def _resolve_generated(name):
    """A GeneratedProgram for a ``gen-...`` name, else None."""
    from repro.workloads.generator import GeneratedProgram, parse_generated_name

    spec = parse_generated_name(name)
    if spec is None:
        return None
    return GeneratedProgram(spec)


def get_bug(name):
    """Instantiate the bug program registered under ``name``.

    Generated-program names (``gen-<archetype>-<motif>-s<seed>``) are
    resolved on the fly -- a generated bug behaves exactly like a
    bundled one (``buggy`` parameter, ground-truth root cause).
    """
    cls = _registered(_BUGS, _BUG_MODULES, name)
    if cls is not None:
        return cls()
    generated = _resolve_generated(name)
    if generated is not None:
        return generated
    raise ReproError(
        f"unknown bug {name!r}; known: {all_bug_names()} "
        "(or a generated name like 'gen-atomicity-pipeline-s7')")


def get_workload(name):
    """Resolve ``name`` as a kernel, a bug, or a generated program."""
    for table, modules in ((_KERNELS, _KERNEL_MODULES), (_BUGS, _BUG_MODULES)):
        cls = _registered(table, modules, name)
        if cls is not None:
            return cls()
    generated = _resolve_generated(name)
    if generated is not None:
        return generated
    raise ReproError(
        f"unknown workload {name!r}; known kernels: {all_kernel_names()}, "
        f"bugs: {all_bug_names()} "
        "(or a generated name like 'gen-atomicity-pipeline-s7')")


def all_kernel_names():
    return sorted(_KERNEL_MODULES.keys() | _KERNELS.keys())


def all_bug_names():
    return sorted(_BUG_MODULES.keys() | _BUGS.keys())
