"""Mini concurrent-program framework.

This is the substrate the paper gets for free from real binaries + PIN:
multithreaded programs whose dynamic memory-instruction streams we can
record. Writing workloads as Python generators gives us something real
binaries cannot: *deterministic, seed-controlled interleaving*, which is
what lets the repo trigger the paper's concurrency bugs on demand.

A program thread is a generator function ``body(ctx)`` that yields
operations built by its :class:`ThreadCtx`:

- ``value = yield ctx.load(pc, addr)`` -- shared load; the scheduler
  commits the event and sends back the current memory value.
- ``yield ctx.store(pc, addr, value)`` -- shared store.
- ``yield ctx.branch(pc, taken)`` / ``yield ctx.alu(pc)``.
- ``yield ctx.wait(flag)`` / ``yield ctx.set_flag(flag)`` -- one-shot
  event synchronisation (used by bug programs to force interleavings).
- ``yield ctx.acquire(lock)`` / ``yield ctx.release(lock)`` -- mutual
  exclusion.

Memory values live in a scheduler-owned dict keyed by word address, so
value semantics are exactly sequential consistency in trace order.

:func:`run_program` is also the trace fault boundary: the active
:class:`~repro.faults.FaultPlan` may drop and reorder the events of the
run it returns (a lossy production tracer), so every consumer of the
run -- RAW extraction, the baselines, the simulator -- reads the same
damaged trace.
"""

import enum
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

from repro import faults as _faults
from repro import telemetry
from repro.common.errors import ReproError, SimulatedFailure, TraceError
from repro.common.rng import make_rng
from repro.trace.events import EventKind, TraceRun, build_event

WORD_SIZE = 4

_PC_BASE = 0x1000
_STACK_BASE = 0x7FFF_0000
_STACK_STRIDE = 0x1_0000


@dataclass(frozen=True)
class CodeSite:
    """Static metadata for one instruction address."""

    pc: int
    function: str
    label: str
    kind: EventKind


class CodeMap:
    """Allocates static instruction addresses and remembers their metadata.

    Workload builders allocate one pc per source location, so RAW
    dependences are expressed in terms of stable instruction addresses
    across runs -- the property the paper's invariants rely on.
    """

    def __init__(self):
        self._sites: Dict[int, CodeSite] = {}
        self._by_label: Dict[str, int] = {}
        self._next_pc = _PC_BASE

    def alloc(self, function, label, kind):
        """Allocate a pc for instruction ``label`` in ``function``."""
        key = f"{function}:{label}"
        if key in self._by_label:
            raise ReproError(f"duplicate code label {key!r}")
        pc = self._next_pc
        self._next_pc += WORD_SIZE
        self._sites[pc] = CodeSite(pc, function, label, kind)
        self._by_label[key] = pc
        return pc

    def load(self, label, function="main"):
        return self.alloc(function, label, EventKind.LOAD)

    def store(self, label, function="main"):
        return self.alloc(function, label, EventKind.STORE)

    def branch(self, label, function="main"):
        return self.alloc(function, label, EventKind.BRANCH)

    def alu(self, label, function="main"):
        return self.alloc(function, label, EventKind.ALU)

    def site(self, pc):
        return self._sites[pc]

    def pc_of(self, label, function="main"):
        return self._by_label[f"{function}:{label}"]

    def function_of(self, pc):
        return self._sites[pc].function

    def describe(self, pc):
        s = self._sites.get(pc)
        if s is None:
            return f"pc={pc:#x}"
        return f"{s.function}:{s.label}"

    def pcs_in_function(self, function):
        return [pc for pc, s in self._sites.items() if s.function == function]

    def memory_pcs(self):
        """Sorted pcs of the memory (load/store) instructions.

        The public view consumers like :class:`~repro.core.encoding.
        DepEncoder` need: only memory instructions participate in RAW
        dependences.
        """
        return sorted(pc for pc, s in self._sites.items()
                      if s.kind.is_memory())

    def store_pcs(self):
        """Sorted pcs of the store instructions (the negative-example
        corruption universe of offline training)."""
        return sorted(pc for pc, s in self._sites.items()
                      if s.kind == EventKind.STORE)

    def __len__(self):
        return len(self._sites)


class AddressSpace:
    """Allocates data addresses for named variables/arrays.

    Distinct objects are aligned to ``alignment`` bytes by default
    (like a real allocator's size classes), so false sharing between
    *different* program objects only appears when the cache-line size
    exceeds the alignment; sharing within one array is preserved.
    Pass ``packed=True`` to allocate at the current cursor instead --
    bug models use it for deliberately adjacent objects (overflow
    targets).
    """

    def __init__(self, base=0x10_0000, alignment=64):
        self._next = base
        self._alignment = alignment
        self._vars: Dict[str, int] = {}

    def _alloc(self, name, n_bytes, packed):
        if name not in self._vars:
            if not packed and self._alignment > 1:
                rem = self._next % self._alignment
                if rem:
                    self._next += self._alignment - rem
            self._vars[name] = self._next
            self._next += n_bytes
        return self._vars[name]

    def var(self, name, packed=False):
        """Allocate (or look up) a single-word variable."""
        return self._alloc(name, WORD_SIZE, packed)

    def array(self, name, n_words, packed=False):
        """Allocate (or look up) an array of ``n_words`` words; return base."""
        return self._alloc(name, n_words * WORD_SIZE, packed)

    def align_to(self, boundary):
        """Round the allocation cursor up to ``boundary`` bytes."""
        rem = self._next % boundary
        if rem:
            self._next += boundary - rem

    def addr_of(self, name):
        return self._vars[name]


class _CtrlKind(enum.Enum):
    WAIT = "wait"
    SET = "set"
    ACQUIRE = "acquire"
    RELEASE = "release"
    YIELD = "yield"


class _Ctrl(NamedTuple):
    """A scheduler-directed (non-traced) operation yielded by a thread."""

    kind: _CtrlKind
    name: str = ""


_WAIT, _SET, _ACQUIRE, _RELEASE, _YIELD = _CtrlKind
_YIELD_CTRL = _Ctrl(_YIELD)
_LOAD, _STORE, _BRANCH, _ALU = EventKind
_new = tuple.__new__  # skips _Ctrl's Python __new__ (one per sync op)


class ThreadCtx:
    """Per-thread handle used by generator bodies to build operations.

    Events skip the ``TraceEvent`` constructor (one per instruction);
    ``load`` and ``store`` make its address check."""

    def __init__(self, tid):
        self.tid = tid

    def load(self, pc, addr):
        if addr is None:
            raise ValueError(f"memory event at pc={pc} needs an address")
        return build_event(self.tid, pc, _LOAD, addr, False, None, None)

    def store(self, pc, addr, value=None):
        # The value rides on the event; the scheduler commits it.
        if addr is None:
            raise ValueError(f"memory event at pc={pc} needs an address")
        return build_event(self.tid, pc, _STORE, addr, False, None, value)

    def stack_load(self, pc, slot=0):
        addr = _STACK_BASE + self.tid * _STACK_STRIDE + slot * WORD_SIZE
        return build_event(self.tid, pc, _LOAD, addr, True, None, None)

    def stack_store(self, pc, slot=0, value=None):
        addr = _STACK_BASE + self.tid * _STACK_STRIDE + slot * WORD_SIZE
        return build_event(self.tid, pc, _STORE, addr, True, None, value)

    def branch(self, pc, taken):
        return build_event(self.tid, pc, _BRANCH, None, False, bool(taken),
                           None)

    def alu(self, pc):
        return build_event(self.tid, pc, _ALU, None, False, None, None)

    @staticmethod
    def wait(flag):
        """Block until another thread sets ``flag``."""
        return _new(_Ctrl, (_WAIT, flag))

    @staticmethod
    def set_flag(flag):
        return _new(_Ctrl, (_SET, flag))

    @staticmethod
    def acquire(lock):
        return _new(_Ctrl, (_ACQUIRE, lock))

    @staticmethod
    def release(lock):
        return _new(_Ctrl, (_RELEASE, lock))

    @staticmethod
    def sched_yield():
        """Hint the scheduler to switch threads (no trace event)."""
        return _YIELD_CTRL


@dataclass
class ProgramInstance:
    """A built program, ready to run: static code plus thread bodies."""

    name: str
    code_map: CodeMap
    bodies: List[Callable]  # body(ctx) -> generator
    params: dict = field(default_factory=dict)
    # Ground truth for bug programs: the invalid RAW dependence(s) a
    # correct diagnosis must surface, as (store_pc, load_pc) pairs.
    root_cause: Optional[set] = None

    @property
    def n_threads(self):
        return len(self.bodies)


class Program:
    """Base class for workloads. Subclasses override :meth:`build`."""

    name = "program"

    def build(self, **params) -> ProgramInstance:
        raise NotImplementedError

    def default_params(self):
        return {}

    def params_for_seed(self, seed):
        """Per-run parameter variation (e.g. input data derived from the
        run seed). Explicit caller params override these."""
        return {}


class Scheduler:
    """Seeded interleaving scheduler with quantum bursts.

    Each scheduling decision picks a runnable thread and runs it for a
    geometric-length burst of operations (mimicking OS quanta), which
    produces realistic interleavings that still vary run-to-run with the
    seed.
    """

    def __init__(self, seed=0, switch_prob=0.15, max_steps=2_000_000):
        self.seed = seed
        self.switch_prob = switch_prob
        self.max_steps = max_steps

    def run(self, instance):
        """Execute ``instance``; return a :class:`TraceRun`."""
        # crc32, not hash(): str hashes are salted per process and the
        # interleaving must be reproducible across runs.
        rng = make_rng(self.seed,
                       stream=zlib.crc32(instance.name.encode()) & 0xFFFF)
        random, choice = rng.random, rng.choice
        switch_prob, max_steps = self.switch_prob, self.max_steps
        gens = [body(ThreadCtx(tid))
                for tid, body in enumerate(instance.bodies)]
        alive = list(range(len(gens)))  # kept sorted: choice() reads it
        blocked: Dict[int, _Ctrl] = {}  # WAITs and ACQUIREs only
        flags = set()
        locks: Dict[str, int] = {}
        memory: Dict[int, object] = {}
        memory_get = memory.get
        events = []
        append = events.append
        failure = None
        send_values = [None] * len(gens)

        tele = telemetry.get_registry()
        # The registry clock (not perf_counter directly) keeps the
        # events/sec gauge deterministic under an injected TickClock.
        started = tele.clock() if tele.enabled else 0.0
        quanta = 0

        current = 0 if alive else None
        steps = 0
        while alive:
            steps += 1
            if steps > max_steps:
                raise TraceError(
                    f"{instance.name}: exceeded {max_steps} steps "
                    "(possible livelock)")
            # random() is drawn only for a current thread (None once it
            # ended, blocked or yielded); choice() picks from the sorted
            # runnable threads. A picked acquirer takes its lock.
            if current is None or random() < switch_prob:
                runnable = alive
                if blocked:
                    runnable = [t for t in alive if t not in blocked or (
                        blocked[t].name in flags
                        if blocked[t].kind is _WAIT
                        else locks.get(blocked[t].name) is None)]
                    if not runnable:
                        raise TraceError(
                            f"{instance.name}: deadlock ({blocked})")
                current = choice(runnable)
                quanta += 1
                if blocked:
                    pending = blocked.pop(current, None)
                    if pending is not None and pending.kind is _ACQUIRE:
                        locks[pending.name] = current
            tid = current

            try:
                item = gens[tid].send(send_values[tid])
            except StopIteration:
                alive.remove(tid)
                current = None
                continue
            except SimulatedFailure as f:
                failure = f
                if failure.tid is None:
                    failure.tid = tid
                break
            send_values[tid] = None

            if item.__class__ is _Ctrl:
                # A thread that blocks or yields gives up its quantum.
                kind, name = item
                if kind is _SET:
                    flags.add(name)
                elif kind is _RELEASE:
                    if locks.get(name) != tid:
                        raise TraceError(f"thread {tid} released lock "
                                         f"{name!r} it does not hold")
                    locks[name] = None
                elif kind is _YIELD:
                    current = None
                elif kind is _ACQUIRE and locks.get(name) in (None, tid):
                    locks[name] = tid
                elif kind is _ACQUIRE or name not in flags:
                    blocked[tid] = item
                    current = None
                continue

            append(item)
            kind = item.kind
            if kind is _LOAD:
                send_values[tid] = memory_get(item.addr, 0)
            elif kind is _STORE:
                memory[item.addr] = item.value

        if tele.enabled:
            elapsed = tele.clock() - started
            tele.inc("sched.runs")
            tele.inc("sched.steps", steps)
            tele.inc("sched.quanta", quanta)
            tele.inc("sched.events", len(events))
            if failure is not None:
                tele.inc("sched.failed_runs")
            if elapsed > 0:
                tele.set_gauge("sched.events_per_sec", len(events) / elapsed)
            tele.observe("sched.events_per_run", len(events))

        return TraceRun(
            events=events,
            failed=failure is not None,
            failure=failure,
            code_map=instance.code_map,
            n_threads=instance.n_threads,
            seed=self.seed,
            meta={"program": instance.name, "steps": steps},
        )


def run_program(program, seed=0, scheduler=None, **params):
    """Build ``program`` with ``params`` and run it under a seeded scheduler."""
    if isinstance(program, Program):
        merged = dict(program.default_params())
        merged.update(program.params_for_seed(seed))
        merged.update(params)
        instance = program.build(**merged)
    elif isinstance(program, ProgramInstance):
        if params:
            raise ReproError("cannot re-parameterise a built instance")
        instance = program
    else:
        raise ReproError(f"not a Program: {program!r}")
    sched = scheduler or Scheduler(seed=seed)
    if scheduler is None:
        sched.seed = seed
    run = sched.run(instance)
    run.meta["root_cause"] = instance.root_cause
    plan = _faults.get_plan()
    if plan.enabled and (plan.trace_drop or plan.trace_reorder):
        run.events = _lossy_trace(run.events, run.seed, plan)
    return run


def _lossy_trace(events, seed, plan):
    """The events a lossy tracer records of one run under ``plan``.

    Each event is dropped or kept; then adjacent survivors swap, each
    swap keyed by the event at that position before any swap. Every
    decision is keyed by ``(seed, tid, ordinal)`` -- the event's index
    in its own thread's stream -- so one plan damages the same events
    of a run however often, and in whichever process, it is run.
    """
    ordinals = {}
    kept, keys = [], []
    for e in events:
        tid = e.tid
        key = (seed, tid, ordinals.get(tid, 0))
        ordinals[tid] = key[2] + 1
        if not plan.fires("trace_drop", *key):
            kept.append(e)
            keys.append(key)
    swaps = 0
    for pos in range(len(kept) - 1):
        if plan.fires("trace_reorder", *keys[pos]):
            kept[pos], kept[pos + 1] = kept[pos + 1], kept[pos]
            swaps += 1
    tele = telemetry.get_registry()
    if tele.enabled:
        tele.inc("faults.trace_drops", len(events) - len(kept))
        tele.inc("faults.trace_reorders", swaps)
    return kept
