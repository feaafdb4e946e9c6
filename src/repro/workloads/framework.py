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
"""

import enum
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

from repro import telemetry
from repro.common.errors import ReproError, SimulatedFailure, TraceError
from repro.common.rng import make_rng
from repro.trace.events import EventKind, TraceEvent, TraceRun

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


_YIELD = _CtrlKind.YIELD
_LOAD = EventKind.LOAD
_STORE = EventKind.STORE


class ThreadCtx:
    """Per-thread handle used by generator bodies to build operations."""

    def __init__(self, tid):
        self.tid = tid

    def load(self, pc, addr):
        return TraceEvent(self.tid, pc, EventKind.LOAD, addr)

    def store(self, pc, addr, value=None):
        # The value rides on the event; the scheduler commits it.
        return TraceEvent(self.tid, pc, EventKind.STORE, addr, value=value)

    def stack_load(self, pc, slot=0):
        addr = _STACK_BASE + self.tid * _STACK_STRIDE + slot * WORD_SIZE
        return TraceEvent(self.tid, pc, EventKind.LOAD, addr, True)

    def stack_store(self, pc, slot=0, value=None):
        addr = _STACK_BASE + self.tid * _STACK_STRIDE + slot * WORD_SIZE
        return TraceEvent(self.tid, pc, EventKind.STORE, addr, True,
                          value=value)

    def branch(self, pc, taken):
        return TraceEvent(self.tid, pc, EventKind.BRANCH, taken=bool(taken))

    def alu(self, pc):
        return TraceEvent(self.tid, pc, EventKind.ALU)

    @staticmethod
    def wait(flag):
        """Block until another thread sets ``flag``."""
        return _Ctrl(_CtrlKind.WAIT, flag)

    @staticmethod
    def set_flag(flag):
        return _Ctrl(_CtrlKind.SET, flag)

    @staticmethod
    def acquire(lock):
        return _Ctrl(_CtrlKind.ACQUIRE, lock)

    @staticmethod
    def release(lock):
        return _Ctrl(_CtrlKind.RELEASE, lock)

    @staticmethod
    def sched_yield():
        """Hint the scheduler to switch threads (no trace event)."""
        return _Ctrl(_CtrlKind.YIELD)


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
        ready, ctrl_blocks, apply_ctrl = (self._ready, self._ctrl_blocks,
                                          self._apply_ctrl)
        gens = [body(ThreadCtx(tid))
                for tid, body in enumerate(instance.bodies)]
        alive = set(range(len(gens)))
        blocked: Dict[int, _Ctrl] = {}
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
            # The current thread keeps its quantum if it is runnable and
            # the switch draw misses: random() is drawn only for a
            # runnable current thread. Otherwise choice() picks from
            # the sorted runnable threads, a list built only then.
            if not (current in alive
                    and (current not in blocked
                         or ready(blocked[current], flags, locks))
                    and random() >= switch_prob):
                runnable = [t for t in sorted(alive) if t not in blocked
                            or ready(blocked[t], flags, locks)]
                if not runnable:
                    raise TraceError(f"{instance.name}: deadlock ({blocked})")
                current = choice(runnable)
                quanta += 1
            tid = current

            if blocked:
                pending = blocked.pop(tid, None)
                if pending is not None:
                    apply_ctrl(tid, pending, flags, locks)
            try:
                item = gens[tid].send(send_values[tid])
            except StopIteration:
                alive.discard(tid)
                continue
            except SimulatedFailure as f:
                failure = f
                if failure.tid is None:
                    failure.tid = tid
                break
            send_values[tid] = None

            if item.__class__ is _Ctrl:
                if item.kind is _YIELD:
                    current = None  # force a re-pick next step
                elif ctrl_blocks(item, flags, locks, tid):
                    blocked[tid] = item
                else:
                    apply_ctrl(tid, item, flags, locks)
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

    @staticmethod
    def _ready(ctrl, flags, locks):
        """Whether a thread blocked on ``ctrl`` may run now."""
        kind = ctrl.kind
        if kind is _CtrlKind.WAIT:
            return ctrl.name in flags
        if kind is _CtrlKind.ACQUIRE:
            return locks.get(ctrl.name) is None
        return True

    @staticmethod
    def _ctrl_blocks(ctrl, flags, locks, tid):
        kind = ctrl.kind
        if kind is _CtrlKind.WAIT:
            return ctrl.name not in flags
        if kind is _CtrlKind.ACQUIRE:
            holder = locks.get(ctrl.name)
            return holder is not None and holder != tid
        return False

    @staticmethod
    def _apply_ctrl(tid, ctrl, flags, locks):
        kind = ctrl.kind
        if kind is _CtrlKind.SET:
            flags.add(ctrl.name)
        elif kind is _CtrlKind.ACQUIRE:
            locks[ctrl.name] = tid
        elif kind is _CtrlKind.RELEASE:
            if locks.get(ctrl.name) != tid:
                raise TraceError(f"thread {tid} released lock "
                                 f"{ctrl.name!r} it does not hold")
            locks[ctrl.name] = None
        # WAIT needs no action once the flag is set.


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
    return run
