"""Tests for the concurrent-program framework."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.common.errors import ReproError, SimulatedFailure, TraceError
from repro.trace.events import EventKind
from repro.workloads.framework import (
    AddressSpace,
    CodeMap,
    Program,
    ProgramInstance,
    Scheduler,
    ThreadCtx,
    run_program,
)


class TestCodeMap:
    def test_alloc_distinct_pcs(self):
        cm = CodeMap()
        a = cm.load("a")
        b = cm.store("b")
        assert a != b

    def test_duplicate_label_rejected(self):
        cm = CodeMap()
        cm.load("x", function="f")
        with pytest.raises(ReproError):
            cm.store("x", function="f")

    def test_same_label_different_function_ok(self):
        cm = CodeMap()
        a = cm.load("x", function="f")
        b = cm.load("x", function="g")
        assert a != b

    def test_describe_and_lookup(self):
        cm = CodeMap()
        pc = cm.branch("loop", function="work")
        assert cm.describe(pc) == "work:loop"
        assert cm.pc_of("loop", "work") == pc
        assert cm.function_of(pc) == "work"

    def test_describe_unknown_pc(self):
        cm = CodeMap()
        assert "pc=" in cm.describe(0xDEAD)

    def test_pcs_in_function(self):
        cm = CodeMap()
        a = cm.load("a", function="f")
        cm.load("b", function="g")
        c = cm.store("c", function="f")
        assert set(cm.pcs_in_function("f")) == {a, c}

    def test_len(self):
        cm = CodeMap()
        cm.load("a")
        cm.alu("b")
        assert len(cm) == 2


class TestAddressSpace:
    def test_idempotent_lookup(self):
        mem = AddressSpace()
        assert mem.var("x") == mem.var("x")
        assert mem.array("a", 8) == mem.array("a", 8)

    def test_distinct_objects_aligned(self):
        mem = AddressSpace(alignment=64)
        a = mem.var("a")
        b = mem.var("b")
        assert a % 64 == 0 and b % 64 == 0
        assert b - a >= 64

    def test_packed_allocation_adjacent(self):
        mem = AddressSpace(alignment=64)
        base = mem.array("buf", 4)
        tail = mem.var("tail", packed=True)
        assert tail == base + 16

    def test_word_alignment_within_array(self):
        mem = AddressSpace()
        base = mem.array("arr", 3)
        assert base % 4 == 0

    def test_addr_of(self):
        mem = AddressSpace()
        a = mem.var("q")
        assert mem.addr_of("q") == a


class _TwoThreads(Program):
    name = "two"

    def build(self, use_lock=False, fail_at=None):
        cm = CodeMap()
        mem = AddressSpace()
        x = mem.var("x")
        s = cm.store("s", function="a")
        l = cm.load("l", function="b")

        def t0(ctx):
            for i in range(5):
                if use_lock:
                    yield ctx.acquire("m")
                yield ctx.store(s, x, value=i)
                if use_lock:
                    yield ctx.release("m")
                if fail_at == i:
                    raise SimulatedFailure("bang", pc=s)

        def t1(ctx):
            for _ in range(5):
                if use_lock:
                    yield ctx.acquire("m")
                yield ctx.load(l, x)
                if use_lock:
                    yield ctx.release("m")

        return ProgramInstance(self.name, cm, [t0, t1])


class TestScheduler:
    def test_deterministic_per_seed(self):
        r1 = run_program(_TwoThreads(), seed=5)
        r2 = run_program(_TwoThreads(), seed=5)
        assert [(e.tid, e.pc) for e in r1.events] == \
               [(e.tid, e.pc) for e in r2.events]

    def test_seeds_vary_interleaving(self):
        traces = {tuple((e.tid, e.pc) for e in
                        run_program(_TwoThreads(), seed=s).events)
                  for s in range(8)}
        assert len(traces) > 1

    def test_all_events_recorded(self):
        run = run_program(_TwoThreads(), seed=1)
        stores = [e for e in run.events if e.kind == EventKind.STORE]
        loads = [e for e in run.events if e.kind == EventKind.LOAD]
        assert len(stores) == 5 and len(loads) == 5

    def test_failure_captured(self):
        run = run_program(_TwoThreads(), seed=1, fail_at=2)
        assert run.failed
        assert run.failure.tid == 0
        assert "bang" in str(run.failure)

    def test_failure_stops_execution(self):
        run = run_program(_TwoThreads(), seed=1, fail_at=0)
        stores = [e for e in run.events if e.kind == EventKind.STORE]
        assert len(stores) == 1

    def test_load_returns_stored_value(self):
        observed = []

        class P(Program):
            name = "valsem"

            def build(self):
                cm = CodeMap()
                mem = AddressSpace()
                x = mem.var("x")
                s = cm.store("s")
                l = cm.load("l")

                def body(ctx):
                    yield ctx.store(s, x, value=41)
                    v = yield ctx.load(l, x)
                    observed.append(v)

                return ProgramInstance(self.name, cm, [body])

        run_program(P(), seed=0)
        assert observed == [41]

    def test_uninitialised_load_returns_zero(self):
        observed = []

        class P(Program):
            name = "uninit"

            def build(self):
                cm = CodeMap()
                mem = AddressSpace()
                l = cm.load("l")

                def body(ctx):
                    v = yield ctx.load(l, mem.var("x"))
                    observed.append(v)

                return ProgramInstance(self.name, cm, [body])

        run_program(P(), seed=0)
        assert observed == [0]


class TestSynchronisation:
    def test_lock_mutual_exclusion(self):
        order = []

        class P(Program):
            name = "mutex"

            def build(self):
                cm = CodeMap()
                mem = AddressSpace()
                x = mem.var("x")
                pcs = [cm.store(f"s{t}", function=f"t{t}") for t in range(2)]

                def make(tid):
                    def body(ctx):
                        for i in range(4):
                            yield ctx.acquire("m")
                            order.append((tid, "in"))
                            yield ctx.store(pcs[tid], x, value=i)
                            order.append((tid, "out"))
                            yield ctx.release("m")
                    return body

                return ProgramInstance(self.name, cm, [make(0), make(1)])

        run_program(P(), seed=3)
        # critical sections never interleave: in/out strictly alternate
        for i in range(0, len(order), 2):
            assert order[i][0] == order[i + 1][0]
            assert order[i][1] == "in" and order[i + 1][1] == "out"

    def test_wait_blocks_until_set(self):
        class P(Program):
            name = "flagged"

            def build(self):
                cm = CodeMap()
                mem = AddressSpace()
                x = mem.var("x")
                s = cm.store("s", function="t0")
                l = cm.load("l", function="t1")

                def t0(ctx):
                    yield ctx.store(s, x, value=1)
                    yield ctx.set_flag("go")

                def t1(ctx):
                    yield ctx.wait("go")
                    yield ctx.load(l, x)

                return ProgramInstance(self.name, cm, [t0, t1])

        for seed in range(6):
            run = run_program(P(), seed=seed)
            kinds = [(e.tid, e.kind) for e in run.events]
            assert kinds.index((0, EventKind.STORE)) < \
                kinds.index((1, EventKind.LOAD))

    def test_deadlock_detected(self):
        class P(Program):
            name = "deadlock"

            def build(self):
                cm = CodeMap()

                def t0(ctx):
                    yield ctx.wait("never")

                return ProgramInstance(self.name, cm, [t0])

        with pytest.raises(TraceError, match="deadlock"):
            run_program(P(), seed=0)

    def test_release_of_unheld_lock_rejected(self):
        class P(Program):
            name = "badrelease"

            def build(self):
                cm = CodeMap()

                def t0(ctx):
                    yield ctx.release("m")

                return ProgramInstance(self.name, cm, [t0])

        with pytest.raises(TraceError, match="release"):
            run_program(P(), seed=0)

    @staticmethod
    def _quanta(body, name):
        """``(events, sched.quanta)`` of one single-thread run that never
        switches on the draw (``switch_prob=0``), so every pick counted
        is a forced one."""

        class P(Program):
            def build(self):
                return ProgramInstance(name, CodeMap(), [body])

        with telemetry.use_registry(telemetry.Registry()) as reg:
            run = run_program(P(), scheduler=Scheduler(switch_prob=0.0))
            return run.events, reg.counter("sched.quanta").value

    def test_sched_yield_records_nothing_and_forces_a_repick(self):
        def plain(ctx):
            yield ctx.alu(0x1000)
            yield ctx.alu(0x1004)

        def yielding(ctx):
            yield ctx.alu(0x1000)
            yield ctx.sched_yield()
            yield ctx.alu(0x1004)

        events, quanta = self._quanta(plain, "plain")
        yielded, yield_quanta = self._quanta(yielding, "yielding")
        assert [e.pc for e in yielded] == [e.pc for e in events] == \
            [0x1000, 0x1004]
        assert (quanta, yield_quanta) == (0, 1)

    def test_reacquiring_a_held_lock_does_not_block(self):
        def body(ctx):
            yield ctx.acquire("m")
            yield ctx.acquire("m")
            yield ctx.store(0x1000, 0x40, value=1)
            yield ctx.release("m")

        # A block here would be a deadlock: the only thread holds "m".
        events, quanta = self._quanta(body, "reacquire")
        assert [(e.pc, e.addr) for e in events] == [(0x1000, 0x40)]
        assert quanta == 0

    def test_livelock_guard(self):
        class P(Program):
            name = "forever"

            def build(self):
                cm = CodeMap()
                a = cm.alu("spin")

                def t0(ctx):
                    while True:
                        yield ctx.alu(a)

                return ProgramInstance(self.name, cm, [t0])

        sched = Scheduler(seed=0, max_steps=500)
        with pytest.raises(TraceError, match="steps"):
            run_program(P(), scheduler=sched)


class TestRunProgram:
    def test_params_override_defaults(self, tinybug):
        run = run_program(tinybug, seed=0, buggy=True)
        assert run.failed

    def test_params_for_seed_merging(self):
        captured = {}

        class P(Program):
            name = "seeded"

            def default_params(self):
                return {"a": 1, "b": 2}

            def params_for_seed(self, seed):
                return {"b": seed}

            def build(self, a, b):
                captured["a"], captured["b"] = a, b
                cm = CodeMap()
                x = cm.alu("x")

                def t(ctx):
                    yield ctx.alu(x)
                return ProgramInstance(self.name, cm, [t])

        run_program(P(), seed=7)
        assert captured == {"a": 1, "b": 7}
        run_program(P(), seed=7, b=99)
        assert captured["b"] == 99

    def test_instance_cannot_be_reparameterised(self, tinybug):
        inst = tinybug.build()
        with pytest.raises(ReproError):
            run_program(inst, seed=0, buggy=True)

    def test_meta_carries_root_cause(self, tinybug):
        run = run_program(tinybug, seed=0, buggy=True)
        assert run.meta["root_cause"]

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_any_seed_completes(self, seed):
        run = run_program(_TwoThreads(), seed=seed)
        assert not run.failed
        assert len(run.events) == 10
