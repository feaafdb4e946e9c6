"""Tests for trace event records and TraceRun helpers."""

import pickle

import pytest

from repro.trace.events import EventKind, TraceEvent, TraceRun
from repro.workloads.framework import ThreadCtx


class TestEventKind:
    def test_memory_classification(self):
        assert EventKind.LOAD.is_memory()
        assert EventKind.STORE.is_memory()
        assert not EventKind.BRANCH.is_memory()
        assert not EventKind.ALU.is_memory()


class TestTraceEvent:
    def test_memory_event_requires_address(self):
        with pytest.raises(ValueError):
            TraceEvent(0, 0x1000, EventKind.LOAD)

    def test_branch_carries_outcome(self):
        e = TraceEvent(1, 0x1000, EventKind.BRANCH, taken=True)
        assert e.taken is True

    def test_stack_flag(self):
        e = TraceEvent(0, 0x1000, EventKind.LOAD, addr=8, is_stack=True)
        assert e.is_stack

    def test_frozen(self):
        e = TraceEvent(0, 0x1000, EventKind.ALU)
        with pytest.raises(Exception):
            e.pc = 5

    def test_fields_cannot_be_deleted(self):
        e = TraceEvent(0, 0x1000, EventKind.ALU)
        with pytest.raises(AttributeError):
            del e.pc

    def test_store_value_is_not_part_of_the_record(self):
        a = TraceEvent(0, 0x1000, EventKind.STORE, addr=8, value=1)
        b = TraceEvent(0, 0x1000, EventKind.STORE, addr=8, value=2)
        assert a.value == 1 and a == b and hash(a) == hash(b)
        assert repr(a) == ("TraceEvent(tid=0, pc=4096, kind=<EventKind.STORE:"
                           " 'store'>, addr=8, is_stack=False, taken=None)")
        with pytest.raises(AttributeError):
            a.value = 3

    def test_field_equality(self):
        e = TraceEvent(1, 0x1000, EventKind.LOAD, addr=8, is_stack=True)
        assert e == TraceEvent(1, 0x1000, EventKind.LOAD, addr=8,
                               is_stack=True)
        assert e != TraceEvent(1, 0x1000, EventKind.LOAD, addr=8)
        assert e != (1, 0x1000, EventKind.LOAD, 8, True, None)

    def test_pickle_keeps_fields_and_value(self):
        e = TraceEvent(2, 0x1004, EventKind.STORE, addr=12, value=(3, 3))
        back = pickle.loads(pickle.dumps(e))
        assert back == e and back.value == (3, 3)


class TestThreadCtxEvents:
    """The scheduler's thread handles fill events through the slots, not
    through the public constructor; the events must be the same."""

    CTX = ThreadCtx(3)
    PAIRS = [
        (CTX.load(0x1000, 8), TraceEvent(3, 0x1000, EventKind.LOAD, 8)),
        (CTX.store(0x1004, 12, value=(1, 2)),
         TraceEvent(3, 0x1004, EventKind.STORE, 12, value=(1, 2))),
        (CTX.store(0x1004, 12), TraceEvent(3, 0x1004, EventKind.STORE, 12)),
        (CTX.stack_load(0x1008, slot=2),
         TraceEvent(3, 0x1008, EventKind.LOAD, 0x7FFF_0000 + 3 * 0x1_0000 + 8,
                    True)),
        (CTX.stack_store(0x100C, value=5),
         TraceEvent(3, 0x100C, EventKind.STORE, 0x7FFF_0000 + 3 * 0x1_0000,
                    True, value=5)),
        (CTX.branch(0x1010, 1),
         TraceEvent(3, 0x1010, EventKind.BRANCH, taken=True)),
        (CTX.alu(0x1014), TraceEvent(3, 0x1014, EventKind.ALU)),
    ]

    @pytest.mark.parametrize("fast, public", PAIRS)
    def test_same_event_as_the_constructor(self, fast, public):
        assert fast.__class__ is TraceEvent
        assert fast == public and hash(fast) == hash(public)
        assert repr(fast) == repr(public)
        assert fast.value == public.value

    @pytest.mark.parametrize("fast, public", PAIRS)
    def test_pickle_keeps_the_value(self, fast, public):
        back = pickle.loads(pickle.dumps(fast))
        assert back == public and back.value == public.value

    @pytest.mark.parametrize("fast, public", PAIRS)
    def test_immutable(self, fast, public):
        with pytest.raises(AttributeError):
            fast.pc = 5
        with pytest.raises(AttributeError):
            del fast.addr

    def test_memory_access_requires_address(self):
        with pytest.raises(ValueError, match="needs an address"):
            self.CTX.load(0x1000, None)
        with pytest.raises(ValueError, match="needs an address"):
            self.CTX.store(0x1000, None, value=1)


class TestTraceRun:
    def _run(self):
        events = [
            TraceEvent(0, 0x1000, EventKind.STORE, addr=4),
            TraceEvent(1, 0x1004, EventKind.LOAD, addr=4),
            TraceEvent(0, 0x1008, EventKind.ALU),
            TraceEvent(1, 0x100C, EventKind.BRANCH, taken=False),
        ]
        return TraceRun(events=events, n_threads=2)

    def test_events_of_thread_preserve_order(self):
        run = self._run()
        t0 = run.events_of_thread(0)
        assert [e.pc for e in t0] == [0x1000, 0x1008]

    def test_memory_events(self):
        run = self._run()
        assert len(run.memory_events()) == 2

    def test_len(self):
        assert len(self._run()) == 4

    def test_failure_defaults(self):
        run = self._run()
        assert not run.failed
        assert run.failure is None
