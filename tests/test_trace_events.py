"""Tests for trace event records and TraceRun helpers."""

import pytest

from repro.trace.events import EventKind, TraceEvent, TraceRun


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
