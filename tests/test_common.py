"""Tests for repro.common: rng determinism, errors, table rendering."""

import inspect
import pickle

import pytest

from repro.common import errors as errors_module
from repro.common.errors import (
    CheckpointError,
    ConfigError,
    EngineError,
    FaultInjected,
    ReproError,
    SimulatedFailure,
    TraceError,
    WorkerKilled,
)
from repro.common.rng import make_np_rng, make_rng
from repro.common.texttable import render_table


class TestRng:
    def test_same_seed_same_stream_reproduces(self):
        a = make_rng(42, stream=1)
        b = make_rng(42, stream=1)
        assert [a.random() for _ in range(10)] == [b.random()
                                                   for _ in range(10)]

    def test_different_streams_decorrelate(self):
        a = make_rng(42, stream=1)
        b = make_rng(42, stream=2)
        assert [a.random() for _ in range(5)] != [b.random()
                                                  for _ in range(5)]

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_np_rng_reproducible(self):
        a = make_np_rng(7, stream=3).random(4)
        b = make_np_rng(7, stream=3).random(4)
        assert (a == b).all()

    def test_np_rng_streams_differ(self):
        a = make_np_rng(7, stream=3).random(4)
        b = make_np_rng(7, stream=4).random(4)
        assert (a != b).any()


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(SimulatedFailure, ReproError)
        assert issubclass(ConfigError, ReproError)
        assert issubclass(TraceError, ReproError)

    def test_simulated_failure_carries_context(self):
        f = SimulatedFailure("boom", tid=2, pc=0x1004)
        assert f.tid == 2
        assert f.pc == 0x1004
        assert "boom" in str(f)

    def test_simulated_failure_is_raisable(self):
        with pytest.raises(SimulatedFailure):
            raise SimulatedFailure("x")


# Every exception type with its context attributes. SimulatedFailure
# once dropped tid/pc across a process-pool boundary because the default
# Exception reduce protocol only re-raises with ``args``; this audit
# pins the fix for every error type in the module.
_ERROR_SAMPLES = [
    (ReproError("plain"), {}),
    (ConfigError("bad config"), {}),
    (TraceError("bad trace"), {}),
    (SimulatedFailure("boom", tid=3, pc=0x40), {"tid": 3, "pc": 0x40}),
    (FaultInjected("injected", site="run_corrupt", key=104),
     {"site": "run_corrupt", "key": 104}),
    (WorkerKilled("died", task_index=7, attempt=2),
     {"task_index": 7, "attempt": 2, "site": "worker_kill",
      "key": (7, 2)}),
    (CheckpointError("corrupt", path="/tmp/ck.json"),
     {"path": "/tmp/ck.json"}),
    (EngineError("unknown engine 'bogus'", engine="bogus",
                 known=("nn", "aviso", "pbi", "pset", "ensemble")),
     {"engine": "bogus",
      "known": ("nn", "aviso", "pbi", "pset", "ensemble")}),
]


class TestErrorPickling:
    @pytest.mark.parametrize(
        "err,attrs", _ERROR_SAMPLES,
        ids=[type(e).__name__ for e, _ in _ERROR_SAMPLES])
    def test_round_trip_keeps_type_message_and_context(self, err, attrs):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert str(back) == str(err)
        for name, value in attrs.items():
            assert getattr(back, name) == value, name

    def test_audit_covers_every_exception_in_module(self):
        covered = {type(e) for e, _ in _ERROR_SAMPLES}
        defined = {
            obj for _name, obj in inspect.getmembers(errors_module,
                                                     inspect.isclass)
            if issubclass(obj, Exception)
            and obj.__module__ == errors_module.__name__
        }
        assert defined <= covered, (
            f"exception types missing a pickle round-trip sample: "
            f"{[c.__name__ for c in defined - covered]}")


class TestTextTable:
    def test_contains_headers_and_cells(self):
        out = render_table(("a", "bb"), [(1, "x"), (22, "yyy")])
        assert "a" in out and "bb" in out
        assert "22" in out and "yyy" in out

    def test_title_line(self):
        out = render_table(("h",), [("v",)], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_column_alignment(self):
        out = render_table(("col",), [("short",), ("much longer cell",)])
        lines = out.splitlines()
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows padded to equal width

    def test_float_formatting(self):
        out = render_table(("x",), [(1.23456,)])
        assert "1.235" in out

    def test_empty_rows(self):
        out = render_table(("a", "b"), [])
        assert "a" in out
