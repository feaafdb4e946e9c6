"""Unit tests for the fault-injection subsystem (repro.faults).

Covers the deterministic plan, every injection site and the recovery
machinery around each site. The end-to-end guarantees (zero-fault byte
identity, quarantine-subset equivalence) live in
tests/test_faults_differential.py.
"""

import re

import numpy as np
import pytest

from repro import telemetry
from repro.common.errors import ConfigError, TraceError
from repro.core.buffers import InputGeneratorBuffer
from repro.core.deploy import deploy_on_run
from repro.engines import create
from repro.faults import (
    ZERO_PLAN,
    FaultPlan,
    Quarantine,
    flip_weights,
    get_plan,
    use_plan,
)
from repro.trace.trace_io import read_trace, write_trace
from repro.workloads.framework import run_program
from repro.workloads.registry import get_bug


class TestFaultPlan:
    def test_zero_plan_never_fires(self):
        assert not ZERO_PLAN.enabled
        assert not ZERO_PLAN.fires("trace_drop", 0)
        assert not ZERO_PLAN.fires("fifo_overflow", 3, 1)

    def test_decisions_are_deterministic(self):
        a = FaultPlan(seed=7, trace_drop=0.3)
        b = FaultPlan(seed=7, trace_drop=0.3)
        for i in range(200):
            assert a.fires("trace_drop", i) == b.fires("trace_drop", i)

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, trace_drop=0.5)
        b = FaultPlan(seed=2, trace_drop=0.5)
        fires_a = [a.fires("trace_drop", i) for i in range(100)]
        fires_b = [b.fires("trace_drop", i) for i in range(100)]
        assert fires_a != fires_b

    def test_rate_controls_frequency(self):
        plan = FaultPlan(seed=11, trace_drop=0.3)
        hits = sum(plan.fires("trace_drop", i) for i in range(10_000))
        assert 0.25 < hits / 10_000 < 0.35

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(trace_drop=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(weight_flip=-0.1)

    def test_spec_round_trip(self):
        plan = FaultPlan(seed=3, trace_drop=0.05, trace_reorder=0.2,
                         weight_flip=1.0, fifo_overflow=0.01)
        assert FaultPlan.from_spec(plan.describe()) == plan

    def test_spec_rejects_unknown_key(self):
        # The retired worker_kill and run_corrupt sites are unknown keys.
        for spec in ("frobnicate=1", "seed=3,worker_kill=0.1",
                     "run_corrupt=0.5"):
            with pytest.raises(ConfigError, match="unknown fault spec key"):
                FaultPlan.from_spec(spec)
        with pytest.raises(ConfigError):
            FaultPlan.from_spec("justakey")

    def test_active_plan_context(self):
        assert get_plan() is ZERO_PLAN
        plan = FaultPlan(seed=1, fifo_overflow=0.5)
        with use_plan(plan):
            assert get_plan() is plan
            with use_plan(ZERO_PLAN):
                assert get_plan() is ZERO_PLAN
            assert get_plan() is plan
        assert get_plan() is ZERO_PLAN

    def test_context_restores_after_error(self):
        with pytest.raises(RuntimeError):
            with use_plan(FaultPlan(seed=1, trace_drop=0.1)):
                raise RuntimeError("boom")
        assert get_plan() is ZERO_PLAN


def _non_utf8_record(run, path):
    """Write ``run`` to ``path``, then make one record line non-UTF-8."""
    write_trace(run, path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = b"[0, \xff\xfe]\n"
    path.write_bytes(b"".join(lines))


def _torn_record(run, path):
    """Write ``run`` to ``path``, then cut one record line short."""
    write_trace(run, path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3][:len(lines[3]) // 2] + b"\n"
    path.write_bytes(b"".join(lines))


_RECORD_DAMAGE = [pytest.param(_torn_record, id="torn-record"),
                  pytest.param(_non_utf8_record, id="non-utf8-record")]

_HEADER_DAMAGE = [
    pytest.param(b"{not json\n", id="not-json"),
    pytest.param(b"\xff\xfe{}\n[0, 1, \"read\", 8]\n", id="non-utf8"),
    pytest.param(b'{"version": 1, "n_threads": 2, "seed": 0}\n',
                 id="missing-failed"),
    pytest.param(b'{"version": 1, "failed": true, "seed": 0}\n',
                 id="missing-n_threads"),
    pytest.param(b'{"version": 1, "failed": true, "n_threads": 2}\n',
                 id="missing-seed"),
]


def _is_subsequence(part, whole):
    it = iter(whole)
    return all(e in it for e in part)


class TestTraceFaults:
    """The trace fault sites of ``run_program`` and the strict reader."""

    def _run(self, pingpong, plan=ZERO_PLAN):
        with use_plan(plan):
            return run_program(pingpong, seed=1)

    def test_zero_plan_output_byte_identical(self, pingpong, tmp_path):
        # Neither a zero plan nor a plan of other sites touches a run.
        plain = run_program(pingpong, seed=1)
        write_trace(plain, tmp_path / "plain.trace")
        for i, plan in enumerate((ZERO_PLAN,
                                  FaultPlan(seed=3, weight_flip=0.5))):
            run = self._run(pingpong, plan)
            assert run.events == plain.events
            write_trace(run, tmp_path / f"{i}.trace")
            assert ((tmp_path / f"{i}.trace").read_bytes()
                    == (tmp_path / "plain.trace").read_bytes())

    def test_dropped_records_shorten_trace(self, pingpong, tmp_path):
        run = self._run(pingpong)
        with telemetry.use_registry(telemetry.Registry()) as reg:
            damaged = self._run(pingpong, FaultPlan(seed=2, trace_drop=0.3))
        assert 0 < len(damaged.events) < len(run.events)
        assert _is_subsequence(damaged.events, run.events)
        counters = reg.snapshot()["counters"]
        assert counters["faults.trace_drops"] == (len(run.events)
                                                  - len(damaged.events))
        # A recorded trace holds exactly the damaged run.
        path = tmp_path / "t.trace"
        write_trace(damaged, path)
        assert read_trace(path).events == damaged.events

    @pytest.mark.parametrize("damage", _RECORD_DAMAGE)
    def test_corrupt_records_fail_closed(self, pingpong, tmp_path, damage):
        path = tmp_path / "t.trace"
        damage(self._run(pingpong), path)
        with pytest.raises(TraceError, match=re.escape(f"{path}:4: ")):
            read_trace(path)

    def test_reorder_swaps_adjacent_records(self, pingpong):
        run = self._run(pingpong)
        with telemetry.use_registry(telemetry.Registry()) as reg:
            damaged = self._run(pingpong,
                                FaultPlan(seed=5, trace_reorder=0.3))
        assert len(damaged.events) == len(run.events)
        assert damaged.events != run.events
        assert (sorted(damaged.events, key=repr)
                == sorted(run.events, key=repr))
        assert reg.snapshot()["counters"]["faults.trace_reorders"] > 0

    def test_same_plan_writes_byte_identical_files(self, pingpong, tmp_path):
        plan = FaultPlan(seed=13, trace_drop=0.2, trace_reorder=0.2)
        a, b, plain = (tmp_path / f"{n}.trace" for n in "abc")
        write_trace(self._run(pingpong, plan), a)
        write_trace(self._run(pingpong, plan), b)
        assert a.read_bytes() == b.read_bytes()
        write_trace(self._run(pingpong), plain)
        assert a.read_bytes() != plain.read_bytes()  # the plan did damage

    @pytest.mark.parametrize("data", _HEADER_DAMAGE)
    def test_header_damage_never_recoverable(self, tmp_path, data):
        path = tmp_path / "t.trace"
        path.write_bytes(data)
        with pytest.raises(TraceError, match=re.escape(str(path))):
            read_trace(path)


def _engine_input(monkeypatch, engine, plan):
    """What ``engine`` reads in one gzip diagnosis under ``plan``: the
    dependences ``extract_raw_deps`` hands the NN's pruning and PSet,
    or the events of the runs Aviso and PBI read."""
    from repro.baselines import pset
    from repro.core import offline, postprocess
    from repro.engines import baseline_engines

    seen = []
    if engine in ("nn", "pset"):
        sites = [(postprocess if engine == "nn" else pset,
                  "extract_raw_deps",
                  lambda streams: sum(map(len, streams.values())))]
    else:
        sites = [(module, "run_program", lambda run: len(run.events))
                 for module in (offline, baseline_engines)]
    with monkeypatch.context() as m:
        for module, name, size in sites:
            def spy(*args, _real=getattr(module, name), _size=size,
                    **kwargs):
                out = _real(*args, **kwargs)
                seen.append(_size(out))
                return out
            m.setattr(module, name, spy)
        create(engine).diagnose_report(get_bug("gzip"), n_train_runs=3,
                                       n_pruning_runs=3, faults=plan)
    return sum(seen)


class TestTraceFaultsReachEngines:
    """A trace drop reaches every engine: each reads less of the run."""

    @pytest.mark.parametrize("engine", ["nn", "pset", "aviso", "pbi"])
    def test_engine_input_shrinks(self, engine, monkeypatch):
        clean = _engine_input(monkeypatch, engine, ZERO_PLAN)
        damaged = _engine_input(monkeypatch, engine,
                                FaultPlan(seed=3, trace_drop=0.1))
        assert 0 < damaged < clean


class TestFifoOverflow:
    def test_overrun_clears_unconsumed_entries(self):
        buf = InputGeneratorBuffer(capacity=5, tid=0)
        with use_plan(FaultPlan(seed=0, fifo_overflow=1.0)):
            with telemetry.use_registry(telemetry.Registry()) as reg:
                for dep in "abcde":
                    buf.push(dep)
        assert len(buf) == 1  # every push wiped the backlog first
        assert reg.snapshot()["counters"]["faults.fifo_overflows"] == 5

    def test_zero_plan_keeps_fifo_semantics(self):
        buf = InputGeneratorBuffer(capacity=3, tid=0)
        for dep in "abcde":
            buf.push(dep)
        assert buf.sequence(3) == ("c", "d", "e")


class TestWeightFlips:
    def test_flip_is_deterministic_and_nonfinite(self):
        plan = FaultPlan(seed=9, weight_flip=1.0)
        flat = np.zeros(24)
        a = flip_weights(flat, plan, 0)
        b = flip_weights(flat, plan, 0)
        assert np.array_equal(a, b, equal_nan=True)
        assert not np.isfinite(a).all()
        assert np.isfinite(flat).all()  # input untouched

    def test_make_network_hosts_flip_site(self, trained_tinybug):
        with use_plan(FaultPlan(seed=9, weight_flip=1.0)):
            net = trained_tinybug.make_network(0)
        assert not np.isfinite(net.read_weights()).all()

    def test_deploy_heals_flipped_weights(self, trained_tinybug, tinybug):
        failure = run_program(tinybug, seed=12345, buggy=True)
        clean = deploy_on_run(trained_tinybug, failure)
        quarantine = Quarantine()
        with telemetry.use_registry(telemetry.Registry()) as reg:
            with use_plan(FaultPlan(seed=9, weight_flip=1.0)):
                healed = deploy_on_run(trained_tinybug, failure,
                                       quarantine=quarantine)
        counters = reg.snapshot()["counters"]
        assert counters["faults.weight_flips"] >= 1
        assert counters["faults.weights_healed"] >= 1
        assert len(quarantine) >= 1
        assert quarantine.records[0].phase == "deploy.weights"
        # Healing falls back to the pooled default weights: the replay
        # completes and every module ends the run with finite registers.
        assert healed.n_deps == clean.n_deps
        for module in healed.modules.values():
            assert np.isfinite(module.net.read_weights()).all()
