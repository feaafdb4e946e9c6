"""Tracing v2: clocks, analysis surfaces, overhead.

Covers the deterministic TickClock, flame/critical-path rendering,
orphaned spans, the zero-cost audit of the disabled path (the measured
A/B of telemetry cost), and the golden-file byte-stability of
seed-pinned profiles.
"""

import pathlib
import time
import tracemalloc

import pytest

from repro import telemetry
from repro.telemetry import (
    TickClock,
    clock_from_spec,
    clock_spec,
    critical_path,
    folded_stacks,
    format_critical_path,
)
from repro.telemetry.spans import STATUS_ORPHANED

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


class TestTickClock:
    def test_advances_by_step(self):
        clock = TickClock(step=0.5)
        assert [clock() for _ in range(4)] == [0.0, 0.5, 1.0, 1.5]

    def test_two_clocks_agree(self):
        a, b = TickClock(), TickClock()
        assert [a() for _ in range(10)] == [b() for _ in range(10)]

    def test_spec_roundtrip(self):
        spec = clock_spec(TickClock(step=0.25))
        assert spec == ("tick", 0.25)
        rebuilt = clock_from_spec(spec)
        assert isinstance(rebuilt, TickClock)
        assert rebuilt() == 0.0 and rebuilt() == 0.25

    def test_wall_spec(self):
        assert clock_spec(time.perf_counter) == ("wall",)
        assert clock_from_spec(("wall",)) is telemetry.WALL


class TestFlameAndCriticalPath:
    SPANS = [{"name": "root", "id": "s1", "duration_s": 1.0, "children": [
        {"name": "a", "id": "s2", "duration_s": 0.6, "children": [
            {"name": "deep", "id": "s4", "duration_s": 0.5}]},
        {"name": "b", "id": "s3", "duration_s": 0.3},
    ]}]

    def test_folded_stacks_self_time(self):
        lines = folded_stacks(self.SPANS)
        assert lines == ["root 100000", "root;a 100000",
                         "root;a;deep 500000", "root;b 300000"]

    def test_stack_values_sum_to_root(self):
        total = sum(int(line.rsplit(" ", 1)[1])
                    for line in folded_stacks(self.SPANS))
        assert total == 1_000_000

    def test_critical_path_follows_heaviest_child(self):
        names = [s["name"] for s in critical_path(self.SPANS)]
        assert names == ["root", "a", "deep"]

    def test_format_critical_path_renders(self):
        text = format_critical_path(self.SPANS)
        assert "critical path (1.0000s root-to-leaf)" in text
        assert "deep" in text and "% of root" in text
        assert format_critical_path([]) == "no spans recorded"


class TestOrphanSpans:
    def test_orphan_is_closed_and_parented(self):
        reg = telemetry.Registry(preregister_catalog=False,
                                 clock=TickClock())
        with reg.span("dispatch"):
            span = reg.tracer.orphan("parallel.task", key=4)
        assert span.status == STATUS_ORPHANED
        assert span.duration == 0.0
        (root,) = reg.spans
        assert [c.status for c in root.children] == [STATUS_ORPHANED]
        assert span.parent_id == root.span_id


class TestZeroCostAudit:
    """S2: the disabled path must stay free on the hot replay path."""

    N = 5000

    def _hot_loop(self, tele):
        # The per-dependence instrumentation shape of the simulator and
        # deploy loops: one enabled check, an observe, a couple of incs.
        for i in range(self.N):
            if tele.enabled:
                tele.observe("sim.fifo_occupancy", i % 8)
                tele.inc("act.deps_processed")
                tele.inc("sim.fifo_stalls")

    def test_null_registry_allocates_nothing(self):
        tele = telemetry.NullRegistry()
        self._hot_loop(tele)  # warm: bytecode caches, method binds
        tracemalloc.start()
        try:
            tracemalloc.clear_traces()
            before, _ = tracemalloc.get_traced_memory()
            self._hot_loop(tele)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # No retained allocations at all from 15k no-op mutator calls.
        assert after - before < 512, (
            f"NullRegistry retained {after - before} bytes on the hot path")

    def test_instrumented_replay_within_10pct_of_null(self, tinybug,
                                                      trained_tinybug):
        from dataclasses import replace

        from repro.core.deploy import deploy_on_run
        from repro.workloads.framework import run_program

        base = run_program(tinybug, seed=5, buggy=False)
        # Long enough that the null replay takes >= 10 ms, so the 2 ms
        # floor below is a small share of the budget, not all of it.
        long_run = replace(base, events=base.events * 300)

        # Modules from one trained state share the window outputs they
        # score, so the first replay warms the memo for every later one.
        # One untimed replay first gives both sides the same warm memo.
        deploy_on_run(trained_tinybug, long_run)
        registries = (telemetry.NullRegistry(), telemetry.Registry())
        pairs = []
        # Each pair times the null and the live replay back to back, in
        # alternating order, so a shift in host speed between pairs hits
        # both sides of a pair alike. The median pair is checked: the
        # best of each side could come from different host speeds.
        for i in range(7):
            t = [0.0, 0.0]
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                with telemetry.use_registry(registries[side]):
                    t0 = time.perf_counter()
                    deploy_on_run(trained_tinybug, long_run)
                    t[side] = time.perf_counter() - t0
            pairs.append((t[1] - (1.10 * t[0] + 0.002), t[0], t[1]))
        _, t_null, t_live = sorted(pairs)[len(pairs) // 2]
        # Aggregate-only instrumentation is a few counter bumps per
        # check window, logged entry and replay; 10% is the audit budget
        # (plus a 2ms floor so a short run cannot flake the ratio).
        assert t_live <= 1.10 * t_null + 0.002, (
            f"instrumented replay {t_live:.4f}s vs null {t_null:.4f}s")


class TestGoldenExports:
    """S6: seed-pinned exports are byte-identical under the TickClock."""

    def _check(self, path, text, update):
        if update:
            path.write_text(text, encoding="utf-8")
            pytest.skip(f"updated {path.name}")
        assert path.exists(), (
            f"golden file {path} missing; run pytest --update-golden")
        assert text == path.read_text(encoding="utf-8")

    def _diagnose(self, tinybug, tmp_path):
        from repro.core.config import ACTConfig
        from repro.core.diagnosis import diagnose_failure

        tmp_path.mkdir(parents=True, exist_ok=True)

        reg = telemetry.Registry(clock=TickClock())
        with telemetry.use_registry(reg):
            diagnose_failure(tinybug, config=ACTConfig(seq_len=3,
                                                       check_window=20),
                             n_train_runs=4, n_pruning_runs=4)
        profile_path = tmp_path / "profile.json"
        telemetry.write_profile(reg, profile_path,
                                meta={"command": "diagnose", "clock": "tick"})
        return profile_path.read_text(encoding="utf-8")

    def test_profile_matches_golden(self, tinybug, tmp_path, update_golden):
        self._check(GOLDEN_DIR / "tracing_profile.json",
                    self._diagnose(tinybug, tmp_path), update_golden)

    def test_rerun_is_byte_identical(self, tinybug, tmp_path):
        first = self._diagnose(tinybug, tmp_path / "a")
        second = self._diagnose(tinybug, tmp_path / "b")
        assert first == second
