"""Tests for the telemetry subsystem (registry, spans, export, e2e)."""

import math

import pytest

from repro import telemetry
from repro.core.config import ACTConfig
from repro.core.diagnosis import diagnose_failure
from repro.telemetry.catalog import CATALOG, format_catalog


@pytest.fixture
def registry():
    return telemetry.Registry()


class TestCounters:
    def test_inc_accumulates(self, registry):
        registry.inc("x")
        registry.inc("x", 4)
        assert registry.counter("x").value == 5

    def test_float_increments(self, registry):
        registry.inc("cycles", 1.5)
        registry.inc("cycles", 2.25)
        assert registry.counter("cycles").value == pytest.approx(3.75)

    def test_same_name_same_counter(self, registry):
        assert registry.counter("a") is registry.counter("a")


class TestGaugesAndHistograms:
    def test_gauge_keeps_last(self, registry):
        registry.set_gauge("g", 1.0)
        registry.set_gauge("g", 7.0)
        assert registry.gauge("g").value == 7.0

    def test_histogram_stats(self, registry):
        for v in (1, 2, 2, 5):
            registry.observe("h", v)
        h = registry.histogram("h")
        assert h.count == 4
        assert h.min == 1 and h.max == 5
        assert h.mean == pytest.approx(2.5)
        assert h.buckets[2] == 2

    def test_histogram_float_bucketing(self, registry):
        registry.observe("h", 0.123456789)
        registry.observe("h", 0.123449)
        assert registry.histogram("h").buckets == {0.1235: 1, 0.1234: 1}

    def test_observe_many_equals_single_observes(self, registry):
        # Sums that builtin sum() (compensated on 3.12) would round
        # differently from one-at-a-time addition.
        values = [0.1] * 10 + [1e16, 1.0, -1e16, 0.3, 3, 0.0, -0.0, 1,
                               0.30000001, 0.1]
        single = telemetry.Registry(preregister_catalog=False)
        registry.observe("h", 0.7)
        single.observe("h", 0.7)
        for v in values:
            single.observe("h", v)
        registry.observe_many("h", values)
        registry.observe_many("h", [])
        assert (registry.histogram("h").to_dict()
                == single.histogram("h").to_dict())
        assert repr(registry.histogram("h").sum) == repr(
            single.histogram("h").sum)

    def test_merged_sums_equal_serial_for_any_split(self, registry):
        # Worker snapshots carry exact partials, so a merged sum does
        # not depend on where the values were split between workers.
        from fractions import Fraction

        values = [0.1] * 10 + [1e16, 1.0, -1e16, 0.3, 0.30000001]
        registry.observe_many("h", values)
        exact = float(sum(map(Fraction, values)))
        assert registry.histogram("h").sum == exact
        for cut in range(len(values) + 1):
            merged = telemetry.Registry(preregister_catalog=False)
            for part in (values[:cut], values[cut:]):
                child = telemetry.Registry(preregister_catalog=False)
                child.observe_many("h", part)
                merged.merge_snapshot(child.snapshot(exact=True))
            assert (merged.histogram("h").to_dict()
                    == registry.histogram("h").to_dict()), cut

    def test_sum_stays_exact_and_bounded_past_compaction(self, registry):
        # One observe at a time, well past the point where the buffered
        # values fold into exact terms; splits land on either side of it.
        from fractions import Fraction

        values = [(i % 13) * 0.1 + (1e12 if i % 97 == 0 else 1e-7)
                  for i in range(1000)] + list(range(300))
        for v in values:
            registry.observe("h", v)
        hist = registry.histogram("h")
        assert hist.sum == float(sum(map(Fraction, values)))
        assert len(hist.partials) <= 256
        for cut in (1, 255, 257, 700, 1299):
            merged = telemetry.Registry(preregister_catalog=False)
            for part in (values[:cut], values[cut:]):
                child = telemetry.Registry(preregister_catalog=False)
                for v in part:
                    child.observe("h", v)
                merged.merge_snapshot(child.snapshot(exact=True))
            assert merged.histogram("h").to_dict() == hist.to_dict(), cut

    def test_non_finite_sum_does_not_raise(self, registry):
        registry.observe_many("h", [1.0, float("inf"), 2.0])
        assert registry.histogram("h").sum == float("inf")
        registry.observe("h", float("-inf"))
        assert math.isnan(registry.histogram("h").to_dict()["sum"])


class TestLifecycle:
    def test_reset_clears_and_keeps_catalog(self, registry):
        registry.inc("act.deps_processed", 10)
        registry.inc("adhoc.metric")
        with registry.span("phase"):
            pass
        registry.reset()
        assert registry.counter("act.deps_processed").value == 0
        assert "adhoc.metric" not in registry.snapshot()["counters"]
        assert registry.spans == []

    def test_catalog_preregistered(self, registry):
        snap = registry.snapshot()
        for spec in CATALOG:
            section = {"counter": "counters", "gauge": "gauges",
                       "histogram": "histograms"}[spec.kind]
            assert spec.name in snap[section]

    def test_format_catalog_lists_all(self):
        text = format_catalog()
        assert "act.invalid_predictions" in text
        assert "sim.fifo_stalls" in text


class TestNullRegistry:
    def test_disabled_by_default(self):
        assert not telemetry.enabled()
        assert isinstance(telemetry.get_registry(), telemetry.NullRegistry)

    def test_mutators_are_noops(self):
        null = telemetry.NullRegistry()
        null.inc("x", 5)
        null.observe("h", 1)
        null.observe_many("h", [1, 2])
        null.histogram("h").observe_many([3])
        null.set_gauge("g", 2)
        with null.span("s") as span:
            assert span.name == "null"
        snap = null.snapshot()
        assert snap["counters"] == {}
        assert snap["spans"] == []

    def test_use_registry_restores(self, registry):
        before = telemetry.get_registry()
        with telemetry.use_registry(registry):
            assert telemetry.get_registry() is registry
            assert telemetry.enabled()
        assert telemetry.get_registry() is before

    def test_set_registry_none_disables(self, registry):
        previous = telemetry.set_registry(registry)
        try:
            assert telemetry.enabled()
        finally:
            telemetry.set_registry(None)
        assert not telemetry.enabled()
        assert previous is telemetry.get_registry()


class TestSpans:
    def test_nesting(self, registry):
        with registry.span("outer", program="p"):
            with registry.span("inner"):
                pass
            with registry.span("inner2"):
                pass
        (root,) = registry.spans
        assert root.name == "outer"
        assert root.attrs == {"program": "p"}
        assert [c.name for c in root.children] == ["inner", "inner2"]
        assert root.duration >= max(c.duration for c in root.children)

    def test_sequential_roots(self, registry):
        with registry.span("a"):
            pass
        with registry.span("b"):
            pass
        assert [s.name for s in registry.spans] == ["a", "b"]

    def test_span_closed_on_exception(self, registry):
        with pytest.raises(RuntimeError):
            with registry.span("broken"):
                raise RuntimeError("boom")
        (root,) = registry.spans
        assert root.duration > 0
        # The stack unwound: a new span is a root, not a child of "broken".
        with registry.span("after"):
            pass
        assert [s.name for s in registry.spans] == ["broken", "after"]


class TestExport:
    def _populate(self, registry):
        registry.inc("c", 3)
        registry.set_gauge("g", 2.5)
        registry.observe("h", 1)
        registry.observe("h", 0.25)
        with registry.span("root", seed=1):
            with registry.span("leaf"):
                pass

    def test_json_roundtrip(self, tmp_path):
        registry = telemetry.Registry(preregister_catalog=False)
        self._populate(registry)
        path = tmp_path / "profile.json"
        telemetry.write_profile(registry, path, meta={"k": "v"})
        profile = telemetry.read_profile(path)
        assert profile["meta"] == {"k": "v"}
        assert profile["counters"] == {"c": 3}
        assert profile["gauges"] == {"g": 2.5}
        assert profile["histograms"]["h"]["count"] == 2
        (root,) = profile["spans"]
        assert root["name"] == "root"
        assert root["children"][0]["name"] == "leaf"

    def test_format_profile_renders_tables(self):
        registry = telemetry.Registry(preregister_catalog=False)
        self._populate(registry)
        text = telemetry.format_profile(
            telemetry.profile_dict(registry, meta={"program": "x"}))
        assert "phase" in text and "root" in text and "  leaf" in text
        assert "counter" in text and "c" in text
        assert "histogram" in text


class TestEndToEnd:
    def test_diagnose_records_expected_metrics(self, tinybug):
        config = ACTConfig(seq_len=3, check_window=20)
        registry = telemetry.Registry()
        with telemetry.use_registry(registry):
            report = diagnose_failure(tinybug, config=config,
                                      n_train_runs=4, n_pruning_runs=4)
        assert report.found
        snap = registry.snapshot()
        counters = snap["counters"]
        assert counters["act.deps_processed"] > 0
        assert counters["act.invalid_predictions"] >= 1
        assert counters["debug_buffer.logged"] >= 1
        assert counters["diagnose.deps_observed"] == report.n_deps
        assert counters["diagnose.invalids_flagged"] == report.n_invalid
        assert counters["diagnose.found"] == 1
        assert counters["offline.correct_runs"] == 8  # 4 train + 4 pruning
        assert counters["sched.runs"] == 9            # + the failure run

        (root,) = snap["spans"]
        assert root["name"] == "diagnose"
        phases = [c["name"] for c in root["children"]]
        assert phases == ["diagnose.offline_train", "diagnose.failure_run",
                          "diagnose.deploy", "diagnose.pruning_runs",
                          "diagnose.ranking"]

    def test_disabled_run_identical_and_silent(self, tinybug):
        config = ACTConfig(seq_len=3, check_window=20)
        registry = telemetry.Registry()
        with telemetry.use_registry(registry):
            enabled = diagnose_failure(tinybug, config=config,
                                       n_train_runs=4, n_pruning_runs=4)
        disabled = diagnose_failure(tinybug, config=config,
                                    n_train_runs=4, n_pruning_runs=4)
        assert (enabled.found, enabled.rank, enabled.n_deps,
                enabled.n_invalid, enabled.filter_pct) == \
               (disabled.found, disabled.rank, disabled.n_deps,
                disabled.n_invalid, disabled.filter_pct)
        null_snap = telemetry.get_registry().snapshot()
        assert null_snap["counters"] == {}
        assert null_snap["spans"] == []

    def test_simulator_metrics(self, tinybug, trained_tinybug):
        from repro.sim.machine import simulate_run
        from repro.workloads.framework import run_program

        run = run_program(tinybug, seed=3, buggy=False)
        registry = telemetry.Registry()
        with telemetry.use_registry(registry):
            result = simulate_run(run, trained=trained_tinybug)
        counters = registry.snapshot()["counters"]
        assert counters["sim.runs"] == 1
        assert counters["sim.cycles"] == result.cycles
        assert counters["sim.deps_offered"] == result.deps_offered
        assert counters["sim.cache.loads"] > 0
        occupancy = registry.histogram("sim.fifo_occupancy")
        assert occupancy.count == result.deps_offered
