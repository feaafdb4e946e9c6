"""Perf-trend harness (benchmarks/trend.py): history + regression gate."""

import importlib.util
import io
import json
import pathlib

import pytest

_TREND_PATH = pathlib.Path(__file__).parent.parent / "benchmarks" / "trend.py"
_spec = importlib.util.spec_from_file_location("trend", _TREND_PATH)
trend = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trend)


def _payload(speedup=3.0, warm=2.0):
    return {
        "preset": "fast",
        "replay": {"speedup": speedup, "batched_deps_per_sec": 1e6,
                   "scalar_deps_per_sec": 1e6 / speedup},
        "parallel": {"speedup_warm": warm, "speedup_cold": warm / 2},
    }


def _run(tmp_path, payload, name="bench.json", history="hist.jsonl",
         **kwargs):
    bench = tmp_path / name
    bench.write_text(json.dumps(payload), encoding="utf-8")
    out = io.StringIO()
    rc = trend.run_trend(bench, tmp_path / history, timestamp=0.0,
                         out=out, **kwargs)
    return rc, out.getvalue()


class TestMetrics:
    def test_get_metric_resolves_dotted_paths(self):
        payload = _payload(speedup=4.5)
        assert trend.get_metric(payload, "replay.speedup") == 4.5
        assert trend.get_metric(payload, "replay.missing") is None
        assert trend.get_metric(payload, "nope.deep.er") is None

    def test_entry_records_gated_and_tracked(self):
        entry = trend.make_entry(_payload(), timestamp=42.0, source="ci")
        assert entry["timestamp"] == 42.0
        assert entry["source"] == "ci"
        assert entry["metrics"]["replay.speedup"] == 3.0
        assert entry["metrics"]["parallel.speedup_warm"] == 2.0
        assert "parallel.speedup_cold" in entry["metrics"]
        assert "host_cpus" not in entry

    def test_entry_records_host_cpus(self):
        entry = trend.make_entry(dict(_payload(), host_cpus=2))
        assert entry["host_cpus"] == 2


class TestHistory:
    def test_first_run_appends_and_passes(self, tmp_path):
        rc, text = _run(tmp_path, _payload())
        assert rc == 0
        assert "nothing to gate against" in text
        entries = trend.load_history(tmp_path / "hist.jsonl")
        assert len(entries) == 1

    def test_missing_history_is_empty(self, tmp_path):
        assert trend.load_history(tmp_path / "nope.jsonl") == []

    def test_every_run_appends(self, tmp_path):
        for _ in range(3):
            _run(tmp_path, _payload())
        assert len(trend.load_history(tmp_path / "hist.jsonl")) == 3


class TestGate:
    def test_synthetic_regression_fails(self, tmp_path):
        # >30% drop in a gated ratio must fail the run (the CI contract).
        _run(tmp_path, _payload(speedup=3.0))
        rc, text = _run(tmp_path, _payload(speedup=1.5))
        assert rc == 1
        assert "REGRESSION" in text and "replay.speedup" in text

    def test_small_change_passes(self, tmp_path):
        _run(tmp_path, _payload(speedup=3.0, warm=2.0))
        rc, text = _run(tmp_path, _payload(speedup=2.7, warm=1.9))
        assert rc == 0
        assert "trend OK" in text

    def test_improvement_passes(self, tmp_path):
        _run(tmp_path, _payload(speedup=3.0))
        rc, _ = _run(tmp_path, _payload(speedup=9.0))
        assert rc == 0

    def test_threshold_is_configurable(self, tmp_path):
        _run(tmp_path, _payload(speedup=3.0))
        rc, _ = _run(tmp_path, _payload(speedup=2.5), threshold=0.10)
        assert rc == 1

    def test_absolute_throughput_is_not_gated(self, tmp_path):
        # Same ratios on a machine 10x slower: records, does not fail.
        fast_box = _payload()
        slow_box = _payload()
        slow_box["replay"]["batched_deps_per_sec"] = 1e5
        slow_box["replay"]["scalar_deps_per_sec"] = 1e5 / 3.0
        _run(tmp_path, fast_box)
        rc, _ = _run(tmp_path, slow_box)
        assert rc == 0

    def test_new_gated_metric_skips_first_comparison(self, tmp_path):
        old = _payload()
        del old["parallel"]  # a history entry from before the metric
        _run(tmp_path, old)
        rc, _ = _run(tmp_path, _payload())
        assert rc == 0

    def test_check_regressions_reports_both_values(self):
        prev = trend.make_entry(_payload(speedup=4.0), timestamp=0.0)
        cur = trend.make_entry(_payload(speedup=2.0), timestamp=1.0)
        (reg,) = trend.check_regressions(prev, cur)
        assert reg["metric"] == "replay.speedup"
        assert reg["previous"] == 4.0 and reg["current"] == 2.0
        assert reg["drop"] == pytest.approx(0.5)

    def test_real_bench_payload_round_trips(self, tmp_path):
        # The actual benchmark output shape (see bench_throughput.py)
        # feeds the gate without modification.
        payload = {
            "preset": "fast",
            "replay": {"speedup": 3.2, "batched_deps_per_sec": 2.1e6,
                       "scalar_deps_per_sec": 6.5e5},
            "parallel": {"speedup": 1.4, "speedup_cold": 1.4,
                         "speedup_warm": 2.8,
                         "pool_startup_seconds": 0.12},
        }
        rc, _ = _run(tmp_path, payload)
        assert rc == 0
        (entry,) = trend.load_history(tmp_path / "hist.jsonl")
        assert entry["metrics"]["parallel.speedup_warm"] == 2.8


def _full_payload(speedup=3.0, pspeed=0.9, wall=5.0, overhead=0.5,
                  top1=1.0):
    payload = _payload(speedup=speedup)
    payload["parallel"]["speedup"] = pspeed
    payload["corpus_wall_seconds"] = wall
    payload["frontier"] = {"rate": 0.5, "fifo": 4,
                           "overhead_proxy": overhead, "top1": top1,
                           "recall": 1.0}
    return payload


class TestDirectionalGates:
    def test_wall_time_rise_within_threshold_passes(self, tmp_path):
        _run(tmp_path, _full_payload(wall=5.0))
        rc, text = _run(tmp_path, _full_payload(wall=7.0))  # +40% < 50%
        assert rc == 0
        assert "trend OK" in text

    def test_wall_time_collapse_fails(self, tmp_path):
        _run(tmp_path, _full_payload(wall=5.0))
        rc, text = _run(tmp_path, _full_payload(wall=8.0))  # +60% > 50%
        assert rc == 1
        assert "corpus_wall_seconds" in text

    def test_wall_time_improvement_passes(self, tmp_path):
        _run(tmp_path, _full_payload(wall=5.0))
        rc, _ = _run(tmp_path, _full_payload(wall=2.0))
        assert rc == 0

    def test_parallel_speedup_gate_is_widened(self, tmp_path):
        # The run default (30%) does not apply: the warm-pool gate only
        # trips on a collapse beyond its own 50% threshold.
        _run(tmp_path, _full_payload(pspeed=1.0))
        rc, _ = _run(tmp_path, _full_payload(pspeed=0.6))  # -40% < 50%
        assert rc == 0
        rc, text = _run(tmp_path, _full_payload(pspeed=0.2))  # -67% > 50%
        assert rc == 1
        assert "parallel.speedup" in text and "50%" in text

    def test_absent_gated_metric_logs_a_skip(self, tmp_path):
        _run(tmp_path, _full_payload())
        missing = _full_payload()
        del missing["corpus_wall_seconds"]
        rc, text = _run(tmp_path, missing)
        assert rc == 0
        assert "gate skipped: corpus_wall_seconds" in text
        assert "current entry" in text

    def test_check_regressions_collects_skip_reasons(self):
        prev = trend.make_entry(_payload(), timestamp=0.0)
        cur = trend.make_entry(_full_payload(), timestamp=1.0)
        skips = []
        regs = trend.check_regressions(prev, cur, skips=skips)
        assert regs == []
        skipped = {s["metric"] for s in skips}
        assert "corpus_wall_seconds" in skipped
        assert "parallel.speedup" in skipped

    def test_frontier_overhead_growth_fails(self, tmp_path):
        # The pick suddenly costing >50% more of full-rate overhead
        # means sampling stopped paying for itself.
        _run(tmp_path, _full_payload(overhead=0.5))
        rc, _ = _run(tmp_path, _full_payload(overhead=0.7))  # +40% < 50%
        assert rc == 0
        _run(tmp_path, _full_payload(overhead=0.5), history="h2.jsonl")
        rc, text = _run(tmp_path, _full_payload(overhead=0.8),  # +60%
                        history="h2.jsonl")
        assert rc == 1
        assert "frontier.overhead_proxy" in text

    def test_frontier_top1_collapse_fails(self, tmp_path):
        _run(tmp_path, _full_payload(top1=1.0))
        rc, _ = _run(tmp_path, _full_payload(top1=0.8))  # -20% < 25%
        assert rc == 0
        _run(tmp_path, _full_payload(top1=1.0), history="h2.jsonl")
        rc, text = _run(tmp_path, _full_payload(top1=0.6),  # -40% > 25%
                        history="h2.jsonl")
        assert rc == 1
        assert "frontier.top1" in text

    def test_frontier_recall_is_tracked_not_gated(self, tmp_path):
        _run(tmp_path, _full_payload())
        worse = _full_payload()
        worse["frontier"]["recall"] = 0.1
        rc, _ = _run(tmp_path, worse)
        assert rc == 0
        entries = trend.load_history(tmp_path / "hist.jsonl")
        assert entries[-1]["metrics"]["frontier.recall"] == 0.1

    def test_unavailable_gate_is_logged_every_run(self, tmp_path):
        # A gated metric the payload never produced must be called out
        # even on the very first run (no history yet): silence here is
        # how gates die without anyone noticing.
        rc, text = _run(tmp_path, _payload())
        assert rc == 0
        assert ("gate unavailable: corpus_wall_seconds "
                "(not in bench payload)") in text
        assert "gate unavailable: frontier.top1" in text
        assert "gate unavailable: frontier.overhead_proxy" in text
        # A full payload leaves nothing unavailable.
        rc, text = _run(tmp_path, _full_payload())
        assert rc == 0
        assert "gate unavailable" not in text
