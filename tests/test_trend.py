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


def _payload(speedup=3.0):
    return {
        "preset": "fast",
        "replay": {"deps_per_sec": 5e4},
        "host": {"ref_s": 0.05},
        "parallel": {"corpus_speedup": speedup},
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
        assert trend.get_metric(payload, "parallel.corpus_speedup") == 4.5
        assert trend.get_metric(payload, "replay.missing") is None
        assert trend.get_metric(payload, "nope.deep.er") is None

    def test_entry_records_gated_and_tracked(self):
        entry = trend.make_entry(_payload(), timestamp=42.0, source="ci")
        assert entry["timestamp"] == 42.0
        assert entry["source"] == "ci"
        assert entry["metrics"]["parallel.corpus_speedup"] == 3.0
        assert entry["metrics"]["host.ref_s"] == 0.05
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
        # A gated ratio dropping past its threshold (50% here) must
        # fail the run (the CI contract).
        _run(tmp_path, _payload(speedup=3.0))
        rc, text = _run(tmp_path, _payload(speedup=1.2))
        assert rc == 1
        assert "REGRESSION" in text and "parallel.corpus_speedup" in text

    def test_small_change_passes(self, tmp_path):
        _run(tmp_path, _payload(speedup=3.0))
        rc, text = _run(tmp_path, _payload(speedup=2.7))
        assert rc == 0
        assert "trend OK" in text

    def test_improvement_passes(self, tmp_path):
        _run(tmp_path, _payload(speedup=3.0))
        rc, _ = _run(tmp_path, _payload(speedup=9.0))
        assert rc == 0

    def test_threshold_is_configurable(self, tmp_path, monkeypatch):
        # A gate that sets no threshold of its own takes the run's.
        monkeypatch.setitem(trend.GATED_METRICS, "parallel.corpus_speedup",
                            {"direction": "higher"})
        _run(tmp_path, _payload(speedup=3.0))
        rc, _ = _run(tmp_path, _payload(speedup=2.5), threshold=0.10)
        assert rc == 1

    def test_absolute_throughput_is_not_gated(self, tmp_path):
        # Same ratios on a machine 10x slower: records, does not fail.
        fast_box = _payload()
        slow_box = _payload()
        slow_box["replay"]["deps_per_sec"] = 5e3
        _run(tmp_path, fast_box)
        rc, _ = _run(tmp_path, slow_box)
        assert rc == 0

    def test_sim_accesses_are_tracked_not_gated(self, tmp_path):
        fast_box = _payload()
        fast_box["sim"] = {"accesses_per_sec": 4e5}
        slow_box = _payload()
        slow_box["sim"] = {"accesses_per_sec": 4e4}
        _run(tmp_path, fast_box)
        rc, _ = _run(tmp_path, slow_box)
        assert rc == 0
        entry = trend.load_history(tmp_path / "hist.jsonl")[-1]
        assert entry["metrics"]["sim.accesses_per_sec"] == 4e4
        assert "sim.accesses_per_sec" not in trend.GATED_METRICS

    def test_new_gated_metric_skips_first_comparison(self, tmp_path):
        old = _payload()
        del old["parallel"]  # a history entry from before the metric
        _run(tmp_path, old)
        rc, _ = _run(tmp_path, _payload())
        assert rc == 0

    @staticmethod
    def _wall(wall_s, ref_s):
        payload = _payload()
        payload["corpus_wall_seconds"] = wall_s
        if ref_s is None:
            del payload["host"]
        else:
            payload["host"]["ref_s"] = ref_s
        return payload

    def test_slower_host_with_the_same_wall_ratio_passes(self, tmp_path):
        # Twice the wall time on a host whose reference loop is twice
        # as slow: the code did not change.
        _run(tmp_path, self._wall(1.0, 0.02))
        rc, text = _run(tmp_path, self._wall(2.0, 0.04))
        assert rc == 0
        assert "trend OK" in text

    def test_same_host_at_twice_the_wall_time_fails(self, tmp_path):
        _run(tmp_path, self._wall(1.0, 0.02))
        rc, text = _run(tmp_path, self._wall(2.0, 0.02))
        assert rc == 1
        assert ("REGRESSION: corpus_wall_seconds / host.ref_s worsened "
                "100.0%") in text

    @pytest.mark.parametrize("old_ref,new_ref,where", [
        (None, 0.02, "every previous entry"),
        (0.02, None, "current entry"),
    ])
    def test_wall_time_without_host_ref_is_skipped(self, tmp_path, old_ref,
                                                   new_ref, where):
        _run(tmp_path, self._wall(1.0, old_ref))
        rc, text = _run(tmp_path, self._wall(3.0, new_ref))
        assert rc == 0
        assert (f"gate skipped: corpus_wall_seconds "
                f"(host.ref_s absent from {where})") in text

    def test_one_noisy_entry_does_not_set_the_bar(self, tmp_path):
        # Steady 3.0-3.2 wall ratios, one fast outlier at 1.5: the next
        # steady run is +100% against the outlier alone, but within the
        # 50% gate against the median of the last three entries.
        for wall in (3.0, 3.2, 1.5):
            _run(tmp_path, self._wall(wall, 1.0))
        rc, text = _run(tmp_path, self._wall(3.1, 1.0))
        assert rc == 0
        assert "trend OK" in text and "median of the last 3" in text

    def test_real_regression_still_fails_after_a_noisy_entry(
            self, tmp_path):
        for wall in (3.0, 3.2, 1.5):
            _run(tmp_path, self._wall(wall, 1.0))
        rc, text = _run(tmp_path, self._wall(6.0, 1.0))  # 2x the median
        assert rc == 1
        assert ("REGRESSION: corpus_wall_seconds / host.ref_s worsened "
                "100.0% (3.0 -> 6.0)") in text

    def test_baseline_is_the_median_of_the_last_three(self):
        history = [trend.make_entry(_payload(speedup=s), timestamp=0.0)
                   for s in (0.5, 4.0, 2.0, 3.0)]
        cur = trend.make_entry(_payload(speedup=1.0), timestamp=1.0)
        (reg,) = trend.check_regressions(history, cur)
        assert reg["previous"] == 3.0  # median of 4.0, 2.0, 3.0
        (reg,) = trend.check_regressions(history[-2:], cur)
        assert reg["previous"] == 2.5  # fewer entries: their median

    def test_check_regressions_reports_both_values(self):
        prev = trend.make_entry(_payload(speedup=4.0), timestamp=0.0)
        cur = trend.make_entry(_payload(speedup=1.0), timestamp=1.0)
        (reg,) = trend.check_regressions([prev], cur)
        assert reg["metric"] == "parallel.corpus_speedup"
        assert reg["previous"] == 4.0 and reg["current"] == 1.0
        assert reg["drop"] == pytest.approx(0.75)

    def test_real_bench_payload_round_trips(self, tmp_path):
        # The actual benchmark output shape (see bench_throughput.py)
        # feeds the gate without modification.
        payload = {
            "preset": "fast",
            "replay": {"program": "lu", "n_deps": 6400,
                       "seconds": 0.12, "deps_per_sec": 5.3e4,
                       "mode_switches": 0},
            "host": {"ref_s": 0.051},
            "parallel": {"corpus_size": 6, "jobs": 2,
                         "serial_seconds": 0.42, "parallel_seconds": 0.3,
                         "corpus_speedup": 1.4},
        }
        rc, _ = _run(tmp_path, payload)
        assert rc == 0
        (entry,) = trend.load_history(tmp_path / "hist.jsonl")
        assert entry["metrics"]["parallel.corpus_speedup"] == 1.4
        assert entry["metrics"]["host.ref_s"] == 0.051


def _full_payload(speedup=3.0, wall=5.0, overhead=0.5, top1=1.0):
    payload = _payload(speedup=speedup)
    payload["corpus_wall_seconds"] = wall
    payload["frontier"] = {"rate": 0.5, "fifo": 4,
                           "overhead_proxy": overhead, "top1": top1,
                           "recall": 1.0}
    payload["telemetry"] = {"null_seconds": 0.5, "live_seconds": 0.51,
                            "overhead_pct": 2.0}
    payload["execution"] = {"runs_per_sec": 4e3, "events_per_sec": 2e5,
                            "deps_per_sec": 8e4}
    payload["startup"] = {"rounds": 5, "diagnose_cpu_s": 0.3,
                          "version_cpu_s": 0.06, "numpy_cpu_s": 0.12}
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
        # The run default (30%) does not apply: the corpus fan-out gate
        # only trips on a collapse beyond its own 50% threshold.
        _run(tmp_path, _full_payload(speedup=1.0))
        rc, _ = _run(tmp_path, _full_payload(speedup=0.6))  # -40% < 50%
        assert rc == 0
        rc, text = _run(tmp_path, _full_payload(speedup=0.2))  # -67% > 50%
        assert rc == 1
        assert "parallel.corpus_speedup" in text and "50%" in text

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
        regs = trend.check_regressions([prev], cur, skips=skips)
        assert regs == []
        skipped = {s["metric"] for s in skips}
        assert "corpus_wall_seconds" in skipped
        assert "frontier.top1" in skipped

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

    @pytest.mark.parametrize("path, worse_value", [
        pytest.param("frontier.recall", 0.1, id="frontier.recall"),
        pytest.param("telemetry.overhead_pct", 40.0,
                     id="telemetry.overhead_pct"),
        pytest.param("execution.events_per_sec", 2e4,
                     id="execution.events_per_sec"),
        pytest.param("host.ref_s", 0.5, id="host.ref_s"),
        pytest.param("startup.diagnose_cpu_s", 3.0,
                     id="startup.diagnose_cpu_s"),
        pytest.param("startup.version_cpu_s", 0.6,
                     id="startup.version_cpu_s"),
        pytest.param("startup.numpy_cpu_s", 1.2, id="startup.numpy_cpu_s"),
    ])
    def test_tracked_metric_is_not_gated(self, tmp_path, path, worse_value):
        _run(tmp_path, _full_payload())
        worse = _full_payload()
        section, key = path.split(".")
        worse[section][key] = worse_value
        rc, _ = _run(tmp_path, worse)
        assert rc == 0
        entries = trend.load_history(tmp_path / "hist.jsonl")
        assert entries[-1]["metrics"][path] == worse_value

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
