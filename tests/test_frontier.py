"""The adaptive-overhead frontier sweep and its seed-pinned golden.

Mirrors the shootout conventions: a small seed-pinned sweep shared by
the golden test and CI's frontier-smoke job, canonical-JSON byte
identity, serial == ``--jobs 4``, and the timestamp-free accuracy
trajectory deduped per (experiment, spec). The full-rate column is
checked against the corpus harness on the same corpus.
"""

import json
import pathlib

import pytest

from repro.common.errors import ConfigError
from repro.core.policy import NULL_POLICY
from repro.analysis.accuracy import (
    CorpusSpec,
    append_trajectory,
    metrics_json,
    run_corpus,
)
from repro.analysis.frontier import FrontierSpec, format_frontier, run_frontier

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# The seed-pinned sweep shared by the golden test and CI's
# frontier-smoke job (.github/workflows/ci.yml): small enough for
# tier-1, wide enough for a real baseline-vs-sampled comparison.
FRONT = FrontierSpec(seed=7, size=5, rates=(1.0, 0.5), fifo_sizes=(4, 16),
                     n_train_runs=4, n_pruning_runs=6)


@pytest.fixture(scope="session")
def small_frontier():
    return run_frontier(FRONT)


class TestFrontierSpec:
    def test_rates_normalized_and_baseline_always_present(self):
        spec = FrontierSpec(rates=(0.5, 0.25, 0.5))
        assert spec.rates == (1.0, 0.5, 0.25)
        assert FrontierSpec(rates=()).rates == (1.0,)

    def test_fifo_sizes_sorted_deduped(self):
        assert FrontierSpec(fifo_sizes=(16, 4, 16)).fifo_sizes == (4, 16)

    @pytest.mark.parametrize("kwargs", [
        dict(rates=(0.0,)), dict(rates=(1.5,)),
        dict(fifo_sizes=()), dict(fifo_sizes=(0,)),
    ])
    def test_bad_spec_raises_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            FrontierSpec(**kwargs)

    def test_policy_for_full_rate_is_null(self):
        spec = FrontierSpec(rates=(1.0, 0.5), backoff=True)
        assert spec.policy_for(1.0) is NULL_POLICY
        policy = spec.policy_for(0.5)
        assert policy.enabled and policy.rate == 0.5 and policy.backoff

    def test_fingerprint_is_json_safe(self):
        json.dumps(FRONT.fingerprint())


@pytest.mark.slow
class TestFrontierGolden:
    def _check(self, path, text, update):
        if update:
            path.write_text(text, encoding="utf-8")
            pytest.skip(f"updated {path.name}")
        assert path.exists(), (
            f"golden file {path} missing; run pytest --update-golden")
        assert text == path.read_text(encoding="utf-8")

    def test_metrics_json_matches_golden(self, small_frontier,
                                         update_golden):
        self._check(GOLDEN_DIR / "frontier_s7.json",
                    metrics_json(small_frontier), update_golden)

    def test_metrics_json_is_canonical(self, small_frontier):
        text = metrics_json(small_frontier)
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_serial_vs_jobs_4_byte_identical(self, small_frontier):
        parallel = run_frontier(FRONT, jobs=4)
        assert metrics_json(parallel) == metrics_json(small_frontier)


@pytest.mark.slow
class TestFrontierMetrics:
    def test_every_sweep_point_present(self, small_frontier):
        points = small_frontier.metrics["points"]
        assert {(p["rate"], p["fifo"]) for p in points} == {
            (r, f) for r in FRONT.rates for f in FRONT.fifo_sizes}

    def test_full_rate_baseline_ratios_are_one(self, small_frontier):
        for p in small_frontier.metrics["points"]:
            if p["rate"] >= 1.0:
                assert p["overhead_vs_full"] == 1.0
                assert p["deps_shed"] == 0

    def test_sampling_reduces_the_overhead_proxy(self, small_frontier):
        points = small_frontier.metrics["points"]
        by_key = {(p["rate"], p["fifo"]): p for p in points}
        for fifo in FRONT.fifo_sizes:
            sampled = by_key[(0.5, fifo)]
            assert sampled["deps_shed"] > 0
            assert (sampled["overhead_proxy"]
                    < by_key[(1.0, fifo)]["overhead_proxy"])

    def test_pareto_front_is_non_dominated(self, small_frontier):
        points = small_frontier.metrics["points"]
        front = [p for p in points if p["pareto"]]
        assert front
        for p in front:
            for q in points:
                if q is p:
                    continue
                assert not (
                    q["overhead_proxy"] <= p["overhead_proxy"]
                    and (q["top1"] or 0.0) >= (p["top1"] or 0.0)
                    and (q["overhead_proxy"] < p["overhead_proxy"]
                         or (q["top1"] or 0.0) > (p["top1"] or 0.0)))
        listed = {tuple(rf) for rf in small_frontier.metrics["pareto"]}
        assert listed == {(p["rate"], p["fifo"]) for p in front}

    def test_summary_pick_is_a_swept_point(self, small_frontier):
        s = small_frontier.metrics["frontier"]
        assert (s["rate"], s["fifo"]) in {
            (p["rate"], p["fifo"])
            for p in small_frontier.metrics["points"]}
        # Ratios against the full-rate baseline, so gateable anywhere.
        assert s["overhead_proxy"] is None or 0 < s["overhead_proxy"] <= 1.0

    def test_table_renders_every_point_and_the_pick(self, small_frontier):
        text = format_frontier(small_frontier)
        assert text.splitlines()[0] == (
            "Adaptive-overhead frontier (seed 7, 5 programs)")
        assert text.count("\n") >= len(small_frontier.metrics["points"])
        assert "frontier pick: rate" in text

    def test_bench_append_and_dedupe(self, small_frontier, tmp_path):
        path = tmp_path / "BENCH_accuracy.json"
        doc = append_trajectory(small_frontier.entry, str(path))
        assert doc["schema"] == 1
        assert doc["entries"] == [small_frontier.entry]
        again = append_trajectory(small_frontier.entry, str(path))
        assert again["entries"] == doc["entries"]
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk == doc
        entry = doc["entries"][0]
        assert entry["experiment"] == "frontier"
        assert "timestamp" not in entry
        assert "frontier" in entry and "pareto" in entry

    def test_trajectory_dedupes_per_experiment_and_spec(self, small_frontier,
                                                        tmp_path):
        # A shootout entry as ``repro shootout`` writes it: no
        # "experiment" field, which reads as "shootout".
        shootout = {"seed": 7, "size": 5, "n_train_runs": 4,
                    "n_pruning_runs": 6,
                    "engines": {"nn": {"recall": 1.0, "top1": 1.0,
                                       "top5": 1.0}}}
        path = tmp_path / "BENCH_accuracy.json"
        append_trajectory(shootout, str(path))
        append_trajectory(small_frontier.entry, str(path))
        first = path.read_bytes()
        # Re-running the pair must not grow the file, although neither
        # entry is the last one when its re-run appends.
        append_trajectory(shootout, str(path))
        doc = append_trajectory(small_frontier.entry, str(path))
        assert path.read_bytes() == first
        assert len(doc["entries"]) == 2
        # A changed result under the same key is a new entry.
        changed = dict(shootout, engines={"nn": {"recall": 0.8,
                                                 "top1": 0.8, "top5": 0.8}})
        doc = append_trajectory(changed, str(path))
        assert doc["entries"][-1] == changed
        assert len(doc["entries"]) == 3


@pytest.mark.slow
def test_full_rate_column_equals_the_corpus_harness(small_frontier):
    """The frontier's rate-1.0 accuracy is the diagnosis pipeline: it
    equals ``repro corpus`` on the same programs."""
    corpus = run_corpus(CorpusSpec(
        seed=FRONT.seed, size=FRONT.size, top_k=FRONT.top_k,
        n_train_runs=FRONT.n_train_runs,
        n_pruning_runs=FRONT.n_pruning_runs))
    assert small_frontier.metrics["accuracy"]["1"] == (
        corpus.metrics["overall"])
