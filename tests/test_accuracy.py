"""Tests for the corpus accuracy harness.

Three layers: metric math on synthetic records (fast unit tests),
byte-level golden-file regression on a small fixed-seed corpus, and the
seed-determinism audit (serial vs ``--jobs 4`` vs a second invocation
in the same process). The full 20-program acceptance corpus is marked
``corpus`` and runs only with ``--run-corpus``.
"""

import json
import pathlib

import pytest

from repro.analysis.accuracy import (
    CorpusSpec,
    corpus_metrics,
    corpus_programs,
    format_corpus,
    metrics_json,
    run_corpus,
)
from repro.faults import FaultPlan, Quarantine

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# Small enough for tier-1, large enough to cover four archetypes.
SMALL = CorpusSpec(seed=3, size=4, n_train_runs=4, n_pruning_runs=6)


@pytest.fixture(scope="session")
def small_corpus():
    return run_corpus(SMALL)


def record(archetype="order", motif="regular", found=True, rank=1,
           n_findings=3, hits=(1, 0, 0), status=None, failed=True):
    return {
        "program": f"gen-{archetype}-{motif}-s1", "seed": 1,
        "archetype": archetype, "motif": motif,
        "status": status or ("diagnosed" if found else "missed"),
        "failed": failed, "found": found, "rank": rank,
        "n_findings": n_findings, "finding_hits": list(hits),
        "debug_buffer_position": rank, "debug_overflowed": False,
        "filter_pct": 50.0, "n_deps": 10, "n_invalid": 1,
    }


class TestMetricMath:
    def test_overall_counts(self):
        records = [record(rank=1), record(rank=3),
                   record(found=False, rank=None, hits=(0, 0, 0))]
        m = corpus_metrics(SMALL, records)["overall"]
        assert m["n_programs"] == 3
        assert m["n_found"] == 2
        assert m["recall"] == pytest.approx(2 / 3)
        assert m["top1"] == pytest.approx(1 / 3)
        assert m["top5"] == pytest.approx(2 / 3)
        assert m["mean_rank"] == pytest.approx(2.0)
        assert m["median_rank"] == pytest.approx(2.0)
        assert m["precision_at_k"] == pytest.approx(2 / 9)

    def test_rank_beyond_k_counts_for_recall_not_topk(self):
        m = corpus_metrics(SMALL, [record(rank=9)])["overall"]
        assert m["recall"] == 1.0
        assert m["top1"] == 0.0
        assert m["top5"] == 0.0

    def test_quarantined_scores_as_miss(self):
        records = [record(),
                   record(archetype="atomicity", found=False, rank=None,
                          n_findings=0, hits=(), status="quarantined",
                          failed=False)]
        m = corpus_metrics(SMALL, records)
        assert m["overall"]["n_quarantined"] == 1
        assert m["overall"]["recall"] == pytest.approx(0.5)
        assert m["by_archetype"]["atomicity"]["recall"] == 0.0

    def test_empty_group_yields_none_not_crash(self):
        records = [record(found=False, rank=None, n_findings=0, hits=())]
        m = corpus_metrics(SMALL, records)["overall"]
        assert m["mean_rank"] is None
        assert m["median_rank"] is None
        assert m["precision_at_k"] is None

    def test_per_archetype_and_motif_partitions(self):
        records = [record(archetype="order", motif="regular"),
                   record(archetype="off_by_one", motif="pipeline",
                          found=False, rank=None, hits=(0, 0, 0))]
        m = corpus_metrics(SMALL, records)
        assert set(m["by_archetype"]) == {"order", "off_by_one"}
        assert set(m["by_motif"]) == {"regular", "pipeline"}
        assert m["by_archetype"]["order"]["recall"] == 1.0
        assert m["by_archetype"]["off_by_one"]["recall"] == 0.0


class TestCorpusPrograms:
    def test_round_robin_covers_all_archetypes(self):
        specs = corpus_programs(CorpusSpec(seed=7, size=10))
        assert [s.archetype for s in specs[:5]] == list(
            CorpusSpec().archetypes)
        assert len({s.name for s in specs}) == 10

    def test_item_seeds_are_deterministic(self):
        a = corpus_programs(CorpusSpec(seed=7, size=6))
        b = corpus_programs(CorpusSpec(seed=7, size=6))
        assert a == b

    def test_different_corpus_seeds_differ(self):
        a = corpus_programs(CorpusSpec(seed=7, size=6))
        b = corpus_programs(CorpusSpec(seed=8, size=6))
        assert [s.seed for s in a] != [s.seed for s in b]

    def test_prefix_stability(self):
        # Growing a corpus keeps the existing programs unchanged.
        small = corpus_programs(CorpusSpec(seed=7, size=4))
        large = corpus_programs(CorpusSpec(seed=7, size=8))
        assert large[:4] == small


class TestGoldenFiles:
    def _check(self, path, text, update):
        if update:
            path.write_text(text, encoding="utf-8")
            pytest.skip(f"updated {path.name}")
        assert path.exists(), (
            f"golden file {path} missing; run pytest --update-golden")
        assert text == path.read_text(encoding="utf-8")

    def test_metrics_json_matches_golden(self, small_corpus, update_golden):
        self._check(GOLDEN_DIR / "corpus_metrics.json",
                    metrics_json(small_corpus), update_golden)

    def test_report_text_matches_golden(self, small_corpus, update_golden):
        self._check(GOLDEN_DIR / "corpus_report.txt",
                    format_corpus(small_corpus) + "\n", update_golden)

    def test_metrics_json_is_canonical(self, small_corpus):
        text = metrics_json(small_corpus)
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.slow
class TestSeedDeterminism:
    """The audit: same (seed, size) => byte-identical metrics JSON."""

    def test_second_invocation_same_process(self, small_corpus):
        again = run_corpus(SMALL)
        assert metrics_json(again) == metrics_json(small_corpus)
        assert again.records == small_corpus.records

    def test_serial_vs_jobs_4(self, small_corpus):
        parallel = run_corpus(SMALL, jobs=4)
        assert metrics_json(parallel) == metrics_json(small_corpus)
        assert parallel.records == small_corpus.records


@pytest.mark.slow
class TestResilienceComposition:
    def test_faulted_programs_quarantine_as_misses(self):
        from dataclasses import replace

        tiny = replace(SMALL, size=2)
        # Training runs that keep too few events give no sequences to
        # train on: that diagnosis raises and its program is quarantined.
        plan = FaultPlan.from_spec("seed=5,trace_drop=0.9")
        quarantine = Quarantine()
        result = run_corpus(tiny, faults=plan, quarantine=quarantine)
        overall = result.metrics["overall"]
        assert overall["n_quarantined"] == len(quarantine) > 0
        assert overall["n_found"] + overall["n_quarantined"] <= 2
        assert result.quarantine["n_quarantined"] == len(quarantine)
        statuses = {r["status"] for r in result.records}
        assert "quarantined" in statuses


@pytest.mark.corpus
class TestAcceptanceCorpus:
    """The ISSUE's acceptance run: repro corpus --seed 7 --size 20."""

    def test_full_corpus_end_to_end(self):
        spec = CorpusSpec(seed=7, size=20)
        serial = run_corpus(spec)
        parallel = run_corpus(spec, jobs=4)
        assert metrics_json(serial) == metrics_json(parallel)
        overall = serial.metrics["overall"]
        assert overall["n_programs"] == 20
        assert overall["recall"] >= 0.7
        assert overall["mean_rank"] is not None
        assert set(serial.metrics["by_archetype"]) == set(
            CorpusSpec().archetypes)
        # Every archetype other than atomicity (the known-hard one,
        # see docs/accuracy.md) diagnoses at rank 1 across the corpus.
        for archetype, m in serial.metrics["by_archetype"].items():
            if archetype != "atomicity":
                assert m["recall"] == 1.0, archetype
