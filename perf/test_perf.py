"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perf -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from repro.workloads.generator import parse_generated_name

import compare
import spans
import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perf" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


# -- percentiles and span arithmetic ------------------------------------

@pytest.mark.parametrize("n, pct", [(19, None), (20, 50.0), (22, 50.0),
                                    (40, 75.0), (100, 90.0), (200, 95.0),
                                    (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_examples(n, pct):
    assert stats.tail_percentile(n) == pct


def test_tail_percentile_is_the_highest_with_ten_above():
    for n in range(1, 3000):
        pct = stats.tail_percentile(n)
        higher = [p for p in stats.TAIL_CANDIDATES if pct is None or p > pct]
        assert all(stats.samples_above(n, p) < 10 for p in higher)
        if pct is not None:
            assert stats.samples_above(n, pct) >= 10


def test_nearest_rank_returns_measured_values():
    values = [5, 1, 4, 2, 3]
    assert stats.nearest_rank(values, 50) == 3
    assert stats.nearest_rank(values, 100) == 5
    assert stats.nearest_rank(values, 1) == 1


def test_self_time_is_duration_minus_child_coverage():
    recorded = [
        # id, name, start, end, parent, op
        (0, "diagnosis", 0.0, 10.0, None, "a"),
        (1, "deploy", 1.0, 3.0, 0, "a"),
        (2, "ranking", 2.0, 5.0, 0, "a"),      # overlaps deploy
        (3, "trainer.restart", 1.5, 2.0, 1, "a"),
        (4, "deploy", 20.0, 21.0, None, "b"),
    ]
    agg = spans.aggregate(recorded)
    # Children cover [1, 5] once: 4 s of the 10.
    assert agg["diagnosis"]["self_s"] == pytest.approx(6.0)
    assert agg["deploy"]["count"] == 2
    assert agg["deploy"]["total_s"] == pytest.approx(3.0)
    assert agg["deploy"]["self_s"] == pytest.approx(2.5)
    assert agg["ranking"]["self_s"] == pytest.approx(3.0)


def test_tracer_records_parents_and_operations():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("diagnosis", op="r0:1"):
        with tracer.span("deploy"):
            pass
    with tracer.span("ranking"):
        pass
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["deploy"][4] == by_name["diagnosis"][0]
    assert by_name["deploy"][5] == "r0:1"
    assert by_name["ranking"][4] is None and by_name["ranking"][5] is None


def test_installed_wraps_and_restores():
    from repro.core import diagnosis
    from repro.nn import trainer

    before = (diagnosis.deploy_on_run, trainer._train_once)
    with spans.Tracer().installed():
        assert diagnosis.deploy_on_run is not before[0]
        assert trainer._train_once is not before[1]
    assert (diagnosis.deploy_on_run, trainer._train_once) == before


# -- the runner ----------------------------------------------------------

@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_smoke_run_emits_every_declared_metric(tmp_path, trace, section):
    out = tmp_path / "smoke.json"
    proc = run_bench("--smoke", "--trace", trace, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [w["name"] for w in SPEC["workloads"]]
    assert list(result["metrics"]) == names
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for name in names:
        metrics = result["metrics"][name]
        assert {m: v["unit"] for m, v in metrics.items()} == declared
        assert all(isinstance(v["value"], (int, float))
                   for v in metrics.values())
    doc = json.loads(out.read_text())
    for name in names:
        assert doc["runs"][0][name]["exact"]["error_rate"] == 0.0


def test_single_workload_prints_the_contract_line():
    proc = run_bench("--smoke", "--workload", "cli-bugs", "--seed", "3",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["attempted"] == 2


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "corpus-cold", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# -- output checks -------------------------------------------------------

def _one_round(workload):
    workload.setup()
    timed = workloads.timed_rounds(workload, [spans.NullTracer()],
                                   rounds=1)
    assert timed.failed == 0
    assert workloads.check_outputs(workload, timed.outputs) == []
    return timed.outputs


def test_tampered_warm_report_fails_the_check():
    warm = workloads.CorpusWarm(7, smoke=True)
    outputs = _one_round(warm)
    tampered = json.loads(json.dumps(outputs))
    tampered[0][0]["findings"] = tampered[0][0]["findings"][1:] + [[]]
    assert workloads.check_outputs(warm, tampered)
    not_failed = json.loads(json.dumps(outputs))
    not_failed[0][1]["failed"] = False
    assert any("did not fail" in p
               for p in workloads.check_outputs(warm, not_failed))


def test_tampered_cycle_count_fails_the_check():
    sim = workloads.SimOverhead(7, smoke=True)
    outputs = _one_round(sim)
    second = json.loads(json.dumps(outputs[0]))
    second[1]["act_cycles"] += 1
    problems = workloads.check_outputs(sim, outputs + [second])
    assert problems == ["round 2, op 1: output differs from round 1"]


@pytest.mark.parametrize("archetypes, size", [
    (workloads.ARCHETYPES, 20), (workloads.WARM_ARCHETYPES, 8)])
def test_stratified_corpus_has_a_fixed_mix(archetypes, size):
    def mix(specs):
        return sorted((s.archetype, s.motif, s.n_workers, s.rounds, s.width)
                      for s in specs)

    specs = workloads.stratified_corpus(11, archetypes)
    assert specs == workloads.stratified_corpus(11, archetypes)
    assert len({(s.archetype, s.motif) for s in specs}) == size
    assert {s.archetype for s in specs} == set(archetypes)
    other = workloads.stratified_corpus(12, archetypes)
    assert specs != other
    assert sorted(m[1:] for m in mix(specs)) == sorted(m[1:]
                                                       for m in mix(other))
    # Every program is the one its name stands for.
    assert all(parse_generated_name(s.name) == s for s in specs)


def test_times_are_scaled_by_the_reference_task():
    ref = workloads.REFERENCE_S
    # Round 2 ran on a host 1.6x slower: every time and the reference
    # task's time before it stretched alike.
    times = [[0.2, 0.01], [0.32, 0.016], [0.2, 0.01]]
    probes = [[ref, ref], [1.6 * ref, 1.6 * ref], [ref, ref]]
    timed = workloads.Timed(times, [[None] * 2] * 3, [], probes)
    assert timed.scaled()[1] == pytest.approx([0.2, 0.01])
    assert timed.typical() == pytest.approx([0.2, 0.01])
    # Each operation's median over the rounds: one slow outlier is out.
    times[2][0] = 0.5
    assert timed.typical()[0] == pytest.approx(0.2)


# -- counter validation --------------------------------------------------

def test_trainer_counters_match_the_roadmap_corpus():
    """The seed-7 size-20 corpus ran 100 restarts, 183,945 epochs and 40
    epoch-cap hits; the outside counter must see every one of them."""
    from repro.analysis.accuracy import CorpusSpec, corpus_programs
    from repro.workloads.generator import GeneratedProgram

    tracer = spans.Tracer()
    with tracer.installed():
        for i, spec in enumerate(corpus_programs(CorpusSpec(seed=7,
                                                            size=20))):
            with tracer.span("diagnosis", op=i):
                workloads.diagnose(GeneratedProgram(spec))
    assert tracer.counts["trainer.restarts"] == 100
    assert tracer.counts["trainer.epochs"] == 183_945
    assert tracer.counts["trainer.epoch_cap_hits"] == 40
    agg = spans.aggregate(tracer.spans)
    # Every stage of a diagnosis is inside some span.
    assert agg["diagnosis"]["self_s"] < 0.05 * agg["diagnosis"]["total_s"]


# -- comparison ----------------------------------------------------------

@pytest.mark.parametrize("a, b, better, expected", [
    ([1.0, 1.01, 0.99, 1.0], [1.02, 1.03, 1.01, 1.02], "lower", "within"),
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "lower", "worse"),
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "higher", "better"),
    ([1.0, 1.5, 0.6, 1.0], [1.1, 1.6, 0.7, 1.0], "lower", "unresolved"),
    ([1.0, 1.5, 0.6, 1.2], [0.3, 0.4, 0.35, 0.5], "lower", "better"),
])
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.1) == expected


def test_compare_exact_results():
    assert compare.exact_verdict([0.8, 0.8], [0.8], "higher") == "same"
    assert compare.exact_verdict([0.8], [0.75], "higher") == "worse"
    assert compare.exact_verdict(["ab"], ["cd"], None) == "changed"


def test_compare_exit_code(tmp_path):
    def result(seed, value):
        run = {"corpus-warm": {"metrics": {"latency_geomean_s": value},
                               "exact": {"recall": 0.9}}}
        return {"seed": seed, "runs": [run, run]}

    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text(json.dumps(result(7, 1.0)))
    b.write_text(json.dumps(result(7, 1.01)))
    c.write_text(json.dumps(result(7, 2.0)))
    assert compare.main([str(a), "--", str(b)]) == 0
    assert compare.main([str(a), "--", str(c)]) == 1
    assert compare.main([str(a)]) == 2
