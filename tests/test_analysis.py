"""Tests for the experiment harness (FAST preset)."""

import pathlib

import pytest

from repro.analysis.presets import FAST, FULL

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


class TestPresets:
    def test_full_covers_paper_protocol(self):
        assert FULL.n_train_traces == 10
        assert FULL.n_test_traces == 10
        assert FULL.seq_lens == (1, 2, 3, 4, 5)
        assert len(FULL.hidden_widths) == 10
        assert FULL.muladd_sweep == (1, 2, 5, 10)
        assert FULL.fifo_sweep == (4, 8, 16)
        assert FULL.core_sweep == (4, 8, 16)

    def test_fast_is_reduced(self):
        assert FAST.n_train_traces < FULL.n_train_traces
        assert len(FAST.table4_programs) < len(FULL.table4_programs)


class TestTable1:
    def test_static_table(self):
        from repro.analysis.table1 import format_table1, run_table1
        rows = run_table1()
        assert ("ACT", "yes", "yes", "yes") in rows
        out = format_table1()
        assert "ACT" in out and "PSet" in out


@pytest.mark.slow
class TestTable4:
    @pytest.fixture(scope="class")
    def rows(self):
        from repro.analysis.table4 import run_table4
        return run_table4(FAST)

    def test_row_per_program(self, rows):
        assert {r.program for r in rows} == set(FAST.table4_programs)

    def test_topology_within_bounds(self, rows):
        for r in rows:
            i, h, o = map(int, r.topology.split("-"))
            assert 1 <= i <= 10 and 1 <= h <= 10 and o == 1

    def test_misprediction_rates_sane(self, rows):
        for r in rows:
            assert 0.0 <= r.mispred_pct <= 100.0
        avg = sum(r.mispred_pct for r in rows) / len(rows)
        assert avg < 20.0  # shape: low false-positive rates

    def test_format(self, rows):
        from repro.analysis.table4 import format_table4
        out = format_table4(rows)
        assert "Average" in out


@pytest.mark.slow
class TestFig7a:
    def test_false_negative_rates(self):
        from repro.analysis.fig7a import format_fig7a, run_fig7a
        points = run_fig7a(FAST)
        assert points
        for p in points:
            assert 0.0 <= p.false_negative_pct <= 100.0
        assert "average" in format_fig7a(points)


class TestTable5:
    @pytest.fixture(scope="class")
    def rows(self):
        from repro.analysis.table5 import run_table5
        return run_table5(FAST)

    def test_act_diagnoses_every_bug(self, rows):
        for r in rows:
            assert r.act_rank is not None
            assert r.act_rank <= 5

    def test_aviso_inapplicable_for_sequential(self, rows):
        by_bug = {r.bug: r for r in rows}
        assert not by_bug["gzip"].aviso_applicable
        assert by_bug["mysql2"].aviso_applicable

    def test_format(self, rows):
        from repro.analysis.table5 import format_table5
        out = format_table5(rows)
        assert "mysql2" in out and "n/a (sequential)" in out

    def test_matches_golden(self, rows, update_golden):
        # Every column of every bug, the baselines' included, is pinned.
        from repro.analysis.table5 import format_table5
        path = GOLDEN_DIR / "table5_fast.txt"
        text = format_table5(rows) + "\n"
        if update_golden:
            path.write_text(text, encoding="utf-8")
            pytest.skip(f"updated {path.name}")
        assert text == path.read_text(encoding="utf-8")


@pytest.mark.slow
class TestTable6:
    def test_injected_bugs_found_and_filtered(self):
        from repro.analysis.table6 import format_table6, run_table6
        rows = run_table6(FAST)
        assert len(rows) == 5
        found = [r for r in rows if r.found]
        assert len(found) >= 4  # shape: injected bugs are diagnosable
        for r in found:
            assert r.rank <= 5
        # new-code pruning does real work
        assert max(r.filter_pct for r in rows) > 30.0
        assert "TouchArray" in format_table6(rows)


class TestFig7b:
    def test_adaptivity_beats_pset(self):
        from repro.analysis.fig7b import format_fig7b, run_fig7b
        points = run_fig7b(FAST)
        assert points
        for p in points:
            assert p.incorrect_pct <= p.pset_violation_pct
        assert "average" in format_fig7b(points)


@pytest.mark.slow
class TestOverhead:
    @pytest.fixture(scope="class")
    def study(self):
        from repro.analysis.overhead import run_overhead
        return run_overhead(FAST)

    def test_default_overhead_moderate(self, study):
        assert 0.0 <= study.avg_default_pct < 60.0

    def test_muladd_monotone(self, study):
        xs = sorted(study.muladd_sweep)
        vals = [study.muladd_sweep[x] for x in xs]
        assert vals[0] >= vals[-1]  # more units -> less overhead

    def test_fifo_monotone(self, study):
        fs = sorted(study.fifo_sweep)
        vals = [study.fifo_sweep[f] for f in fs]
        assert vals[0] >= vals[-1]  # deeper FIFO -> less overhead

    def test_format(self, study):
        from repro.analysis.overhead import format_overhead
        out = format_overhead(study)
        assert "Average" in out and "multiply-add" in out


@pytest.mark.slow
class TestFalseSharing:
    def test_line_granularity_effects(self):
        from repro.analysis.false_sharing import (
            format_false_sharing,
            run_false_sharing,
        )
        rows = run_false_sharing(FAST, programs=("lu", "fft"))
        assert rows
        word_rows = [r for r in rows if r.word_granularity]
        line_rows = [r for r in rows if not r.word_granularity]
        # word granularity attributes everything correctly
        for r in word_rows:
            assert r.wrong_writer_pct == 0.0
        # line granularity introduces some aliasing
        assert any(r.wrong_writer_pct > 0 for r in line_rows)
        assert "LW gran." in format_false_sharing(rows)


class TestNNDesign:
    def test_act_always_faster(self):
        from repro.analysis.nn_design import format_nn_design, run_nn_design
        rows = run_nn_design(FULL)
        assert len(rows) == 4
        for r in rows:
            assert r.act_test_interval < r.mux_test_interval
            assert r.throughput_advantage > 1.0
        assert "Mux lat" in format_nn_design(rows)


class TestAdaptationCurve:
    def test_rate_decays_across_runs(self):
        from repro.analysis.adaptation import (
            format_adaptation,
            run_adaptation,
        )
        curve = run_adaptation(kernel="fft", n_executions=3, n_train=5)
        assert len(curve.runs) == 3
        assert curve.last_rate <= max(curve.first_rate, 0.05)
        for r in curve.runs:
            assert 0 <= r.flagged <= r.predictions
        out = format_adaptation(curve)
        assert "fft" in out and "Mode switches" in out
