"""Cross-engine differential suite for the predictor-engine registry.

Four layers: registry semantics (names, unknown-engine errors, ensemble
member parsing), the Predictor protocol contract every engine must
satisfy, Hypothesis round-trip properties pinning
``deserialize(serialize(e))``, and the byte-identity audits -- the
NN-via-registry path against the direct path (reports, telemetry,
exported artifacts), and the seed-pinned shootout golden with its
serial-vs-``--jobs`` determinism check.
"""

import json
import os
import pathlib
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.analysis.accuracy import (
    CorpusSpec,
    append_trajectory,
    metrics_json,
    run_corpus,
)
from repro.analysis.shootout import ShootoutSpec, format_shootout, run_shootout
from repro.common.errors import EngineError
from repro.core.config import ACTConfig
from repro.core.diagnosis import diagnose_failure
from repro.engines import create, names, register
from repro.engines import registry as engine_registry
from repro.engines.base import (
    EngineCapabilities,
    Predictor,
    candidate,
    candidate_report,
)
from repro.engines.ensemble import rrf_merge
from repro.trace.raw import dep_sequences, extract_raw_deps
from repro.workloads.framework import run_program
from repro.workloads.registry import all_bug_names, get_bug

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

CFG = ACTConfig(seq_len=3, check_window=20)
ENGINES = ("nn", "aviso", "pbi", "pset", "ensemble")

# The seed-pinned shootout shared by the golden test and CI's
# shootout-smoke job (.github/workflows/ci.yml): small enough for
# tier-1, large enough to exercise every archetype but one.
SHOOT = ShootoutSpec(seed=7, size=5, n_train_runs=4, n_pruning_runs=6)


@pytest.fixture(scope="session")
def seq_pool():
    """Dependence sequences from correct gzip + aget runs."""
    pool = []
    for bug in ("gzip", "aget"):
        run = run_program(get_bug(bug), seed=0, buggy=False)
        for stream in extract_raw_deps(run).values():
            pool.extend(dep_sequences(stream, CFG.seq_len))
    assert len(pool) >= 8
    return pool


@pytest.fixture(scope="session")
def trained_engines():
    """Every registered engine, trained on the same gzip runs."""
    engines = {}
    for name in ENGINES:
        engine = create(name, config=CFG)
        engine.train(get_bug("gzip"), n_runs=4, buggy=False)
        engines[name] = engine
    return engines


@pytest.fixture(scope="session")
def traced_shootout():
    """SHOOT under a live telemetry registry: (result, snapshot)."""
    reg = telemetry.Registry()
    with telemetry.use_registry(reg):
        result = run_shootout(SHOOT)
    return result, reg.snapshot()


@pytest.fixture(scope="session")
def small_shootout(traced_shootout):
    return traced_shootout[0]


def _count_spans(spans, name):
    return sum((s["name"] == name)
               + _count_spans(s.get("children", ()), name) for s in spans)


class TestRegistry:
    def test_names_registration_order(self):
        assert names() == ENGINES

    def test_create_returns_predictors(self):
        for name in names():
            engine = create(name, config=CFG)
            assert isinstance(engine, Predictor)
            assert engine.name == name
            assert isinstance(engine.capabilities, EngineCapabilities)

    def test_unknown_engine_lists_registered_names(self):
        with pytest.raises(EngineError) as exc:
            create("bogus")
        assert exc.value.engine == "bogus"
        assert exc.value.known == names()
        for name in names():
            assert name in str(exc.value)

    def test_member_list_on_non_ensemble_rejected(self):
        with pytest.raises(EngineError, match="ensemble"):
            create("pset:nn")

    def test_ensemble_explicit_members(self):
        engine = create("ensemble:nn+pset", config=CFG)
        assert [m.name for m in engine.members] == ["nn", "pset"]

    def test_ensemble_default_members_are_all_base_engines(self):
        engine = create("ensemble", config=CFG)
        assert [m.name for m in engine.members] == [
            n for n in names() if n != "ensemble"]

    def test_ensemble_empty_member_list_rejected(self):
        with pytest.raises(EngineError, match="no members"):
            create("ensemble:")

    def test_ensemble_unknown_member_rejected(self):
        with pytest.raises(EngineError) as exc:
            create("ensemble:nn+bogus")
        assert exc.value.engine == "bogus"

    def test_ensemble_cannot_nest(self):
        with pytest.raises(EngineError):
            create("ensemble:ensemble")

    def test_create_nn_loads_no_baseline_module(self):
        # A fresh interpreter: create("nn") imports only its own module.
        code = ("import sys\n"
                "from repro.engines import create\n"
                "create('nn')\n"
                "print(sorted(m for m in sys.modules\n"
                "      if m.startswith('repro.baselines')\n"
                "      or m == 'repro.engines.baseline_engines'))\n")
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.stdout.strip() == "[]"

    def test_register_adds_engine(self):
        class _Custom(Predictor):
            capabilities = EngineCapabilities(
                name="custom-test", description="registry test stub")

        register("custom-test", _Custom)
        try:
            assert "custom-test" in names()
            assert isinstance(create("custom-test"), _Custom)
        finally:
            del engine_registry._REGISTRY["custom-test"]


class TestCapabilities:
    """The Table-I axes each engine declares (docs/engines.md)."""

    def test_nn_adapts_online(self):
        caps = create("nn").capabilities
        assert caps.adapts_online
        assert caps.trains_offline
        assert not caps.multithreaded_only

    def test_aviso_needs_many_failure_runs_and_threads(self):
        caps = create("aviso").capabilities
        assert caps.needs_failure_runs > 1
        assert caps.multithreaded_only

    def test_pbi_and_pset_are_single_failure_schemes(self):
        for name in ("pbi", "pset"):
            caps = create(name).capabilities
            assert caps.needs_failure_runs == 1, name
            assert not caps.adapts_online, name

    def test_ensemble_capabilities_are_derived_from_members(self):
        engine = create("ensemble")
        members = engine.members
        caps = engine.capabilities
        assert caps.needs_failure_runs == max(
            m.capabilities.needs_failure_runs for m in members)
        assert caps.adapts_online == any(
            m.capabilities.adapts_online for m in members)
        assert caps.multithreaded_only == all(
            m.capabilities.multithreaded_only for m in members)


class TestProtocolContract:
    """Every registered engine satisfies the Predictor protocol."""

    @pytest.mark.parametrize("name", ENGINES)
    def test_cold_engine_is_untrained_and_unserializable(self, name):
        engine = create(name, config=CFG)
        assert not engine.trained
        with pytest.raises(EngineError):
            engine.serialize()

    @pytest.mark.parametrize("name", ENGINES)
    def test_train_sets_trained(self, name, trained_engines):
        assert trained_engines[name].trained

    @pytest.mark.parametrize("name", ENGINES)
    def test_predict_batch_shape_and_range(self, name, trained_engines,
                                           seq_pool):
        scores = np.asarray(trained_engines[name].predict_batch(seq_pool),
                            dtype=float)
        assert scores.shape == (len(seq_pool),)
        assert ((scores >= 0.0) & (scores <= 1.0)).all()

    @pytest.mark.parametrize("name", ENGINES)
    def test_predict_batch_deterministic(self, name, trained_engines,
                                         seq_pool):
        engine = trained_engines[name]
        a = np.asarray(engine.predict_batch(seq_pool), dtype=float)
        b = np.asarray(engine.predict_batch(seq_pool), dtype=float)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ENGINES)
    def test_predict_batch_empty(self, name, trained_engines):
        assert len(trained_engines[name].predict_batch([])) == 0

    @pytest.mark.parametrize("name", ENGINES)
    def test_serialize_is_json_safe(self, name, trained_engines):
        payload = trained_engines[name].serialize()
        assert payload["engine"] == name
        json.dumps(payload)  # must not raise

    @pytest.mark.parametrize("name", ENGINES)
    def test_fingerprint_is_json_safe_and_named(self, name):
        fp = create(name).fingerprint()
        assert fp["engine"] == name
        json.dumps(fp)

    def test_load_state_rejects_foreign_engine(self, trained_engines):
        with pytest.raises(EngineError):
            create("pbi", config=CFG).load_state(
                trained_engines["pset"].serialize())

    @pytest.mark.parametrize("name", [n for n in ENGINES if n != "nn"])
    def test_non_nn_engines_reject_checkpoints(self, name, tinybug):
        with pytest.raises(EngineError, match="checkpoint"):
            create(name, config=CFG).diagnose_report(
                tinybug, checkpoint="ck.json")


class TestStoreKey:
    """One key per trained state: everything that shapes training."""

    @staticmethod
    def _key(program, engine="nn", **overrides):
        args = dict(n_train_runs=4, train_seed0=0, correct_params=None)
        args.update(overrides)
        return create(engine, config=CFG).store_key({}, program, **args)

    def test_generated_program_shape_is_in_the_key(self):
        from repro.workloads.generator import GeneratedProgram, ProgramSpec

        spec = ProgramSpec.from_seed(11)
        other = ProgramSpec(spec.seed, spec.archetype, spec.motif,
                            spec.n_workers + 1, spec.rounds, spec.width)
        assert spec.name == other.name
        assert (self._key(GeneratedProgram(spec))
                != self._key(GeneratedProgram(other)))

    def test_training_inputs_are_in_the_key(self, tinybug):
        base = self._key(tinybug)
        assert self._key(tinybug, correct_params={"buggy": False}) == base
        assert self._key(tinybug, correct_params={"buggy": False,
                                                  "n": 4}) != base
        assert self._key(tinybug, train_seed0=1) != base
        assert self._key(tinybug, n_train_runs=5) != base
        assert self._key(tinybug, engine="pset") != base

    def test_store_skipped_under_faults_or_checkpoint(self, tinybug):
        from repro.faults import FaultPlan

        assert create("nn").store_key(None, tinybug, 4, 0, None) is None
        assert self._key(tinybug, faults=FaultPlan(seed=3)) is None
        assert self._key(tinybug, checkpoint="ck.json") is None


class TestSerializeRoundTrip:
    """Hypothesis pin: deserialize(serialize(e)) predicts identically."""

    @pytest.mark.parametrize("name", ENGINES)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_round_trip_predictions_identical(self, name, data,
                                              trained_engines, seq_pool):
        engine = trained_engines[name]
        # Through actual JSON text: what the warm cache / wire carries.
        payload = json.loads(json.dumps(engine.serialize()))
        restored = type(engine).deserialize(payload)
        idxs = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(seq_pool) - 1),
            max_size=8))
        seqs = [seq_pool[i] for i in idxs]
        a = np.asarray(engine.predict_batch(seqs), dtype=float)
        b = np.asarray(restored.predict_batch(seqs), dtype=float)
        assert a.shape == b.shape
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ENGINES)
    def test_round_trip_reserializes_identically(self, name,
                                                 trained_engines):
        engine = trained_engines[name]
        payload = engine.serialize()
        restored = type(engine).deserialize(
            json.loads(json.dumps(payload)))
        assert restored.trained
        assert restored.serialize() == payload

    def test_instance_load_state_round_trip(self, trained_engines,
                                            seq_pool):
        engine = trained_engines["pset"]
        other = create("pset", config=CFG)
        other.load_state(engine.serialize())
        assert np.array_equal(
            np.asarray(engine.predict_batch(seq_pool), dtype=float),
            np.asarray(other.predict_batch(seq_pool), dtype=float))


class TestRRFMerge:
    def test_scores_and_order(self):
        merged = rrf_merge([
            [candidate("a", 0.9, False), candidate("b", 0.5, True)],
            [candidate("b", 0.8, False), candidate("c", 0.2, False)],
        ])
        by_key = {c["key"]: c for c in merged}
        assert by_key["b"]["score"] == pytest.approx(
            1 / 62 + 1 / 61)
        assert by_key["a"]["score"] == pytest.approx(1 / 61)
        assert merged[0]["key"] == "b"  # two votes beat one
        assert by_key["b"]["hit"] is True  # hit is OR-ed across members

    def test_tie_breaks_on_key(self):
        merged = rrf_merge([[candidate("z", 1.0, False)],
                            [candidate("a", 1.0, False)]])
        assert [c["key"] for c in merged] == ["a", "z"]

    def test_empty_input(self):
        assert rrf_merge([]) == []


class TestCandidateReport:
    def test_rank_is_first_hit(self):
        report = candidate_report(
            "p", failed=True, failure_description="boom",
            truth={(1, 2)},
            candidates=[candidate("x", 0.9, False),
                        candidate("y", 0.8, True),
                        candidate("z", 0.7, True)],
            engine="pset")
        assert report.found and report.rank == 2
        assert report.engine == "pset"
        assert report.applicable

    def test_no_hit_means_not_found(self):
        report = candidate_report(
            "p", failed=True, failure_description="boom", truth=set(),
            candidates=[candidate("x", 0.9, False)], engine="pbi")
        assert not report.found and report.rank is None


def _nn_diagnosis(bug, routed):
    reg = telemetry.Registry(clock=telemetry.TickClock())
    diagnose = (create("nn", config=ACTConfig(seq_len=3)).diagnose_report
                if routed else partial(diagnose_failure,
                                       config=ACTConfig(seq_len=3)))
    with telemetry.use_registry(reg):
        report = diagnose(bug, n_train_runs=4, n_pruning_runs=6)
    return report, telemetry.profile_dict(reg)


@pytest.mark.slow
class TestNNRegistryByteIdentity:
    """create("nn") must be indistinguishable from the direct path."""

    @pytest.mark.parametrize("bug_name", all_bug_names())
    def test_report_and_telemetry_identical(self, bug_name):
        direct, direct_profile = _nn_diagnosis(get_bug(bug_name), False)
        routed, routed_profile = _nn_diagnosis(get_bug(bug_name), True)
        assert routed == direct
        assert routed_profile == direct_profile

    def test_cli_telemetry_artifact_identical(self, tmp_path, capsys):
        from repro import cli

        fast = ["--train-runs", "4", "--pruning-runs", "6",
                "--tick-clock"]
        a = tmp_path / "direct.json"
        b = tmp_path / "routed.json"
        rc_a = cli.main(["diagnose", "gzip", *fast,
                         "--telemetry", str(a)])
        rc_b = cli.main(["diagnose", "gzip", "--engine", "nn", *fast,
                         "--telemetry", str(b)])
        capsys.readouterr()
        assert rc_a == rc_b
        assert a.read_bytes() == b.read_bytes()


class TestEngineDiagnosis:
    """Each baseline produces a well-formed candidate report."""

    @pytest.mark.parametrize("name", ["pbi", "pset", "ensemble:pbi+pset"])
    def test_single_thread_bug_report(self, name, tinybug):
        report = create(name, config=CFG).diagnose_report(
            tinybug, n_train_runs=4, n_pruning_runs=6)
        assert report.engine == name.partition(":")[0]
        assert report.applicable
        assert report.failed
        for cand in report.candidates:
            assert set(cand) == {"key", "score", "hit"}
        ranks = [i for i, c in enumerate(report.candidates, start=1)
                 if c["hit"]]
        assert report.rank == (ranks[0] if ranks else None)

    def test_aviso_inapplicable_on_single_thread(self, tinybug):
        report = create("aviso", config=CFG).diagnose_report(
            tinybug, n_train_runs=4, n_pruning_runs=6)
        assert report.engine == "aviso"
        assert not report.applicable
        assert not report.found

    def test_warm_state_round_trip_matches_cold(self, tinybug):
        store = {}
        cold = create("pset", config=CFG).diagnose_report(
            tinybug, n_train_runs=4, n_pruning_runs=6, store=store)
        (payload,) = store.values()
        assert payload == json.loads(json.dumps(payload))
        reg = telemetry.Registry()
        with telemetry.use_registry(reg):
            warm = create("pset", config=CFG).diagnose_report(
                tinybug, n_train_runs=4, n_pruning_runs=6, store=store)
        assert warm == cold
        assert reg.snapshot()["counters"]["engine.trainings"] == 0


class TestEngineCorpus:
    def test_default_fingerprint_has_no_engine_key(self):
        # Pre-engine corpus checkpoints/goldens must stay valid.
        assert "engine" not in CorpusSpec().fingerprint()

    def test_non_default_engine_in_fingerprint(self):
        fp = CorpusSpec(engine="pset").fingerprint()
        assert fp["engine"] == "pset"

    @pytest.mark.slow
    def test_corpus_records_carry_candidate_counts(self):
        spec = CorpusSpec(seed=3, size=2, n_train_runs=4,
                          n_pruning_runs=6, engine="pset")
        result = run_corpus(spec)
        assert len(result.records) == 2
        for rec in result.records:
            assert rec["n_findings"] == len(rec["finding_hits"])
        assert result.metrics["overall"]["n_programs"] == 2


class TestShootout:
    def _check(self, path, text, update):
        if update:
            path.write_text(text, encoding="utf-8")
            pytest.skip(f"updated {path.name}")
        assert path.exists(), (
            f"golden file {path} missing; run pytest --update-golden")
        assert text == path.read_text(encoding="utf-8")

    def test_metrics_json_matches_golden(self, small_shootout,
                                         update_golden):
        self._check(GOLDEN_DIR / "shootout_s7.json",
                    metrics_json(small_shootout), update_golden)

    def test_metrics_json_is_canonical(self, small_shootout):
        text = metrics_json(small_shootout)
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_each_engine_trains_once_per_program(self, traced_shootout):
        # The ensemble reuses the standalone members' trained state:
        # one NN training and three baseline trainings per program.
        _, snap = traced_shootout
        assert _count_spans(snap["spans"],
                            "diagnose.offline_train") == SHOOT.size
        assert snap["counters"]["engine.trainings"] == 3 * SHOOT.size

    def test_covers_every_registered_engine(self, small_shootout):
        assert set(small_shootout.metrics["engines"]) == set(names())
        for doc in small_shootout.metrics["engines"].values():
            assert set(doc) == {"capabilities", "overall", "by_archetype"}

    def test_table_lists_every_engine(self, small_shootout):
        table = format_shootout(small_shootout)
        assert table.splitlines()[0] == (
            "Engine shootout (seed 7, 5 programs)")
        for name in names():
            assert name in table

    def test_bench_append_and_dedupe(self, small_shootout, tmp_path):
        path = tmp_path / "BENCH_accuracy.json"
        doc = append_trajectory(small_shootout.entry, str(path))
        assert doc["schema"] == 1
        assert doc["entries"] == [small_shootout.entry]
        # Re-running the same shootout must not grow the trajectory.
        again = append_trajectory(small_shootout.entry, str(path))
        assert again["entries"] == doc["entries"]
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk == doc
        entry = doc["entries"][0]
        assert set(entry["engines"]) == set(names())
        assert "timestamp" not in entry

    @pytest.mark.slow
    def test_serial_vs_jobs_4_byte_identical(self, small_shootout):
        parallel = run_shootout(SHOOT, jobs=4)
        assert metrics_json(parallel) == metrics_json(small_shootout)
