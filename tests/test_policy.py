"""Differential + property wall for the adaptive tracking policy.

Pins the contracts :mod:`repro.core.policy` must keep:

1. **Policy-off identity** -- for every bug workload, diagnosing with
   :data:`NULL_POLICY` active (``rate=1.0``, backoff disabled) is
   byte-identical to the policy-free pipeline: identical report,
   identical telemetry counters/histograms/gauges and span tree,
   identical exported trace files (both formats), identical simulator
   results.
2. **Determinism** -- sampling decisions are a pure function of
   ``(seed, site, key)``: the same policy admits the same dependences
   serial or in a ``--jobs N`` corpus sweep.
3. **Monotonicity** -- the admitted set at a lower rate is a subset of
   the admitted set at any higher rate (same seed, same stream).
4. **Tightening dominates shedding** -- a dependence covered by the
   suspicion set is always admitted, even while backoff is shedding.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.analysis.accuracy import CorpusSpec, run_corpus
from repro.common.errors import ConfigError
from repro.core.config import ACTConfig
from repro.core.diagnosis import diagnose_failure
from repro.core.offline import OfflineTrainer
from repro.core.policy import (
    NULL_POLICY,
    PolicySpec,
    get_policy,
    suspicious_pcs_from_report,
    use_policy,
)
from repro.engines import create
from repro.sim.machine import simulate_run
from repro.trace.raw import RawDep
from repro.trace.trace_io import write_trace
from repro.workloads.framework import run_program
from repro.workloads.registry import all_bug_names, get_bug

_RUNS = dict(n_train_runs=3, n_pruning_runs=4)
_CORPUS = CorpusSpec(seed=3, size=4, n_train_runs=4, n_pruning_runs=6)


# ---------------------------------------------------------------------
# Spec parsing / validation
# ---------------------------------------------------------------------


class TestPolicySpec:
    def test_defaults_are_disabled(self):
        assert NULL_POLICY.enabled is False
        assert PolicySpec(rate=1.0).enabled is False
        # A suspicious set alone does not enable: nothing to tighten from.
        assert PolicySpec(suspicious_pcs=(4096,)).enabled is False

    def test_sampling_or_backoff_enables(self):
        assert PolicySpec(rate=0.5).enabled is True
        assert PolicySpec(backoff=True).enabled is True

    def test_from_spec_round_trip(self):
        spec = PolicySpec.from_spec(
            "rate=0.5, seed=3, backoff=1, backoff_rate=0.25,"
            "suspicious_pcs=0x1000;8200")
        assert spec == PolicySpec(seed=3, rate=0.5, backoff=True,
                                  backoff_rate=0.25,
                                  suspicious_pcs=(4096, 8200))
        assert spec.enabled

    @pytest.mark.parametrize("bad", [
        "rate=2.0", "rate=-0.1", "backoff_threshold=1.5",
        "backoff_rate=-1", "backoff_window=0", "nope=1", "rate",
    ])
    def test_bad_specs_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            PolicySpec.from_spec(bad)

    def test_suspicious_pcs_sorted_deduped(self):
        spec = PolicySpec(suspicious_pcs=(8, 4, 8))
        assert spec.suspicious_pcs == (4, 8)
        assert spec.covers(4, 99) and spec.covers(99, 8)
        assert not spec.covers(99, 98)
        assert not NULL_POLICY.covers(4, 8)

    def test_describe_mentions_active_knobs(self):
        text = PolicySpec(rate=0.5, backoff=True,
                          suspicious_pcs=(4096,)).describe()
        assert "rate=0.5" in text and "backoff" in text
        assert "0x1000" in text

    def test_fingerprint_is_json_safe_and_stable(self):
        import json

        a = PolicySpec(rate=0.5, suspicious_pcs=(8, 4)).fingerprint()
        b = PolicySpec(rate=0.5, suspicious_pcs=(4, 8)).fingerprint()
        assert a == b
        json.dumps(a)

    def test_ambient_default_is_null(self):
        assert get_policy() is NULL_POLICY
        with use_policy(PolicySpec(rate=0.5)) as active:
            assert get_policy() is active
        assert get_policy() is NULL_POLICY


# ---------------------------------------------------------------------
# Policy-off differential: byte-identical to the policy-free pipeline
# ---------------------------------------------------------------------


def _strip_spans(spans):
    return [{"name": s["name"], "attrs": s.get("attrs", {}),
             "children": _strip_spans(s.get("children", []))}
            for s in spans]


def _normalized(snapshot):
    """A snapshot without its wall-clock-dependent pieces."""
    gauges = {k: v for k, v in snapshot["gauges"].items()
              if k != "sched.events_per_sec"}
    return {"counters": snapshot["counters"],
            "histograms": snapshot["histograms"],
            "gauges": gauges,
            "spans": _strip_spans(snapshot["spans"])}


@pytest.mark.slow
class TestPolicyOffIdentity:
    @pytest.mark.parametrize("bug", all_bug_names())
    def test_report_and_telemetry_identical(self, bug):
        program = get_bug(bug)
        with telemetry.use_registry(telemetry.Registry()) as plain_reg:
            plain = diagnose_failure(program, **_RUNS)
        with telemetry.use_registry(telemetry.Registry()) as off_reg:
            with use_policy(NULL_POLICY):
                off = diagnose_failure(program, **_RUNS)
        assert plain == off
        assert (_normalized(plain_reg.snapshot())
                == _normalized(off_reg.snapshot()))

    def test_explicit_policy_argument_matches_ambient(self):
        program = get_bug("gzip")
        plain = diagnose_failure(program, **_RUNS)
        off = diagnose_failure(program, policy=NULL_POLICY, **_RUNS)
        assert plain == off

    def test_identity_holds_with_jobs(self):
        # The spec's policy travels to the pool workers: a pooled corpus
        # under NULL_POLICY scores exactly what the policy-free one does.
        plain = run_corpus(_CORPUS, jobs=2)
        off = run_corpus(replace(_CORPUS, policy=NULL_POLICY), jobs=2)
        assert off.records == plain.records

    def test_trace_files_byte_identical(self, tmp_path):
        run = run_program(get_bug("gzip"), seed=1, buggy=True)
        plain_path = tmp_path / "plain.jsonl"
        off_path = tmp_path / "off.jsonl"
        write_trace(run, plain_path)
        with use_policy(NULL_POLICY):
            write_trace(run, off_path)
        assert plain_path.read_bytes() == off_path.read_bytes()

    def test_simulator_results_identical(self, tinybug):
        trained = OfflineTrainer(config=ACTConfig(seq_len=3)).train(
            tinybug, n_runs=3, buggy=False)
        run = run_program(tinybug, seed=5, buggy=True)
        plain = simulate_run(run, trained=trained)
        with use_policy(NULL_POLICY):
            off = simulate_run(run, trained=trained)
        # Everything except the (unordered-identity) module objects.
        import dataclasses

        for f in dataclasses.fields(plain):
            if f.name == "act_modules":
                continue
            assert getattr(plain, f.name) == getattr(off, f.name), f.name
        assert off.deps_shed == 0
        assert all(m.policy_state is None
                   for m in off.act_modules.values())


# ---------------------------------------------------------------------
# Active policy: deterministic, engine-gated, visible in the report
# ---------------------------------------------------------------------


class TestActivePolicy:
    def test_sampling_sheds_and_notes_it(self):
        program = get_bug("gzip")
        report = diagnose_failure(program,
                                  policy=PolicySpec(rate=0.5), **_RUNS)
        assert any("adaptive policy active" in note for note in report.notes)
        assert any("shed" in note for note in report.notes)

    def test_serial_equals_jobs(self):
        spec = replace(_CORPUS,
                       policy=PolicySpec(seed=3, rate=0.5, backoff=True))
        assert run_corpus(spec, jobs=2).records == run_corpus(spec).records

    def test_rerun_is_deterministic(self):
        program = get_bug("gzip")
        policy = PolicySpec(seed=3, rate=0.5)
        assert (diagnose_failure(program, policy=policy, **_RUNS)
                == diagnose_failure(program, policy=policy, **_RUNS))

    def test_non_nn_engine_rejects_enabled_policy(self):
        with pytest.raises(ConfigError):
            create("pset").diagnose_report(
                get_bug("gzip"), policy=PolicySpec(rate=0.5), **_RUNS)

    def test_non_nn_engine_accepts_disabled_policy(self):
        from repro.core.diagnosis import DiagnosisReport

        report = create("pset").diagnose_report(
            get_bug("gzip"), policy=NULL_POLICY, **_RUNS)
        assert isinstance(report, DiagnosisReport)

    def test_suspicion_feedback_loop(self):
        """PCs from a full-rate report restore coverage when sampling."""
        program = get_bug("gzip")
        full = diagnose_failure(program, **_RUNS)
        pcs = suspicious_pcs_from_report(full)
        assert pcs == tuple(sorted(set(pcs)))
        tightened = diagnose_failure(
            program, policy=PolicySpec(rate=0.25, suspicious_pcs=pcs),
            **_RUNS)
        assert any("tightened" in note for note in tightened.notes)


# ---------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------


_keys = st.tuples(st.integers(0, 7), st.integers(0, 2 ** 16))


class TestSamplingProperties:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), key=_keys)
    def test_decision_is_pure_function_of_seed_site_key(self, seed, key):
        a = PolicySpec(seed=seed, rate=0.5)
        b = PolicySpec(seed=seed, rate=0.5, backoff_window=7)
        draw = a.uniform("dep", *key)
        assert 0.0 <= draw < 1.0
        # Same (seed, site, key) => same draw, whatever the other knobs.
        assert draw == b.uniform("dep", *key)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           lo=st.floats(0.0, 1.0), hi=st.floats(0.0, 1.0),
           n=st.integers(1, 200))
    def test_sampled_count_monotone_in_rate(self, seed, lo, hi, n):
        lo, hi = min(lo, hi), max(lo, hi)
        # Backoff off, no suspicion set: admission is the rate draw.
        deps = [RawDep(store_pc=100 + i, load_pc=200 + i) for i in range(n)]
        low = PolicySpec(seed=seed, rate=lo).state()
        high = PolicySpec(seed=seed, rate=hi).state()
        low_set = {i for i, d in enumerate(deps) if low.admit(d, tid=0)}
        high_set = {i for i, d in enumerate(deps) if high.admit(d, tid=0)}
        assert low_set <= high_set
        if hi >= 1.0:
            assert len(high_set) == n

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 100))
    def test_state_decisions_replay_identically(self, seed, n):
        """Two fresh states over the same stream agree dep for dep --
        the property that makes serial == --jobs N."""
        spec = PolicySpec(seed=seed, rate=0.5)
        deps = [RawDep(store_pc=100 + i, load_pc=200 + i) for i in range(n)]
        a, b = spec.state(), spec.state()
        assert [a.admit(d, tid=1) for d in deps] == \
               [b.admit(d, tid=1) for d in deps]

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(seed=st.integers(0, 2 ** 16),
           rate=st.floats(0.0, 0.9), n=st.integers(1, 100),
           sus=st.sets(st.integers(100, 120), min_size=1, max_size=4))
    def test_backoff_never_drops_a_tightened_dep(self, seed, rate, n, sus):
        spec = PolicySpec(seed=seed, rate=rate, backoff=True,
                          backoff_threshold=0.0, backoff_window=1,
                          backoff_rate=0.0, suspicious_pcs=tuple(sus))
        state = spec.state()
        # One hot observation flips the controller into shedding, where
        # the effective rate is rate * 0.0 = nothing but the sus set.
        state.note_stall()
        assert state.shedding
        covered = [RawDep(store_pc=pc, load_pc=999) for pc in sus] * 3
        uncovered = [RawDep(store_pc=1000 + i, load_pc=999)
                     for i in range(n)]
        for dep in covered:
            assert state.admit(dep, tid=0)
        assert all(not state.admit(dep, tid=0) for dep in uncovered)
        assert state.tightened == len(covered)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 16))
    def test_rate_zero_sheds_everything_uncovered(self, seed):
        state = PolicySpec(seed=seed, rate=0.0).state()
        deps = [RawDep(store_pc=i, load_pc=i + 1) for i in range(20)]
        assert not any(state.admit(d, tid=0) for d in deps)
        assert state.shed == 20 and state.admitted == 0


class TestBackoffController:
    def test_window_mean_drives_shedding(self):
        spec = PolicySpec(rate=0.5, backoff=True, backoff_threshold=0.5,
                          backoff_window=4)
        state = spec.state()
        for frac in (0.9, 0.9, 0.9, 0.9):
            state.note_occupancy(frac)
        assert state.shedding and state.shed_windows == 1
        for frac in (0.1, 0.1, 0.1, 0.1):
            state.note_occupancy(frac)
        assert not state.shedding

    def test_no_backoff_means_no_controller(self):
        state = PolicySpec(rate=0.5).state()
        for _ in range(200):
            state.note_occupancy(1.0)
        assert not state.shedding
