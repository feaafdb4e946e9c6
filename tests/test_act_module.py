"""Tests for the ACT Module's online testing/training behaviour."""

import numpy as np
import pytest

from repro.core.act_module import ACTModule, Mode
from repro.core.config import ACTConfig
from repro.core.encoding import DepEncoder
from repro.trace.raw import RawDep


def _module(seq_len=2, window=10, threshold=0.3, seed=0):
    cfg = ACTConfig(seq_len=seq_len, check_window=window,
                    mispred_threshold=threshold)
    pcs = [0x100 + 4 * i for i in range(20)]
    return ACTModule(config=cfg, encoder=DepEncoder(pcs=pcs), seed=seed)


def _dep(i, j=None):
    return RawDep(0x100 + 4 * i, 0x100 + 4 * (j if j is not None else i + 1))


class TestWarmup:
    def test_first_deps_produce_no_prediction(self):
        m = _module(seq_len=3)
        assert m.process_dep(_dep(0)) is None
        assert m.process_dep(_dep(1)) is None
        assert m.process_dep(_dep(2)) is not None

    def test_stats_count_all_deps(self):
        m = _module(seq_len=3)
        for i in range(5):
            m.process_dep(_dep(i))
        assert m.stats.deps_processed == 5
        assert m.stats.predictions == 3


class TestLogging:
    def test_invalid_predictions_logged(self):
        m = _module()
        for i in range(30):
            rec = m.process_dep(_dep(i % 6))
        logged = len(m.debug_buffer.entries) + \
            (m.debug_buffer.total_logged - len(m.debug_buffer.entries))
        assert logged == m.stats.invalid_predictions

    def test_record_fields_consistent(self):
        m = _module()
        m.process_dep(_dep(0))
        output = m.process_dep(_dep(1))
        invalid = output < 0.5
        assert m.stats.invalid_predictions == invalid
        assert len(m.debug_buffer) == invalid
        assert m.mode is Mode.TESTING


class TestModeSwitching:
    def test_high_misprediction_triggers_training(self):
        m = _module(window=10, threshold=0.3)
        # untrained random net: force deps until a window check happens
        switched = False
        for i in range(200):
            m.process_dep(_dep(i % 17, (i * 3) % 17))
            if m.mode is Mode.TRAINING:
                switched = True
                break
        # With a random initial network, some window exceeds 30%.
        assert switched or m.stats.invalid_predictions == 0

    def test_training_mode_learns_and_returns_to_testing(self):
        m = _module(window=20, threshold=0.2, seed=5)
        m.mode = Mode.TRAINING
        deps = [_dep(i % 4) for i in range(400)]
        for d in deps:
            m.process_dep(d)
        # after enough online training the recurring windows are learned
        assert m.mode is Mode.TESTING
        assert m.stats.online_trained > 0

    def test_window_counter_resets(self):
        m = _module(window=5)
        for i in range(12):
            m.process_dep(_dep(i % 3))
        # 12 deps, seq_len=3 warmup of 2 -> 11 predictions -> two full
        # windows of 5 and one leftover prediction
        assert m.stats.windows_checked == 2
        assert m._window_count == 1

    def test_window_rates_recorded(self):
        m = _module(window=5)
        for i in range(11):  # 10 predictions after 1-dep warmup
            m.process_dep(_dep(i % 3))
        assert len(m.stats.window_rates) == 2
        for rate in m.stats.window_rates:
            assert 0.0 <= rate <= 1.0


class TestOnlineTraining:
    def test_online_training_reduces_invalid_rate(self):
        m = _module(window=1000, seed=3)
        m.mode = Mode.TRAINING
        pattern = [_dep(0), _dep(1), _dep(2), _dep(3)]
        # run the same pattern repeatedly; count invalids per pass
        def one_pass():
            inv0 = m.stats.invalid_predictions
            for d in pattern * 5:
                m.process_dep(d)
            return m.stats.invalid_predictions - inv0
        first = one_pass()
        for _ in range(20):
            last = one_pass()
        assert last <= first

    def test_testing_mode_never_trains(self):
        # window larger than the run so no rate check (and hence no
        # mode flip) can happen
        m = _module(window=10_000)
        w_before = m.net.read_weights()
        for i in range(50):
            m.process_dep(_dep(i % 7))
        assert m.mode is Mode.TESTING
        assert np.allclose(w_before, m.net.read_weights())


class TestArchitecturalState:
    def test_save_restore_roundtrip(self):
        m = _module()
        saved = m.save_weights()
        m2 = _module(seed=99)
        m2.restore_weights(saved)
        assert np.allclose(m2.save_weights(), saved)


class TestWindowRateBounding:
    def test_window_rates_keep_only_tail(self):
        cfg = ACTConfig(seq_len=2, check_window=2, mispred_threshold=0.99,
                        window_rate_tail=5)
        pcs = [0x100 + 4 * i for i in range(20)]
        m = ACTModule(config=cfg, encoder=DepEncoder(pcs=pcs))
        for i in range(40):
            m.process_dep(_dep(i % 10))
        assert m.stats.windows_checked > 5
        assert len(m.stats.window_rates) == 5
        # Aggregates still cover every window, not just the tail.
        assert m.stats.window_rate_sum >= sum(m.stats.window_rates)
        assert m.stats.window_rate_max >= max(m.stats.window_rates)

    def test_mean_window_rate_exact(self):
        from repro.core.act_module import AMStats
        stats = AMStats()
        for rate in (0.0, 0.5, 1.0, 0.25):
            stats.record_window_rate(rate)
        assert stats.windows_checked == 4
        assert stats.mean_window_rate == pytest.approx(0.4375)
        assert stats.window_rate_max == 1.0

    def test_mean_window_rate_empty(self):
        from repro.core.act_module import AMStats
        assert AMStats().mean_window_rate == 0.0

    def test_tail_validated(self):
        with pytest.raises(Exception):
            ACTConfig(window_rate_tail=0)


class TestWindowOutputReuse:
    """Each distinct window is scored once per network weight version."""

    @staticmethod
    def _stream(n, seed):
        import random
        rng = random.Random(seed)
        return [RawDep(0x100 + 4 * rng.randrange(5),
                       0x100 + 4 * rng.randrange(5),
                       rng.random() < 0.3) for _ in range(n)]

    @staticmethod
    def _count_forward(net):
        calls = []
        forward = net.forward

        def counted(x):
            calls.append(1)
            return forward(x)
        net.forward = counted
        return calls

    @pytest.mark.parametrize("seed", [0, 4, 7])
    def test_records_match_scoring_every_window(self, seed):
        m = _module(seq_len=2, window=8, threshold=0.05, seed=seed)
        calls = self._count_forward(m.net)
        outputs = []
        for dep in self._stream(600, seed):
            before = m.net.clone()
            invalid_before = m.stats.invalid_predictions
            output = m.process_dep(dep)
            if output is None:
                continue
            outputs.append(output)
            # The reference encodes the window and runs the network at
            # the weights the step started from.
            seq = m.input_buffer.sequence(m.config.seq_len)
            reference = before.output(m.encoder.encode_seq(seq))
            assert output == reference
            assert (m.stats.invalid_predictions - invalid_before
                    == (reference < 0.5))
        assert m.stats.online_trained > 0
        assert m.stats.mode_switches > 0
        # Hits skipped the forward pass; every online update ran one.
        assert len(calls) - m.stats.online_trained < len(outputs)

    def test_repeated_window_scored_once(self):
        m = _module(seq_len=2, window=10_000)
        calls = self._count_forward(m.net)
        for _ in range(50):
            m.process_dep(_dep(0))
        assert m.stats.predictions == 49
        assert len(calls) == 1

    # Each case replaces the weights between two occurrences of the same
    # window; the second must be scored with the new weights.

    def _rescored(self, mutate):
        m = _module(seq_len=2, window=10_000)
        first = [m.process_dep(_dep(0)) for _ in range(3)][-1]
        mutate(m)
        output = [m.process_dep(_dep(0)) for _ in range(3)][-1]
        seq = m.input_buffer.sequence(m.config.seq_len)
        assert output == m.net.output(m.encoder.encode_seq(seq))
        assert output != first

    @staticmethod
    def _zeros(m):
        return np.zeros(m.net.n_weight_registers)

    def test_restore_weights_invalidates(self):
        self._rescored(lambda m: m.restore_weights(self._zeros(m)))

    def test_heal_write_weights_invalidates(self):
        from types import SimpleNamespace

        from repro.core.deploy import _heal_module

        def damage_then_heal(m):
            flat = m.save_weights()
            flat[0] = np.nan
            m.restore_weights(flat)
            m.process_dep(_dep(0))  # scored with the damaged weights
            trained = SimpleNamespace(default_weights=self._zeros(m))
            assert _heal_module(m, trained, 0, None) is m
        self._rescored(damage_then_heal)

    def test_new_network_object_invalidates(self):
        from repro.nn.network import OneHiddenLayerNet

        def swap(m):
            net = OneHiddenLayerNet(m.net.n_inputs, m.net.n_hidden, seed=7,
                                    sigmoid=m.net.sigmoid)
            assert net.version == m.net.version
            m.net = net
        self._rescored(swap)
