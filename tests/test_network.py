"""Tests for the one-hidden-layer network and sigmoid table."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.nn.network import OneHiddenLayerNet, SigmoidTable


class TestSigmoidTable:
    def test_matches_exact_sigmoid(self):
        table = SigmoidTable(resolution=4096)
        xs = np.linspace(-7.5, 7.5, 101)
        exact = 1.0 / (1.0 + np.exp(-xs))
        assert np.max(np.abs(table(xs) - exact)) < 1e-2

    def test_saturates_outside_clip(self):
        table = SigmoidTable(clip=8.0)
        assert table(100.0) == pytest.approx(1.0, abs=1e-3)
        assert table(-100.0) == pytest.approx(0.0, abs=1e-3)

    def test_midpoint(self):
        table = SigmoidTable(resolution=4097)
        assert float(table(0.0)) == pytest.approx(0.5, abs=1e-3)

    def test_resolution_validation(self):
        with pytest.raises(ConfigError):
            SigmoidTable(resolution=1)

    def test_vectorised(self):
        table = SigmoidTable()
        out = table(np.zeros((3, 4)))
        assert out.shape == (3, 4)


class TestSharedSigmoidTable:
    """Tables of one ``(resolution, clip)`` share one read-only array."""

    def test_equal_tables_share_one_array(self):
        a, b = SigmoidTable(), SigmoidTable(2048, 8.0)
        assert a._table is b._table
        assert a._entries is b._entries
        assert SigmoidTable(1024)._table is not a._table
        assert SigmoidTable(clip=4.0)._table is not a._table

    def test_shared_array_is_read_only(self):
        table = SigmoidTable()
        with pytest.raises(ValueError):
            table._table[0] = 0.5
        assert not table._table.flags.writeable

    @pytest.mark.parametrize("resolution,clip", [(2048, 8.0), (257, 3.5)])
    def test_entries_are_the_exact_sigmoid(self, resolution, clip):
        table = SigmoidTable(resolution, clip)
        xs = np.linspace(-clip, clip, resolution)
        exact = 1.0 / (1.0 + np.exp(-xs))
        assert table._table.tobytes() == exact.tobytes()
        assert np.array(table._entries).tobytes() == exact.tobytes()


def _bits(value):
    """A float's exact bit pattern (NaN-safe equality for lookups)."""
    return np.float64(value).tobytes()


class TestSigmoidLookupDifferential:
    """``SigmoidTable.scalar`` equals the array lookup bit for bit."""

    def _check(self, table, xs):
        xs = np.asarray(xs, dtype=float)
        arr = table(xs)
        for x, a in zip(xs.tolist(), arr.tolist()):
            s = table.scalar(x)
            assert type(s) is float
            assert _bits(s) == _bits(a), x
            assert _bits(table(np.float64(x))) == _bits(a), x

    @pytest.mark.parametrize("resolution, clip", [(2048, 8.0), (1024, 6.0),
                                                  (2, 1.0)])
    def test_random_inputs(self, resolution, clip):
        rng = np.random.default_rng(resolution)
        table = SigmoidTable(resolution=resolution, clip=clip)
        self._check(table, np.concatenate([
            rng.normal(0.0, clip, 4000), rng.uniform(-2 * clip, 2 * clip,
                                                     4000)]))

    def test_exact_half_ties(self):
        # Inputs whose scaled index is exactly k + 0.5: round-half-even
        # must pick the same entry on both paths.
        table = SigmoidTable()
        res1 = table.resolution - 1
        ties = {}
        for k in range(0, res1, 7):
            x = (k + 0.5) * (2 * table.clip) / res1 - table.clip
            for _ in range(64):
                idx = (x + table.clip) * res1 / (2 * table.clip)
                if idx == k + 0.5:
                    ties[x] = k
                    break
                x = np.nextafter(x, np.inf if idx < k + 0.5 else -np.inf)
        assert len(ties) > 100
        self._check(table, list(ties))
        for x, k in ties.items():  # the even neighbour wins each tie
            assert table.scalar(x) == table._table[k + k % 2]

    def test_clip_edges_and_one_ulp_either_side(self):
        table = SigmoidTable()
        edges = []
        for c in (table.clip, -table.clip):
            edges += [c, np.nextafter(c, np.inf), np.nextafter(c, -np.inf)]
        self._check(table, edges)
        assert table.scalar(table.clip) == table._table[-1]
        assert table.scalar(-table.clip) == table._table[0]

    @pytest.mark.parametrize("x, entry", [
        pytest.param(np.inf, -1, id="+inf"),
        pytest.param(7.3e16, -1, id="+7.3e16"),
        pytest.param(1e17, -1, id="+1e17"),
        pytest.param(1e300, -1, id="+1e300"),
        pytest.param(-np.inf, 0, id="-inf"),
        pytest.param(-7.3e16, 0, id="-7.3e16"),
        pytest.param(-1e17, 0, id="-1e17"),
        pytest.param(-1e300, 0, id="-1e300"),
        pytest.param(np.nan, 0, id="nan"),
    ])
    def test_saturation(self, x, entry):
        # Past about +-7.2e16 the float index exceeds 2**63; it must
        # still saturate to the end entry on its side (NaN reads 0).
        table = SigmoidTable()
        expected = table._table[entry]
        assert table(x) == expected
        assert table(np.array([x, 0.0]))[0] == expected
        assert table.scalar(x) == expected


class TestForwardDifferential:
    @pytest.mark.parametrize("n_inputs", [10, 6])
    def test_forward_matches_reference_expression(self, n_inputs):
        rng = np.random.default_rng(n_inputs)
        for seed in range(20):
            net = OneHiddenLayerNet(n_inputs, 10, seed=seed,
                                    init_scale=0.5 + seed)
            sig = net.sigmoid
            w_h, w_o = net.w_hidden, net.w_out
            for x in rng.uniform(-1.0, 1.0, size=(50, n_inputs)):
                h_ref = sig(w_h[:, :-1] @ x + w_h[:, -1])
                o_ref = float(sig(w_o[:-1] @ h_ref + w_o[-1]))
                h, o = net.forward(x)
                assert h.tobytes() == h_ref.tobytes()
                assert _bits(o) == _bits(o_ref)


class TestNetworkStructure:
    def test_input_bounds_enforced(self):
        with pytest.raises(ConfigError):
            OneHiddenLayerNet(11, 5)
        with pytest.raises(ConfigError):
            OneHiddenLayerNet(0, 5)
        with pytest.raises(ConfigError):
            OneHiddenLayerNet(5, 11)

    def test_weight_register_count(self):
        net = OneHiddenLayerNet(4, 3)
        # hidden: 3 x (4+1), output: 3+1
        assert net.n_weight_registers == 15 + 4

    def test_weight_roundtrip(self):
        net = OneHiddenLayerNet(4, 3, seed=1)
        flat = net.read_weights()
        net2 = OneHiddenLayerNet(4, 3, seed=2)
        net2.write_weights(flat)
        x = np.ones(4) * 0.3
        assert net.output(x) == pytest.approx(net2.output(x))

    def test_built_from_weights_draws_nothing(self, monkeypatch):
        from repro.nn import network

        flat = OneHiddenLayerNet(4, 3, seed=1).read_weights()
        written = OneHiddenLayerNet(4, 3, seed=2)
        written.write_weights(flat)
        monkeypatch.setattr(network, "make_np_rng", None)  # any draw fails
        built = OneHiddenLayerNet(4, 3, seed=2, weights=flat)
        assert built.w_hidden.tobytes() == written.w_hidden.tobytes()
        assert built.w_out.tobytes() == written.w_out.tobytes()
        assert built.version == written.version
        flat[:] = 0.0
        assert built.read_weights().any()
        with pytest.raises(ConfigError):
            OneHiddenLayerNet(4, 3, weights=np.zeros(7))

    def test_write_weights_size_checked(self):
        net = OneHiddenLayerNet(4, 3)
        with pytest.raises(ConfigError):
            net.write_weights(np.zeros(7))

    def test_clone_independent(self):
        net = OneHiddenLayerNet(4, 3, seed=1)
        clone = net.clone()
        x = np.full(4, 0.2)
        before = clone.output(x)
        net.train_example(x, 1.0, lr=0.5)
        assert clone.output(x) == pytest.approx(before)

    def test_read_weights_returns_copy(self):
        net = OneHiddenLayerNet(2, 2, seed=0)
        flat = net.read_weights()
        flat[:] = 0
        assert net.read_weights().any()


class TestInference:
    def test_output_in_unit_interval(self):
        net = OneHiddenLayerNet(6, 4, seed=3)
        for _ in range(10):
            x = np.random.default_rng(1).random(6)
            assert 0.0 <= net.output(x) <= 1.0

    def test_margin_sign_convention(self):
        net = OneHiddenLayerNet(2, 2, seed=0)
        x = np.zeros(2)
        o = net.output(x)
        assert net.margin(x) == pytest.approx(o - 0.5)
        assert net.predict_valid(x) == (o >= 0.5)

    def test_predict_batch_matches_forward(self):
        net = OneHiddenLayerNet(4, 5, seed=9)
        xs = np.random.default_rng(2).random((8, 4))
        batch = net.predict_batch(xs)
        single = np.array([net.output(x) for x in xs])
        assert np.allclose(batch, single)

    def test_predict_batch_requires_2d(self):
        net = OneHiddenLayerNet(4, 5)
        with pytest.raises(ConfigError):
            net.predict_batch(np.zeros(4))

    @given(st.lists(st.floats(-1, 1), min_size=4, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_output_bounded_for_any_input(self, vals):
        net = OneHiddenLayerNet(4, 4, seed=5)
        out = net.output(np.array(vals))
        assert 0.0 <= out <= 1.0


class TestLearning:
    def test_train_example_moves_output_toward_target(self):
        net = OneHiddenLayerNet(3, 4, seed=2)
        x = np.array([0.3, 0.6, 0.9])
        before = net.output(x)
        for _ in range(50):
            net.train_example(x, 0.9, lr=0.5)
        after = net.output(x)
        assert abs(after - 0.9) < abs(before - 0.9)

    def test_train_toward_invalid(self):
        net = OneHiddenLayerNet(3, 4, seed=2)
        x = np.array([0.5, 0.1, 0.8])
        for _ in range(100):
            net.train_example(x, 0.1, lr=0.5)
        assert net.output(x) < 0.5

    def test_can_separate_two_points(self):
        net = OneHiddenLayerNet(2, 4, seed=4)
        a = np.array([0.2, 0.2])
        b = np.array([0.8, 0.8])
        for _ in range(300):
            net.train_example(a, 0.9, lr=0.5)
            net.train_example(b, 0.1, lr=0.5)
        assert net.predict_valid(a)
        assert not net.predict_valid(b)

    def test_train_returns_pre_update_output(self):
        net = OneHiddenLayerNet(2, 2, seed=1)
        x = np.array([0.4, 0.4])
        before = net.output(x)
        returned = net.train_example(x, 0.9, lr=0.2)
        assert returned == pytest.approx(before)
