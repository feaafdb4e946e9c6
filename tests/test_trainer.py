"""Tests for offline training and topology search."""

import hashlib
import json
import pathlib

from dataclasses import replace

import numpy as np
import pytest

from repro.nn.network import OneHiddenLayerNet
from repro.nn.trainer import (
    TrainConfig,
    evaluate_misprediction,
    search_topology,
    train_network,
)
from repro.workloads.registry import all_bug_names, get_bug


def _blobs(n_per=20, dim=4, seed=0, means=(0.25, 0.75), sd=0.05):
    rng = np.random.default_rng(seed)
    pos = rng.normal(means[0], sd, size=(n_per, dim))
    neg = rng.normal(means[1], sd, size=(n_per, dim))
    return pos, neg


class TestTrainNetwork:
    def test_fits_separable_blobs(self):
        pos, neg = _blobs()
        result = train_network(pos, neg, n_hidden=4)
        assert result.train_error == 0.0

    def test_margin_reported(self):
        pos, neg = _blobs()
        result = train_network(pos, neg, n_hidden=4)
        assert result.worst_margin > 0.0

    def test_counts_are_original_not_balanced(self):
        pos, neg = _blobs()
        result = train_network(pos, neg[:5], n_hidden=4)
        assert result.n_positives == len(pos)
        assert result.n_negatives == 5

    def test_deterministic_given_seed(self):
        pos, neg = _blobs()
        cfg = TrainConfig(seed=3)
        r1 = train_network(pos, neg, 4, config=cfg)
        r2 = train_network(pos, neg, 4, config=cfg)
        assert np.array_equal(r1.net.read_weights(), r2.net.read_weights())

    def test_no_negatives_trains_positive_only(self):
        pos, _ = _blobs()
        result = train_network(pos, None, n_hidden=3)
        out = result.net.predict_batch(pos)
        assert (out >= 0.5).all()

    def test_sgd_mode_also_fits(self):
        pos, neg = _blobs(n_per=10)
        cfg = TrainConfig(batch=False, max_epochs=150, restarts=2)
        result = train_network(pos, neg, n_hidden=4, config=cfg)
        assert result.train_error <= 0.1

    def test_balance_replicates_minority(self):
        pos, neg = _blobs()
        cfg = TrainConfig(balance_classes=True)
        result = train_network(pos, neg[:2], n_hidden=4, config=cfg)
        # still separates despite 20:2 imbalance
        assert result.train_error == 0.0

    def test_restart_improves_over_single(self):
        pos, neg = _blobs(n_per=8, seed=5)
        single = train_network(pos, neg, 2, config=TrainConfig(restarts=1,
                                                               max_epochs=50))
        multi = train_network(pos, neg, 2, config=TrainConfig(restarts=5,
                                                              max_epochs=50))
        assert (multi.train_error, -multi.worst_margin) <= \
               (single.train_error, -single.worst_margin)


def _batch_step(ts):
    """One full-batch epoch of a single network on the distinct examples
    of ``ts`` with their class-balancing weights."""
    xs1 = np.hstack([ts.xs, np.ones((len(ts.xs), 1))])

    def epoch_step(w_h, w_o):
        h = 1.0 / (1.0 + np.exp(-(w_h @ xs1.T)))
        o = 1.0 / (1.0 + np.exp(-((w_o[None, :-1] @ h)[0] + w_o[-1])))
        err_rate = float((((o >= 0.5) != ts.labels) @ ts.weights) / ts.n)
        d_o = (ts.targets - o) * ts.weights
        d_h = h * (1.0 - h) * (w_o[:-1, None] * d_o[None, :])
        g_o = np.concatenate([(h @ d_o[:, None])[:, 0], [d_o.sum()]])
        return err_rate, g_o / ts.n, (d_h @ xs1) / ts.n

    return epoch_step


def _reference_batch(positives, negatives, n_hidden, cfg):
    """The full-batch trainer as it was before restarts were stacked:
    each restart fitted alone, in order, on the distinct examples with
    their class-balancing weights."""
    from repro.nn.trainer import _training_set

    ts = _training_set(positives, negatives, cfg)
    return _restart_scan(_batch_step(ts), ts.xs, ts.labels, n_hidden, cfg,
                         ts.n_pos, ts.n_neg)


def _tiled_reference_batch(positives, negatives, n_hidden, cfg):
    """The one-restart-at-a-time loop on the tiled balanced set that the
    trainer built before weighting examples: the minority class copied
    with ``np.tile`` up to the majority's size."""
    pos = np.atleast_2d(np.asarray(positives, dtype=float))
    neg = np.atleast_2d(np.asarray(negatives, dtype=float))
    train_pos, train_neg = pos, neg
    if cfg.balance_classes and len(neg) < len(pos):
        train_neg = np.tile(neg, (-(-len(pos) // len(neg)), 1))[:len(pos)]
    elif cfg.balance_classes and len(pos) < len(neg):
        train_pos = np.tile(pos, (-(-len(neg) // len(pos)), 1))[:len(neg)]
    xs = np.vstack([train_pos, train_neg])
    targets = np.concatenate([np.full(len(train_pos), cfg.positive_target),
                              np.full(len(train_neg), cfg.negative_target)])
    labels = targets >= 0.5
    n = len(xs)

    def epoch_step(w_h, w_o):
        h_in = xs @ w_h[:, :-1].T + w_h[:, -1]
        h = 1.0 / (1.0 + np.exp(-h_in))
        o_in = h @ w_o[:-1] + w_o[-1]
        o = 1.0 / (1.0 + np.exp(-o_in))
        err_rate = float(np.mean((o >= 0.5) != labels))
        d_o = targets - o
        d_h = h * (1.0 - h) * np.outer(d_o, w_o[:-1])
        g_o = np.concatenate([d_o @ h, [d_o.sum()]]) / n
        g_h = np.hstack([d_h.T @ xs, d_h.sum(axis=0)[:, None]]) / n
        return err_rate, g_o, g_h

    return _restart_scan(epoch_step, xs, labels, n_hidden, cfg, len(pos),
                         len(neg))


def _restart_scan(epoch_step, xs, labels, n_hidden, cfg, n_pos, n_neg):
    """Adam descent with ``epoch_step(w_h, w_o) -> (error rate, output
    gradient, hidden gradient)``, one restart at a time, each stopped
    where the first fit stops the stack; returns the best restart."""
    nets = [OneHiddenLayerNet(xs.shape[1], n_hidden, seed=cfg.seed + 7919 * r)
            for r in range(max(1, cfg.restarts))]
    results = _stack_alone(epoch_step, xs, labels, nets, cfg, n_pos, n_neg)
    best = None
    for result in results:
        if best is None or ((result.train_error, -result.worst_margin)
                            < (best.train_error, -best.worst_margin)):
            best = result
    best.restart_epochs = [result.epochs for result in results]
    return best


def _stack_alone(epoch_step, xs, labels, nets, cfg, n_pos, n_neg):
    """What the stacked loop gives each of ``nets``, from fits of one
    network at a time: each restart is fitted alone to its own stop,
    and if any of them stopped on its patience, every restart is
    fitted again up to the earliest such epoch (copies of ``nets``)."""
    fits = [_fit_alone(epoch_step, xs, labels, net.clone(), cfg, n_pos,
                       n_neg) for net in nets]
    stops = [result.epochs for result, fitted in fits if fitted]
    if not stops:
        return [result for result, _ in fits]
    return [_fit_alone(epoch_step, xs, labels, net.clone(), cfg, n_pos,
                       n_neg, stop_at=min(stops))[0] for net in nets]


def _fit_alone(epoch_step, xs, labels, net, cfg, n_pos, n_neg, stop_at=None):
    """Adam descent of ``net`` alone, in place, to its own
    patience-after-fit stop, the epoch cap, or epoch ``stop_at`` (before
    that epoch's step); returns its result and whether the patience
    stop ended it."""
    from repro.nn.trainer import (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON,
                                  _result)

    w_h, w_o = net.w_hidden, net.w_out
    moments = [(np.zeros_like(w), np.zeros_like(w)) for w in (w_h, w_o)]
    history, err_rate, epoch, fit_epoch = [], 1.0, 0, None
    fitted = False
    for epoch in range(1, cfg.max_epochs + 1):
        err_rate, g_o, g_h = epoch_step(w_h, w_o)
        history.append(err_rate)
        if err_rate <= cfg.target_error:
            if fit_epoch is None:
                fit_epoch = epoch
            if epoch - fit_epoch >= cfg.patience_after_fit:
                fitted = True
                break
        else:
            fit_epoch = None
        if epoch == stop_at:
            break
        for w, g, (m, s) in zip((w_h, w_o), (g_h, g_o), moments):
            m *= ADAM_BETA1
            m += g * (1.0 - ADAM_BETA1)
            s *= ADAM_BETA2
            s += (g * g) * (1.0 - ADAM_BETA2)
            w += ((m / (1.0 - ADAM_BETA1 ** epoch))
                  / (np.sqrt(s / (1.0 - ADAM_BETA2 ** epoch)) + ADAM_EPSILON)
                  * cfg.step_size)
    return (_result(net, xs, labels, epoch, err_rate, history, n_pos, n_neg),
            fitted)


def _assert_same_training(expected, actual, rtol=0.0):
    if rtol:
        np.testing.assert_allclose(actual.net.read_weights(),
                                   expected.net.read_weights(), rtol=rtol)
    else:
        assert np.array_equal(expected.net.read_weights(),
                              actual.net.read_weights())
    assert (expected.epochs, expected.history, expected.train_error,
            expected.worst_margin, expected.restart_epochs) == (
        actual.epochs, actual.history, actual.train_error,
        actual.worst_margin, actual.restart_epochs)


def _served(result, cfg):
    """Whether ``result`` held ``target_error`` for its last
    ``patience_after_fit`` epochs: the patience that stops the stack."""
    last = result.history[-(cfg.patience_after_fit + 1):]
    return (len(last) == cfg.patience_after_fit + 1
            and max(last) <= cfg.target_error)


def _fit_each(pos, neg, n_hidden, cfg):
    """Every restart's result from the stacked loop, each checked
    against the same restart fitted alone by the reference loop up
    to the stack's stop epoch."""
    from repro.nn.trainer import _fit_restarts, _training_set

    ts = _training_set(pos, neg, cfg)
    nets = [OneHiddenLayerNet(ts.xs.shape[1], n_hidden,
                              seed=cfg.seed + 7919 * r)
            for r in range(cfg.restarts)]
    expected = _stack_alone(_batch_step(ts), ts.xs, ts.labels, nets,
                            cfg, ts.n_pos, ts.n_neg)
    actual = _fit_restarts(ts, nets, cfg)
    for want, got in zip(expected, actual):
        _assert_same_training(want, got)
    return actual


def _overlapping(seed):
    """Overlapping classes that no restart fits exactly."""
    return _blobs(n_per=12, dim=3, seed=seed, means=(0.4, 0.6), sd=0.15)


class TestStackedRestarts:
    """The stacked full-batch loop against the one-restart-at-a-time
    reference, bit for bit up to the stack's stop epoch, across the
    stop rules."""

    @pytest.mark.parametrize("changes", [
        {},
        {"max_epochs": 7},             # every restart hits the cap
        {"patience_after_fit": 0},     # stop on the first fitted epoch
        {"restarts": 1},
        {"max_epochs": 0},
        {"step_size": 0.05},
        {"balance_classes": False, "restarts": 3},
    ])
    def test_matches_reference(self, changes):
        pos, neg = _blobs(n_per=9, dim=4, seed=2)
        cfg = TrainConfig(**{"seed": 5, "max_epochs": 400, **changes})
        _assert_same_training(_reference_batch(pos, neg[:4], 3, cfg),
                              train_network(pos, neg[:4], 3, config=cfg))

    def test_target_error_above_zero(self):
        pos, neg = _overlapping(1)
        cfg = TrainConfig(seed=1, max_epochs=300, target_error=0.1,
                          patience_after_fit=20)
        results = _fit_each(pos, neg[:7], 3, cfg)
        assert all(0.0 < r.train_error <= cfg.target_error
                   for r in results)
        assert all(r.epochs < cfg.max_epochs for r in results)

    def test_fit_lost_restarts_the_patience(self):
        pos, neg = _overlapping(3)
        cfg = TrainConfig(seed=3, max_epochs=300, target_error=0.05,
                          patience_after_fit=20)
        results = _fit_each(pos, neg[:7], 3, cfg)
        for r in results:
            first_fit = next(i for i, e in enumerate(r.history)
                             if e <= cfg.target_error)
            # Fitted, lost the fit, and ran past the first patience.
            assert max(r.history[first_fit:]) > cfg.target_error
            assert r.epochs > first_fit + 1 + cfg.patience_after_fit

    def test_stop_on_the_last_epoch(self):
        pos, neg = _overlapping(3)
        cfg = TrainConfig(seed=3, max_epochs=76, target_error=0.05,
                          patience_after_fit=20)
        results = _fit_each(pos, neg[:7], 3, cfg)
        # Restart 1's patience runs out on the cap's own epoch: the
        # stack stops before that epoch's step, as without the cap.
        assert [r.epochs for r in results] == [76] * 5
        assert max(results[1].history[-21:]) <= cfg.target_error
        uncapped = _fit_each(pos, neg[:7], 3,
                                  replace(cfg, max_epochs=300))
        for capped, free in zip(results, uncapped):
            _assert_same_training(free, capped)

    def test_restarts_stop_on_the_same_epoch(self):
        pos, neg = _overlapping(10)
        cfg = TrainConfig(seed=10, max_epochs=300, target_error=0.1,
                          patience_after_fit=20)
        results = _fit_each(pos, neg[:7], 3, cfg)
        # Restarts 2 and 3 serve their patience on the same epoch, the
        # stack's last.
        assert [r.epochs for r in results] == [38] * 5
        assert [_served(r, cfg) for r in results] == [False, False, True,
                                                     True, False]

    def test_fit_from_trained_weights(self):
        from repro.nn.trainer import _training_set, fit_from

        pos, neg = _blobs(n_per=9, dim=4, seed=2)
        cfg = TrainConfig(seed=5, max_epochs=400)
        trained = train_network(pos, neg[:4], 3, config=cfg).net
        new_pos, new_neg = _blobs(n_per=7, dim=4, seed=8)
        ts = _training_set(new_pos, new_neg[:5], cfg)
        expected, _ = _fit_alone(_batch_step(ts), ts.xs, ts.labels,
                                 trained.clone(), cfg, ts.n_pos, ts.n_neg)
        result = fit_from(trained, new_pos, new_neg[:5], config=cfg)
        assert result.net is trained
        assert 1 < result.epochs < cfg.max_epochs
        _assert_same_training(expected, result)


class TestFirstFit:
    """The first restart to serve its patience stops the whole stack;
    the restarts are compared there. ``fit_from`` fits one network, so
    its own patience stops it
    (``TestStackedRestarts::test_fit_from_trained_weights``)."""

    def test_stack_stops_on_the_first_patience_epoch(self):
        pos, neg = _overlapping(3)
        cfg = TrainConfig(seed=3, max_epochs=300, target_error=0.05,
                          patience_after_fit=20)
        results = _fit_each(pos, neg[:7], 3, cfg)
        # Fitted alone, restart 1 stops first; the stack stops with it.
        from repro.nn.trainer import _training_set

        ts = _training_set(pos, neg[:7], cfg)
        alone = [_fit_alone(_batch_step(ts), ts.xs, ts.labels,
                            OneHiddenLayerNet(3, 3, seed=cfg.seed + 7919 * r),
                            cfg, ts.n_pos, ts.n_neg)[0].epochs
                 for r in range(cfg.restarts)]
        assert min(alone) == alone[1] == 76 < min(alone[:1] + alone[2:])
        assert [r.epochs for r in results] == [76] * 5
        assert [_served(r, cfg) for r in results] == [False, True, False,
                                                     False, False]

    def test_unserved_fit_can_win_on_margin(self):
        pos, neg = _overlapping(11)
        cfg = TrainConfig(seed=11, max_epochs=300, target_error=0.1,
                          patience_after_fit=20)
        results = _fit_each(pos, neg[:7], 3, cfg)
        best = train_network(pos, neg[:7], 3, config=cfg)
        # Restart 2 served its patience and stopped the stack; restart
        # 4 has fitted too, for fewer epochs, and has the wider margin.
        assert [_served(r, cfg) for r in results] == [False, False, True,
                                                     False, False]
        assert results[2].train_error == results[4].train_error == 0.0
        assert results[4].worst_margin > results[2].worst_margin
        assert np.array_equal(best.net.read_weights(),
                              results[4].net.read_weights())
        assert best.worst_margin == results[4].worst_margin

    def test_restart_epochs_all_equal_the_stop_epoch(self):
        pos, neg = _blobs(n_per=8, seed=5)
        cfg = TrainConfig(seed=1, max_epochs=300)
        result = train_network(pos, neg, 2, config=cfg)
        assert result.restart_epochs == [result.epochs] * 5
        assert result.epochs < cfg.max_epochs
        _assert_same_training(_reference_batch(pos, neg, 2, cfg), result)

    @pytest.mark.parametrize("max_epochs,cap_hits", [(300, 0), (100, 5)])
    def test_cap_hits_count_only_the_cap(self, max_epochs, cap_hits):
        from repro import telemetry

        pos, neg = _overlapping(9)
        cfg = TrainConfig(seed=9, max_epochs=max_epochs, target_error=0.05,
                          patience_after_fit=20)
        # Fitted alone, restarts 1 and 2 would run into a 300-epoch
        # cap; restart 4 stops the stack at 112 first.
        registry = telemetry.Registry()
        with telemetry.use_registry(registry):
            result = train_network(pos, neg[:7], 3, config=cfg)
        epochs = min(112, max_epochs)
        assert result.restart_epochs == [epochs] * 5
        counters = registry.snapshot()["counters"]
        assert counters["nn.epochs_run"] == 5 * epochs
        assert counters["nn.epoch_cap_hits"] == cap_hits


class TestOutputDelta:
    """What one full-batch step is: Adam on the weighted mean binary
    cross-entropy (the ``t - o`` output delta)."""

    def test_step_is_the_cross_entropy_gradient(self):
        pos, neg = _blobs(n_per=3, dim=2, seed=4)
        neg = neg[:1]  # balancing repeats the one negative 3 times
        cfg = TrainConfig(seed=4, restarts=1, max_epochs=1)
        start = OneHiddenLayerNet(2, 2, seed=cfg.seed)
        result = train_network(pos, neg, 2, config=cfg)
        assert result.epochs == 1

        xs = np.vstack([pos, neg])
        targets = np.array([cfg.positive_target] * 3
                           + [cfg.negative_target])
        weights = np.array([1.0, 1.0, 1.0, 3.0])

        def loss(flat):
            w_h = flat[:6].reshape(2, 3)
            w_o = flat[6:]
            h = 1.0 / (1.0 + np.exp(-(xs @ w_h[:, :-1].T + w_h[:, -1])))
            o = 1.0 / (1.0 + np.exp(-(h @ w_o[:-1] + w_o[-1])))
            bce = -(targets * np.log(o) + (1 - targets) * np.log(1 - o))
            return (weights @ bce) / weights.sum()

        w0 = start.read_weights()
        eps = 1e-6
        grad = np.array([
            (loss(w0 + eps * e) - loss(w0 - eps * e)) / (2 * eps)
            for e in np.eye(len(w0))])
        # Adam's bias-corrected first step is the gradient over its own
        # magnitude (plus epsilon): every weight moves by step_size,
        # against the slope.
        from repro.nn.trainer import ADAM_EPSILON

        assert np.abs(grad).min() > 1e-4
        step = result.net.read_weights() - w0
        np.testing.assert_allclose(
            step, -cfg.step_size * np.sign(grad)
            * (np.abs(grad) / (np.abs(grad) + ADAM_EPSILON)), rtol=1e-7)
        np.testing.assert_allclose(step, -cfg.step_size * np.sign(grad),
                                   rtol=1e-5)


class TestWeightedExamples:
    """Class balancing weights the distinct examples instead of copying
    the minority class: the same fit as the tiled balanced set."""

    @pytest.mark.parametrize("n_pos,n_neg", [(9, 4), (3, 8), (6, 6)])
    def test_matches_tiled_balanced_set(self, n_pos, n_neg):
        pos, neg = _blobs(n_per=9, dim=4, seed=2)
        cfg = TrainConfig(seed=5, max_epochs=400)
        _assert_same_training(
            _tiled_reference_batch(pos[:n_pos], neg[:n_neg], 3, cfg),
            train_network(pos[:n_pos], neg[:n_neg], 3, config=cfg),
            rtol=1e-9)

    @pytest.mark.parametrize("n_pos,n_neg,weights", [
        (5, 2, [1, 1, 1, 1, 1, 3, 2]),
        (2, 7, [4, 3, 1, 1, 1, 1, 1, 1, 1]),
        (3, 3, [1] * 6),
        (4, 0, [1] * 4),
    ])
    def test_weights_count_tiled_copies(self, n_pos, n_neg, weights):
        from repro.nn.trainer import _training_set

        pos, neg = _blobs(n_per=7, dim=2)
        ts = _training_set(pos[:n_pos], neg[:n_neg], TrainConfig())
        assert ts.weights.tolist() == weights
        assert ts.n == sum(weights)
        assert len(ts.xs) == n_pos + n_neg

    def test_tiled_order_is_the_tiled_set(self):
        from repro.nn.trainer import _training_set

        pos, neg = _blobs(n_per=7, dim=2)
        ts = _training_set(pos, neg[:3], TrainConfig())
        tiled = np.vstack([pos, np.tile(neg[:3], (3, 1))[:7]])
        assert np.array_equal(ts.xs[ts.tiled_order()], tiled)

    @pytest.mark.parametrize("empty", [[], None, np.empty((0, 4))])
    def test_empty_negatives(self, empty):
        pos, _ = _blobs(n_per=6)
        result = train_network(pos, empty, 3,
                               config=TrainConfig(max_epochs=50))
        assert (result.n_positives, result.n_negatives) == (6, 0)
        assert result.net.n_inputs == 4

    @pytest.mark.parametrize("empty", [[], None, np.empty((0, 4))])
    def test_empty_positives(self, empty):
        _, neg = _blobs(n_per=6)
        result = train_network(empty, neg, 3,
                               config=TrainConfig(max_epochs=50))
        assert (result.n_positives, result.n_negatives) == (0, 6)
        assert (result.net.predict_batch(neg) < 0.5).all()

    def test_no_examples_is_an_error(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError, match="at least one example"):
            train_network([], np.empty((0, 4)), 3)

    def test_sgd_path_trains_on_the_tiled_order(self):
        from repro.nn.trainer import _fit_sgd

        pos, neg = _blobs(n_per=9, dim=4, seed=2)
        cfg = TrainConfig(batch=False, seed=3, max_epochs=20, restarts=1)
        net = OneHiddenLayerNet(4, 3, seed=3)
        xs = np.vstack([pos, np.tile(neg[:4], (3, 1))[:9]])
        targets = np.array([cfg.positive_target] * 9
                           + [cfg.negative_target] * 9)
        expected = _fit_sgd(net, xs, targets, targets >= 0.5, cfg, 3)
        result = train_network(pos, neg[:4], 3, config=cfg)
        assert (result.epochs, result.train_error, result.history) == \
            expected
        assert np.array_equal(result.net.read_weights(), net.read_weights())


class TestRestarts:
    """The restart scan and its counters, on TinyBug's training set:
    restart 4 serves its patience first and stops the stack at epoch
    77, where restart 1, fitted but still within its patience, wins on
    margin."""

    @pytest.fixture
    def tinybug_set(self, tinybug, monkeypatch):
        from repro.core import offline
        from repro.core.config import ACTConfig

        calls = []
        real = offline.train_network

        def recording(positives, negatives, n_hidden, **kwargs):
            calls.append((positives, negatives, n_hidden, kwargs["config"]))
            return real(positives, negatives, n_hidden, **kwargs)

        monkeypatch.setattr(offline, "train_network", recording)
        offline.OfflineTrainer(
            config=ACTConfig(seq_len=3, check_window=20)).train(
                tinybug, n_runs=4, seed0=0)
        (call,) = calls
        return call

    def _train(self, tinybug_set, **changes):
        from dataclasses import replace

        from repro import telemetry

        pos, neg, n_hidden, cfg = tinybug_set
        registry = telemetry.Registry()
        with telemetry.use_registry(registry):
            result = train_network(pos, neg, n_hidden,
                                   config=replace(cfg, **changes))
        return result, registry.snapshot()

    def test_restart_epochs_in_restart_order(self, tinybug_set):
        result, snap = self._train(tinybug_set)
        assert result.restart_epochs == [77] * 5
        assert result.epochs == 77
        assert snap["counters"]["nn.train_restarts"] == 4
        assert snap["counters"]["nn.epochs_run"] == 385
        assert snap["counters"]["nn.epoch_cap_hits"] == 0
        assert snap["histograms"]["nn.epoch_error"]["count"] == 385

    def test_lockstep_restart_changes_nothing(self, tinybug_set):
        # Restart 5 shares the stack with restarts 0-4 and would serve
        # its patience after restart 4 does, so it leaves their fits as
        # they are; restart 1 wins either way.
        six, _ = self._train(tinybug_set, restarts=6)
        five, _ = self._train(tinybug_set)
        assert np.array_equal(six.net.read_weights(),
                              five.net.read_weights())
        assert (six.epochs, six.history, six.worst_margin) == (
            five.epochs, five.history, five.worst_margin)
        assert six.restart_epochs[:5] == five.restart_epochs

    def test_equals_one_restart_at_a_time(self, tinybug_set):
        pos, neg, n_hidden, cfg = tinybug_set
        _assert_same_training(_reference_batch(pos, neg, n_hidden, cfg),
                              train_network(pos, neg, n_hidden, config=cfg))

    def test_equals_tiled_balanced_set(self, tinybug_set):
        pos, neg, n_hidden, cfg = tinybug_set
        _assert_same_training(
            _tiled_reference_batch(pos, neg, n_hidden, cfg),
            train_network(pos, neg, n_hidden, config=cfg), rtol=1e-9)

    def test_epoch_cap_hits_counted(self, tinybug_set):
        result, snap = self._train(tinybug_set, max_epochs=20)
        assert result.restart_epochs == [20] * 5
        assert snap["counters"]["nn.train_restarts"] == 4
        assert snap["counters"]["nn.epochs_run"] == 100
        assert snap["counters"]["nn.epoch_cap_hits"] == 5
        assert snap["histograms"]["nn.epoch_error"]["count"] == 100

    def test_sgd_path_reports_restart_epochs(self):
        pos, neg = _blobs(n_per=6)
        cfg = TrainConfig(batch=False, max_epochs=5, restarts=2)
        result = train_network(pos, neg, 3, config=cfg)
        assert result.restart_epochs == [5, 5]


class TestEvaluate:
    def test_false_positive_only(self):
        pos, neg = _blobs()
        net = train_network(pos, neg, 4).net
        assert evaluate_misprediction(net, pos, None) == 0.0

    def test_false_negative_only(self):
        pos, neg = _blobs()
        net = train_network(pos, neg, 4).net
        assert evaluate_misprediction(net, None, neg) == 0.0

    def test_empty_sets(self):
        pos, neg = _blobs()
        net = train_network(pos, neg, 4).net
        assert evaluate_misprediction(net, None, None) == 0.0

    def test_mixed_rate(self):
        pos, neg = _blobs()
        net = train_network(pos, neg, 4).net
        # flip labels: everything is mispredicted
        rate = evaluate_misprediction(net, neg, pos)
        assert rate == 1.0


class TestSearchTopology:
    def test_selects_lowest_misprediction(self):
        sets = {}
        for n in (1, 2):
            dim = 2 * n
            pos, neg = _blobs(dim=dim, seed=n)
            sets[n] = (pos, neg, pos, neg)
        best, choices = search_topology(sets, hidden_widths=(2, 4))
        assert len(choices) == 4
        assert best.mispred_rate == min(c.mispred_rate for c in choices)

    def test_topology_string(self):
        pos, neg = _blobs(dim=4)
        best, _ = search_topology({2: (pos, neg, pos, neg)},
                                  hidden_widths=(3,))
        assert best.topology == "4-3-1"

    def test_tie_prefers_capacity(self):
        pos, neg = _blobs(dim=2, seed=1)
        best, choices = search_topology({1: (pos, neg, pos, neg)},
                                        hidden_widths=(2, 8))
        tied = [c for c in choices if c.mispred_rate == best.mispred_rate]
        assert best.n_hidden == max(c.n_hidden for c in tied)


GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: The seed-7 cold-corpus programs of the repository benchmark
#: (``perf/workloads.py``: ``stratified_corpus(7)``), trained with
#: ``ACTConfig(seq_len=3)`` on 6 runs.
CORPUS_COLD_S7 = (
    "gen-atomicity-producer_consumer-s390488",
    "gen-off_by_one-pointer_chase-s448364",
    "gen-off_by_one-pipeline-s614007",
    "gen-use_after_reset-producer_consumer-s732949",
    "gen-off_by_one-regular-s85832",
    "gen-buffer_index-producer_consumer-s550709",
    "gen-order-pointer_chase-s608065",
    "gen-buffer_index-pipeline-s678564",
    "gen-order-producer_consumer-s606021",
    "gen-order-pipeline-s751439",
    "gen-atomicity-regular-s986342",
    "gen-off_by_one-producer_consumer-s517675",
    "gen-use_after_reset-pointer_chase-s158253",
    "gen-atomicity-pipeline-s275510",
    "gen-atomicity-pointer_chase-s56616",
    "gen-use_after_reset-regular-s913289",
    "gen-order-regular-s836631",
    "gen-use_after_reset-pipeline-s107353",
    "gen-buffer_index-pointer_chase-s106394",
    "gen-buffer_index-regular-s643551",
)


def _sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes)
                 else json.dumps(part).encode())
    return h.hexdigest()


def _trained_networks(name, seq_len, n_runs, monkeypatch):
    """Every network offline training of ``name`` fits, as digests of
    its inputs and of its result (weights, epochs, history, margin)."""
    from repro.core import offline
    from repro.core.config import ACTConfig

    real = offline.train_network
    networks = []

    def recording(positives, negatives, n_hidden, **kwargs):
        result = real(positives, negatives, n_hidden, **kwargs)
        pos = np.asarray(positives, dtype=float)
        neg = np.asarray(negatives, dtype=float)
        networks.append({
            "inputs": _sha(pos.tobytes(), list(pos.shape), neg.tobytes(),
                           list(neg.shape), n_hidden),
            "epochs": result.epochs,
            "history": _sha(result.history),
            "result": _sha(result.net.read_weights().tobytes(),
                           result.epochs, result.history,
                           result.worst_margin, result.train_error),
        })
        return result

    with monkeypatch.context() as m:
        m.setattr(offline, "train_network", recording)
        offline.OfflineTrainer(config=ACTConfig(seq_len=seq_len)).train(
            get_bug(name), n_runs=n_runs, seed0=0)
    return networks


def _float_platform():
    """What the float bits of a training run depend on besides the
    code: the numpy build (its ``exp`` kernels), the BLAS library and
    the SIMD extensions both dispatch on."""
    import platform

    config = getattr(np, "__config__", None)
    config = getattr(config, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {}).get("found", [])
    return (f"{platform.machine()} numpy {np.__version__} "
            f"{blas.get('name')} {blas.get('version')} simd "
            + "+".join(simd))


@pytest.mark.slow
class TestTrainerGolden:
    """Batch training reproduces the networks the one-restart-at-a-time
    loop fitted (``tests/golden/trainer_s7.json``): bit for bit on the
    float platform the golden was generated on, and elsewhere the same
    training sets, epoch counts and error histories (last-ulp
    differences in ``exp`` or BLAS kernels move the weights, not these).
    """

    def _check(self, section, actual, update):
        path = GOLDEN_DIR / "trainer_s7.json"
        doc = (json.loads(path.read_text(encoding="utf-8"))
               if path.exists() else {})
        if update:
            doc["platform"] = _float_platform()
            doc[section] = actual
            path.write_text(json.dumps(doc, sort_keys=True, indent=1)
                            + "\n", encoding="utf-8")
            pytest.skip(f"updated {path.name} [{section}]")
        assert section in doc, "run pytest --update-golden first"
        expected = doc[section]
        if doc["platform"] != _float_platform():
            for nets in (actual, expected):
                for net in (n for ns in nets.values() for n in ns):
                    net.pop("result")
        assert actual == expected

    def test_corpus_cold_networks(self, monkeypatch, update_golden):
        actual = {name: _trained_networks(name, 3, 6, monkeypatch)
                  for name in CORPUS_COLD_S7}
        self._check("corpus_cold_s7", actual, update_golden)

    def test_bundled_bug_networks(self, monkeypatch, update_golden):
        actual = {name: _trained_networks(name, 5, 4, monkeypatch)
                  for name in all_bug_names()}
        self._check("bugs", actual, update_golden)
