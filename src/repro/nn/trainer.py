"""Offline network training and topology search.

Networks are fitted by full-batch Adam on the class-balanced training
set, with the cross-entropy output delta ``t - o``: the gradient of the
weighted mean binary cross-entropy, which does not stall on saturated
outputs the way the sigmoid-derivative delta ``o(1-o)(t-o)`` does.
Several restarts are stepped together, and the first one to fit stops
them all; the best of them, by training error and then worst-case
margin, wins. The per-example rule of the hardware's online training
(``OneHiddenLayerNet.train_example``) stays available as the
``batch=False`` path.

The topology search mirrors Section VI.B: it sweeps the number of RAW
dependences per input (``N`` from 1 to 5, i.e. input width 2N) and the
hidden width (1 to 10), selecting the topology with the lowest
misprediction rate on held-out test data.
"""

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from repro import telemetry
from repro.common.errors import ConfigError
from repro.common.rng import make_np_rng
from repro.nn.network import OneHiddenLayerNet

# Adam's moment decay rates and denominator guard (Kingma & Ba's
# defaults); with bias correction the first step is ``step_size`` times
# the sign of the gradient, whatever its scale.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class TrainConfig:
    """Hyper-parameters for offline back-propagation."""

    # Per-example step size of the ``batch=False`` path.
    learning_rate: float = 0.2
    max_epochs: int = 3000
    # Stop this many epochs after the training error first reaches
    # target_error (lets the margins harden without running the full
    # epoch budget). In the batch path the first restart to serve it
    # stops every restart.
    patience_after_fit: int = 50
    # Stop early once the training misclassification rate reaches this.
    target_error: float = 0.0
    # Margin targets: train valid examples toward 0.8 and invalid toward
    # 0.2. The ``t - o`` delta drives the training outputs to their
    # targets, so the targets set how confident the network is, also on
    # code it never saw. Online training steps with the sigmoid-
    # derivative delta, which cannot move a saturated output: at 0.9/0.1
    # a network fitted on an old binary scores its rewritten code near 0
    # and never adapts to it (docs/accuracy.md).
    positive_target: float = 0.8
    negative_target: float = 0.2
    shuffle: bool = True
    seed: int = 0
    # Weight the minority class's examples so positives and negatives
    # carry similar total weight during back-propagation, as if the
    # minority class were cycled up to the majority's size. Without
    # this the (few) synthesized negatives are drowned out and the
    # network defaults to "valid" on unseen sequences.
    balance_classes: bool = True
    # Independent training restarts; the run with the lowest training
    # error (ties: largest worst-case margin) wins. Memorising a small
    # pattern set with a tiny MLP is sensitive to the weight init, and
    # restarts are the standard cure. The batch path stops them all
    # once the first has fitted and served its patience.
    restarts: int = 5
    # Full-batch Adam on the cross-entropy delta ``t - o``, all restarts
    # stepped together until the first fits (deterministic, and orders
    # of magnitude faster in numpy than per-example steps). ``False``
    # selects per-example SGD with the sigmoid-derivative delta, the
    # rule the hardware's online-training mode uses.
    batch: bool = True
    # Adam's step size: the first step moves every weight by about this
    # much, and later steps scale it by the gradient's consistency.
    step_size: float = 0.2


#: The offline fit rule, named in trained-state keys next to the
#: :class:`TrainConfig` fields, so that state fitted by another rule
#: (the momentum descent this one replaced, say) is never reused.
FIT_RULE = "adam-first-fit"


def fit_identity(cfg):
    """JSON-safe identity of the offline fit: its rule and settings."""
    return {"rule": FIT_RULE, **asdict(cfg)}


@dataclass
class TrainResult:
    """Result of training one network."""

    net: OneHiddenLayerNet
    epochs: int
    train_error: float
    n_positives: int
    n_negatives: int
    history: list = field(default_factory=list)
    # Smallest signed distance from 0.5 over the training set, with the
    # sign flipped for negatives (so positive = correctly classified).
    worst_margin: float = 0.0
    # Epochs each restart ran, in restart order (the winner's own count
    # is ``epochs``).
    restart_epochs: list = field(default_factory=list)


def train_network(positives, negatives, n_hidden, config=None, seed=None,
                  max_inputs=10):
    """Train an ``i-h-1`` network on encoded example vectors.

    Runs ``config.restarts`` independent trainings and keeps the best:
    lowest training error, then largest worst-case margin, then the
    earliest restart. The batch path stops every restart on the epoch
    the first one to fit has served its patience.

    Args:
        positives: 2-D array of valid-sequence encodings.
        negatives: 2-D array of invalid-sequence encodings. Either class
            may be empty (``None``, ``[]`` or a ``(0, d)`` array), not
            both.
        n_hidden: hidden-layer width.
        config: :class:`TrainConfig`; defaults apply when omitted.
        seed: overrides ``config.seed`` when given.

    Returns:
        :class:`TrainResult` with the trained network.
    """
    cfg = config or TrainConfig()
    if seed is None:
        seed = cfg.seed
    seeds = [seed + 7919 * r for r in range(max(1, cfg.restarts))]
    if cfg.batch:
        ts = _training_set(positives, negatives, cfg)
        runs = _fit_restarts(ts, [
            OneHiddenLayerNet(ts.xs.shape[1], n_hidden, seed=s,
                              max_inputs=max_inputs) for s in seeds], cfg)
    else:
        runs = (_train_once(positives, negatives, n_hidden, cfg, s,
                            max_inputs) for s in seeds)
    best = None
    best_key = None
    restart_epochs = []
    epoch_errors = []
    tele = telemetry.get_registry()
    for result in runs:
        restart_epochs.append(result.epochs)
        if tele.enabled:
            epoch_errors.extend(result.history)
        key = (result.train_error, -result.worst_margin)
        if best_key is None or key < best_key:
            best, best_key = result, key
    best.restart_epochs = restart_epochs
    if tele.enabled:
        # One event per metric and network; zero deltas are not sent.
        tele.observe_many("nn.epoch_error", epoch_errors)
        if len(restart_epochs) > 1:
            tele.inc("nn.train_restarts", len(restart_epochs) - 1)
        tele.inc("nn.networks_trained")
        tele.inc("nn.train_epochs", best.epochs)
        tele.inc("nn.epochs_run", sum(restart_epochs))
        cap_hits = sum(e >= cfg.max_epochs for e in restart_epochs)
        if cap_hits:
            tele.inc("nn.epoch_cap_hits", cap_hits)
        tele.observe("nn.train_error", best.train_error)
    return best


class _TrainingSet(NamedTuple):
    """The full-batch training set: distinct rows plus balancing weights.

    ``xs`` holds each positive and each negative example once
    (positives first); ``weights[i]`` is how many times class balancing
    repeats row ``i`` -- the minority class is cycled, as
    ``np.tile(rows, reps)[:n_majority]`` would, until both classes have
    the majority's size. ``n`` is that balanced set's length: the
    divisor of the full-batch gradient and of the error rate.
    """

    xs: np.ndarray
    targets: np.ndarray
    labels: np.ndarray
    weights: np.ndarray
    n: int
    n_pos: int
    n_neg: int

    def tiled_order(self):
        """Row indices of the balanced set in its tiled order: each
        class's rows cycled up to the class's total weight."""
        counts = (int(self.weights[:self.n_pos].sum()),
                  int(self.weights[self.n_pos:].sum()))
        return np.concatenate([
            np.arange(counts[0]) % max(self.n_pos, 1),
            self.n_pos + np.arange(counts[1]) % max(self.n_neg, 1)])


def _class_rows(rows, dim):
    """``rows`` as a float matrix; an empty class (``None``, ``[]`` or a
    ``(0, d)`` array) becomes ``(0, dim)``."""
    if rows is None or len(rows) == 0:
        return np.empty((0, dim))
    return np.atleast_2d(np.asarray(rows, dtype=float))


def _cycle_weights(n_rows, size):
    """How often each of ``n_rows`` rows occurs among the first ``size``
    rows of the class cycled end to end."""
    return size // n_rows + (np.arange(n_rows) < size % n_rows)


def _training_set(positives, negatives, cfg):
    """The distinct examples, their targets, labels and class-balancing
    weights (see :class:`_TrainingSet`)."""
    dims = [np.shape(rows)[-1] for rows in (positives, negatives)
            if rows is not None and len(rows)]
    if not dims:
        raise ConfigError("train_network needs at least one example")
    pos = _class_rows(positives, dims[0])
    neg = _class_rows(negatives, dims[0])
    n_pos, n_neg = len(pos), len(neg)
    weights = np.ones(n_pos + n_neg, dtype=np.int64)
    if cfg.balance_classes and n_pos and n_neg:
        size = max(n_pos, n_neg)
        weights[:n_pos] = _cycle_weights(n_pos, size)
        weights[n_pos:] = _cycle_weights(n_neg, size)
    targets = np.concatenate([np.full(n_pos, cfg.positive_target),
                              np.full(n_neg, cfg.negative_target)])
    return _TrainingSet(np.vstack([pos, neg]), targets, targets >= 0.5,
                        weights, int(weights.sum()), n_pos, n_neg)


def _result(net, xs, labels, epoch, err_rate, history, n_pos, n_neg):
    """Score a trained network's worst margin on its training set."""
    outputs = net.predict_batch(xs)
    margins = np.where(labels, outputs - 0.5, 0.5 - outputs)
    return TrainResult(net=net, epochs=epoch, train_error=err_rate,
                       n_positives=n_pos, n_negatives=n_neg,
                       history=history, worst_margin=float(margins.min()))


def _train_once(positives, negatives, n_hidden, cfg, seed, max_inputs):
    """One per-example SGD restart (the ``batch=False`` path).

    Per-example updates depend on the presentation order, so the
    weighted set is expanded back to the balanced set's tiled rows.
    """
    ts = _training_set(positives, negatives, cfg)
    order = ts.tiled_order()
    net = OneHiddenLayerNet(ts.xs.shape[1], n_hidden, seed=seed,
                            max_inputs=max_inputs)
    epoch, err_rate, history = _fit_sgd(net, ts.xs[order], ts.targets[order],
                                        ts.labels[order], cfg, seed)
    return _result(net, ts.xs, ts.labels, epoch, err_rate, history,
                   ts.n_pos, ts.n_neg)


def _fit_sgd(net, xs, targets, labels, cfg, seed):
    """Per-example back-propagation (the hardware's learning rule)."""
    rng = make_np_rng(seed, stream=0x7EA1)
    order = np.arange(len(xs))
    history = []
    err_rate = 1.0
    epoch = 0
    fit_epoch = None
    for epoch in range(1, cfg.max_epochs + 1):
        if cfg.shuffle:
            rng.shuffle(order)
        for idx in order:
            net.train_example(xs[idx], targets[idx], cfg.learning_rate)
        outputs = net.predict_batch(xs)
        err_rate = float(np.mean((outputs >= 0.5) != labels))
        history.append(err_rate)
        if err_rate <= cfg.target_error:
            if fit_epoch is None:
                fit_epoch = epoch
            if epoch - fit_epoch >= cfg.patience_after_fit:
                break
        else:
            fit_epoch = None
    return epoch, err_rate, history


def fit_from(net, positives, negatives, config=None):
    """Continue fitting ``net`` on a new training set, in place.

    The offline recipe from the network's current weights instead of a
    fresh initialisation: class-balanced full-batch Adam, from fresh
    moments, with the ``t - o`` delta until the set is fitted
    (``patience_after_fit`` epochs past zero training error) or
    ``max_epochs`` run out. Either class may be empty, not both.

    Returns:
        :class:`TrainResult` of the fit (``result.net`` is ``net``).
    """
    cfg = config or TrainConfig()
    (result,) = _fit_restarts(_training_set(positives, negatives, cfg),
                              [net], cfg)
    return result


def _fit_restarts(ts, nets, cfg):
    """Full-batch Adam, every restart at once, until the first fit.

    The restarts are stacked on a leading axis and stepped together.
    The whole stack stops on the epoch on which the first restart to
    reach ``target_error`` has held it for ``patience_after_fit``
    epochs, and every restart is recorded on that epoch with its
    weights from before the epoch's step; otherwise every restart runs
    the ``max_epochs`` steps. The caller picks the winner. Every expression is the one-network
    computation with a restart axis in front (``np.matmul`` makes the
    same BLAS call per restart; products and sums are taken in the same
    order, and the Adam update is elementwise), so each network is
    bit-identical to fitting it alone up to the stop epoch. Two
    rewrites keep the bits while saving passes:

    - The hidden layer multiplies by the negated inputs ``-xs1.T``,
      built once. Negation is exact and round-to-nearest is symmetric,
      so every product, partial sum and the result are the exact
      negatives of those the BLAS call makes on ``xs1.T`` (same shapes
      and strides): ``w_h @ -xs1.T`` is ``-(w_h @ xs1.T)`` bit for bit,
      the argument the sigmoid's ``exp`` wants, with no negation pass
      over the hidden stack.
    - The misclassified weight is an exact integer either way: a
      positive is wrong below 0.5 and a negative at or above it, so it
      is the positives' total weight plus ``(o >= 0.5) @ signed`` with
      ``signed`` the weights negated on positives -- one product instead
      of a comparison, a ``!=`` and a product.

    The set ``ts`` is the distinct examples with class-balancing weights
    (:class:`_TrainingSet`): the gradient is the one the tiled balanced
    set gives, summed in a different order, and the error rate the same
    exact count. The output delta is ``t - o``, each row's scaled by its
    weight: the gradient of the weighted mean binary cross-entropy.
    ``nets`` are the restarts' starting networks; each is left holding
    its fitted weights.

    Uses true sigmoids (not the quantised table) for the forward pass
    during training; the resulting weights are loaded into the
    table-based network, whose predictions the selection margin is
    computed against -- so any quantisation mismatch shows up in the
    restart criterion, not silently at deployment.

    Returns the restarts' results in order.
    """
    xs, targets, labels, n = ts.xs, ts.targets, ts.labels, ts.n
    weight = ts.weights.astype(float)
    signed = np.where(labels, -ts.weights, ts.weights)
    pos_total = int(ts.weights[labels].sum())
    # The inputs with a constant-1 column, so that one product also
    # takes the hidden bias: (rows, inputs+1) and its negated transpose.
    xs1 = np.hstack([xs, np.ones((len(xs), 1))])
    xs1_t_neg = -np.ascontiguousarray(xs1.T)
    # One row per restart holds all its weights in register-file order
    # (hidden, then output), so a single Adam step updates both layers;
    # w_h (A, hidden, inputs+1) and w_o (A, hidden+1) are views. Rows on
    # the last axis of the activations keep every elementwise pass
    # contiguous.
    hidden_shape = nets[0].w_hidden.shape
    n_hidden_w = nets[0].w_hidden.size

    def layers(flat):
        return (flat[:, :n_hidden_w].reshape(len(flat), *hidden_shape),
                flat[:, n_hidden_w:])

    w = np.stack([net.read_weights() for net in nets])
    m, s, g, u = (np.zeros_like(w) for _ in range(4))
    w_h, w_o = layers(w)
    g_h, g_o = layers(g)
    o_in, o_bias, o_col = w_o[:, None, :-1], w_o[:, -1:], w_o[:, :-1, None]
    g_o_w, g_o_bias = g_o[:, :-1, None], g_o[:, -1]
    h = np.empty((len(w), hidden_shape[0], len(xs)))
    d_h, t = np.empty_like(h), np.empty_like(h)
    o3 = np.empty((len(w), 1, len(xs)))
    o = o3[:, 0]
    d_o = np.empty_like(o)
    d_o_row, d_o_col = d_o[:, None, :], d_o[:, :, None]
    above = np.empty(o.shape, dtype=bool)
    target, patience = cfg.target_error, cfg.patience_after_fit
    # fit_epoch[a] is the epoch restart a reached the target and has
    # held it since; 0 means "not fit".
    fit_epoch = [0] * len(nets)
    fitting = False
    err = [1.0] * len(nets)
    histories = [[] for _ in nets]
    epoch = 0
    while epoch < cfg.max_epochs:
        epoch += 1
        np.matmul(w_h, xs1_t_neg, out=h)  # (A, hidden, rows)
        np.exp(h, out=h)
        h += 1.0
        np.divide(1.0, h, out=h)
        np.matmul(o_in, h, out=o3)
        o += o_bias
        np.negative(o, out=o)
        np.exp(o, out=o)
        o += 1.0
        np.divide(1.0, o, out=o)

        np.greater_equal(o, 0.5, out=above)
        err = [(count + pos_total) / n
               for count in (above @ signed).tolist()]
        for history, e in zip(histories, err):
            history.append(e)
        # Only a restart at or below the target, now or on the last
        # epoch, has a fit epoch to set or clear; the earliest fit
        # epoch has served the most patience.
        if fitting or min(err) <= target:
            fit_epoch = [0 if e > target else f or epoch
                         for f, e in zip(fit_epoch, err)]
            fitting = any(fit_epoch)
            if fitting and epoch - min(f for f in fit_epoch if f) >= patience:
                break

        # Each distinct row's error term counts as often as the
        # balanced set repeats the row; g is the descent direction
        # (minus the gradient of the weighted mean cross-entropy).
        np.subtract(targets, o, out=d_o)
        d_o *= weight
        np.subtract(1.0, h, out=d_h)
        d_h *= h
        np.multiply(o_col, d_o_row, out=t)
        d_h *= t
        np.matmul(h, d_o_col, out=g_o_w)
        np.add.reduce(d_o, axis=1, out=g_o_bias)
        np.matmul(d_h, xs1, out=g_h)
        g /= n
        # Adam: m and s are the moving first and second moments, each
        # divided by its bias correction for the step.
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=u)
        m += u
        s *= ADAM_BETA2
        g *= g
        g *= 1.0 - ADAM_BETA2
        s += g
        np.divide(s, 1.0 - ADAM_BETA2 ** epoch, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPSILON
        np.divide(m, 1.0 - ADAM_BETA1 ** epoch, out=u)
        u /= g
        u *= cfg.step_size
        w += u
    results = []
    for r, net in enumerate(nets):
        net.write_weights(w[r])
        results.append(_result(net, xs, labels, epoch, err[r], histories[r],
                               ts.n_pos, ts.n_neg))
    return results


@dataclass
class TopologyChoice:
    """One evaluated point of the topology search."""

    seq_len: int
    n_hidden: int
    mispred_rate: float
    result: TrainResult

    @property
    def topology(self):
        """Topology string ``i-h-1`` as the paper's Table IV prints it."""
        return f"{self.result.net.n_inputs}-{self.n_hidden}-1"


def evaluate_misprediction(net, test_positives, test_negatives=None):
    """Fraction of test examples the network misclassifies.

    With only positives this is the paper's Table IV false-positive
    metric; with only synthesized negatives it is Figure 7(a)'s
    false-negative metric.
    """
    total = 0
    wrong = 0
    if test_positives is not None and len(test_positives) > 0:
        out = net.predict_batch(np.atleast_2d(test_positives))
        wrong += int(np.sum(out < 0.5))
        total += len(out)
    if test_negatives is not None and len(test_negatives) > 0:
        out = net.predict_batch(np.atleast_2d(test_negatives))
        wrong += int(np.sum(out >= 0.5))
        total += len(out)
    if total == 0:
        return 0.0
    return wrong / total


def _search_point(payload):
    """Picklable work item: train and score one grid point."""
    train_pos, train_neg, test_pos, test_neg, h, config, max_inputs = payload
    result = train_network(train_pos, train_neg, h, config=config,
                           max_inputs=max_inputs)
    rate = evaluate_misprediction(result.net, test_pos, test_neg)
    return result, rate


def search_topology(example_sets, hidden_widths=None, config=None,
                    max_inputs=10, jobs=None):
    """Grid-search (sequence length x hidden width) topologies.

    Args:
        example_sets: mapping ``seq_len -> (train_pos, train_neg,
            test_pos, test_neg)`` of encoded arrays, one entry per
            candidate sequence length.
        hidden_widths: candidate hidden widths (default 1..max_inputs).
        jobs: evaluate grid points across this many worker processes
            (every point is seeded by ``config``, so serial and
            parallel searches pick the identical winner).

    Returns:
        (best, all_choices): the lowest-misprediction
        :class:`TopologyChoice` and the full list, ordered as evaluated.
        Ties break toward the *larger* network (longer sequences, then
        more hidden units): with equal measured rates the extra capacity
        is free robustness headroom for deployment-time online learning,
        which is why the paper's Table IV settles on 10-10-1 for almost
        every program.
    """
    from repro.parallel import run_tasks

    hidden_widths = list(hidden_widths or range(1, max_inputs + 1))
    grid = [(seq_len, h) for seq_len in sorted(example_sets)
            for h in hidden_widths]
    outs = run_tasks(
        _search_point,
        [example_sets[seq_len] + (h, config, max_inputs)
         for seq_len, h in grid],
        jobs=jobs)
    tele = telemetry.get_registry()
    choices = []
    for (seq_len, h), (result, rate) in zip(grid, outs):
        if tele.enabled:
            tele.inc("nn.topologies_evaluated")
            tele.observe("nn.topology_mispred_rate", rate)
        choices.append(TopologyChoice(seq_len, h, rate, result))
    best = min(choices,
               key=lambda c: (c.mispred_rate, -c.seq_len, -c.n_hidden))
    return best, choices
