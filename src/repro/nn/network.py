"""One-hidden-layer neural network with a hardware-style sigmoid table.

The network mirrors the paper's partially configurable design
(Section IV.A): topology ``i-h-1`` where the input count ``i`` and
hidden width ``h`` are both bounded by the per-neuron input limit ``M``.
Unused inputs are disabled with zero weights, exactly as the hardware
does.

Training uses per-example back-propagation with a sigmoid activation.
The paper's Section II.A gives the weight update as
``W_j := W_j + err * o``; standard back-propagation scales the update by
the link's *input* activation and a learning rate (``W_j += lr * err *
a_j``), which is what the OpenCV library the authors used implements.
We implement the standard rule and treat the paper's formula as an
abbreviation.
"""

from functools import lru_cache

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import make_np_rng

DEFAULT_MAX_INPUTS = 10


@lru_cache(maxsize=None)
def _sigmoid_entries(resolution, clip):
    """The table of ``(resolution, clip)`` as a read-only array and a
    tuple of floats, built once and shared by every such table."""
    table = 1.0 / (1.0 + np.exp(-np.linspace(-clip, clip, resolution)))
    table.flags.writeable = False
    return table, tuple(table.tolist())


class SigmoidTable:
    """Quantised sigmoid lookup table, as in the hardware neuron.

    Inputs outside ``[-clip, clip]`` saturate. ``resolution`` entries are
    spread uniformly across the clipped range. The float table index is
    clamped to ``[0, resolution - 1]`` before it is rounded, so any input
    past the range (``inf`` included) saturates to the end entry on its
    side; NaN reads entry 0.
    """

    def __init__(self, resolution=2048, clip=8.0):
        if resolution < 2:
            raise ConfigError("sigmoid table needs at least 2 entries")
        self.resolution = resolution
        self.clip = clip
        self._table, self._entries = _sigmoid_entries(resolution, clip)

    def __call__(self, x):
        """Evaluate the table at ``x`` (scalar or ndarray)."""
        res1 = self.resolution - 1
        idx = (np.asarray(x) + self.clip) * res1 / (2 * self.clip)
        # fmax/fmin (not np.clip) map NaN to 0 and skip np.clip's
        # per-call wrapper cost.
        idx = np.fmin(np.fmax(idx, 0.0), res1)
        return self._table[np.rint(idx).astype(np.intp)]

    def scalar(self, x):
        """:meth:`__call__` for one Python float, returning a float.

        Same operation order as the array lookup, and ``round`` is
        round-half-even like ``np.rint``, so the entry is bit-identical.
        """
        res1 = self.resolution - 1
        idx = (x + self.clip) * res1 / (2 * self.clip)
        if idx >= res1:
            return self._entries[res1]
        if idx >= 0.0:
            return self._entries[round(idx)]
        return self._entries[0]  # below the range, or NaN


class OneHiddenLayerNet:
    """Topology ``i-h-1`` MLP with bias links and sigmoid activations.

    Outputs lie in ``(0, 1)``; an input is classified *valid* when the
    output is at least 0.5. :meth:`margin` exposes the signed quantity
    ``output - 0.5`` that the paper uses as prediction confidence (the
    ranking tie-break wants the "most negative neural network output").

    ``version`` counts weight updates: :meth:`train_example`,
    :meth:`write_weights` and any code that edits the weight arrays in
    place bump it, so a cached output is valid only while the network's
    version is the one it was computed at.

    ``weights`` builds the network from a flat weight array (the layout
    :meth:`read_weights` returns), as a construction followed by
    :meth:`write_weights` would, without drawing the random initial
    weights it would overwrite; ``seed`` and ``init_scale`` then go
    unused.
    """

    def __init__(self, n_inputs, n_hidden, seed=0, max_inputs=DEFAULT_MAX_INPUTS,
                 sigmoid=None, init_scale=0.5, weights=None):
        if not 1 <= n_inputs <= max_inputs:
            raise ConfigError(
                f"n_inputs={n_inputs} out of range 1..{max_inputs}")
        if not 1 <= n_hidden <= max_inputs:
            raise ConfigError(
                f"n_hidden={n_hidden} out of range 1..{max_inputs}")
        self.n_inputs = n_inputs
        self.n_hidden = n_hidden
        self.max_inputs = max_inputs
        self.sigmoid = sigmoid or SigmoidTable()
        self.version = 0
        if weights is not None:
            self.write_weights(weights)
            return
        rng = make_np_rng(seed, stream=0xAC7)
        # +1 column holds the bias weight (input fixed at 1.0).
        self.w_hidden = (rng.random((n_hidden, n_inputs + 1)) - 0.5) * 2 * init_scale
        self.w_out = (rng.random(n_hidden + 1) - 0.5) * 2 * init_scale

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def forward(self, x):
        """Return (hidden activations, output) for input vector ``x``."""
        x = np.asarray(x, dtype=float)
        w_h = self.w_hidden
        h = self.sigmoid(w_h[:, :-1] @ x + w_h[:, -1])
        w_o = self.w_out
        o = self.sigmoid.scalar(float(w_o[:-1] @ h + w_o[-1]))
        return h, o

    def output(self, x):
        """Network output in ``(0, 1)`` for one input vector."""
        return self.forward(x)[1]

    def margin(self, x):
        """Signed confidence ``output - 0.5``; negative means *invalid*."""
        return self.output(x) - 0.5

    def predict_valid(self, x):
        """True when the sequence encoded by ``x`` is predicted valid."""
        return self.output(x) >= 0.5

    def predict_batch(self, xs):
        """Vectorised outputs for a 2-D array of inputs (rows)."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2:
            raise ConfigError("predict_batch expects a 2-D array")
        h = self.sigmoid(xs @ self.w_hidden[:, :-1].T + self.w_hidden[:, -1])
        return self.sigmoid(h @ self.w_out[:-1] + self.w_out[-1])

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------

    def train_example(self, x, target, lr):
        """One back-propagation step toward ``target`` (0 or 1).

        Returns the output before the update.
        """
        x = np.asarray(x, dtype=float)
        h, o = self.forward(x)
        self.version += 1
        err_o = o * (1.0 - o) * (target - o)
        err_h = h * (1.0 - h) * (self.w_out[:-1] * err_o)
        self.w_out[:-1] += lr * err_o * h
        self.w_out[-1] += lr * err_o
        self.w_hidden[:, :-1] += lr * np.outer(err_h, x)
        self.w_hidden[:, -1] += lr * err_h
        return o

    # ------------------------------------------------------------------
    # Weight register file (ldwt / stwt / chkwt model, Section IV.B)
    # ------------------------------------------------------------------

    @property
    def n_weight_registers(self):
        """Size of the flattened weight register array."""
        return self.n_hidden * (self.n_inputs + 2) + 1

    def read_weights(self):
        """Model a loop of ``ldwt``: flatten all weights to one array."""
        return np.concatenate([self.w_hidden.ravel(), self.w_out.ravel()]).copy()

    def write_weights(self, flat):
        """Model a loop of ``stwt``: load all weights from ``flat``."""
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.n_weight_registers:
            raise ConfigError(
                f"expected {self.n_weight_registers} weights, got {flat.size}")
        k = self.n_hidden * (self.n_inputs + 1)
        self.w_hidden = flat[:k].reshape(self.n_hidden, self.n_inputs + 1).copy()
        self.w_out = flat[k:].copy()
        self.version += 1

    def clone(self):
        """An independent copy (same weights, shared sigmoid table)."""
        return OneHiddenLayerNet(self.n_inputs, self.n_hidden,
                                 max_inputs=self.max_inputs,
                                 sigmoid=self.sigmoid,
                                 weights=self.read_weights())
