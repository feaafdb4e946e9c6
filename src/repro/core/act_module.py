"""The per-processor ACT Module (AM).

Implements Section III.C: every retired non-stack load's RAW dependence
enters the Input Generator Buffer; the newest ``N`` dependences form a
NN input; predicted-invalid sequences are logged into the Debug Buffer
and counted by the Invalid Counter. The controller periodically turns
the counter into a misprediction rate and alternates between *online
testing* (rate above threshold -> start training) and *online training*
(every dependence treated as valid, back-propagate on predicted-invalid;
rate below threshold -> back to testing).
"""

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro import telemetry
from repro.core import policy as _policy
from repro.core.buffers import DebugBuffer, DebugEntry, InputGeneratorBuffer
from repro.core.config import ACTConfig
from repro.nn.network import OneHiddenLayerNet, SigmoidTable


class Mode(enum.Enum):
    """AM operating mode (the hardware's ``Mode`` flag)."""

    TESTING = "testing"
    TRAINING = "training"


@dataclass
class AMStats:
    """Counters the evaluation reads out of one AM.

    ``window_rates`` keeps only a rolling tail (newest
    ``window_rate_tail`` check-window rates; production-scale runs see
    millions of check windows, so an unbounded list would not do), while
    the running aggregates (sum/max over *all* windows, count via
    ``windows_checked``) stay exact for telemetry and evaluation.
    """

    deps_processed: int = 0
    predictions: int = 0
    invalid_predictions: int = 0
    online_trained: int = 0
    mode_switches: int = 0
    windows_checked: int = 0
    window_rate_sum: float = 0.0
    window_rate_max: float = 0.0
    window_rates: deque = field(
        default_factory=lambda: deque(maxlen=1024))

    @property
    def mean_window_rate(self):
        """Exact mean misprediction rate over every window checked."""
        if not self.windows_checked:
            return 0.0
        return self.window_rate_sum / self.windows_checked

    def record_window_rate(self, rate):
        self.windows_checked += 1
        self.window_rate_sum += rate
        if rate > self.window_rate_max:
            self.window_rate_max = rate
        self.window_rates.append(rate)


# AMStats field behind each ``act.*`` counter.
_STAT_COUNTERS = (("act.deps_processed", "deps_processed"),
                  ("act.predictions", "predictions"),
                  ("act.invalid_predictions", "invalid_predictions"),
                  ("act.online_trained", "online_trained"),
                  ("act.windows_checked", "windows_checked"),
                  ("act.mode_switches", "mode_switches"))


def publish_stats(modules):
    """Add the AMs' ``act.*`` counter totals to the active registry.

    The replay loops (:func:`repro.core.deploy.deploy_on_run` and
    :meth:`repro.sim.machine.Machine.run`) call this once per replay,
    over modules built for that replay, so the per-dependence step
    bumps no counter.
    """
    tele = telemetry.get_registry()
    if not tele.enabled:
        return
    modules = list(modules)
    for name, attr in _STAT_COUNTERS:
        total = sum(getattr(m.stats, attr) for m in modules)
        if total:
            tele.inc(name, total)


class ACTModule:
    """One core's ACT hardware: NN + buffers + mode controller."""

    # Target used when online training corrects a predicted-invalid
    # sequence toward "valid": a margin target short of 1.0, since a
    # target the sigmoid only reaches at saturation slows learning. It
    # was the offline trainer's positive target when both used the same
    # per-example rule; the offline fit now uses its own recipe
    # (TrainConfig.positive_target, 0.8), and this value is kept because
    # it fixes every online-training update and so the pinned results.
    _ONLINE_TARGET = 0.9

    def __init__(self, config=None, encoder=None, net=None, tid=0, seed=0,
                 outputs=None):
        self.config = config or ACTConfig()
        self.encoder = encoder
        self.tid = tid
        if net is None:
            net = OneHiddenLayerNet(
                self.config.n_inputs, self.config.n_hidden, seed=seed,
                max_inputs=self.config.max_inputs,
                sigmoid=SigmoidTable(self.config.sigmoid_resolution))
        self.net = net
        # Window -> network output at the weights ``net`` starts from: a
        # host-side shortcut (the hardware evaluates every window, and the
        # timing model charges each one). ``outputs`` and ``net`` come
        # together from TrainedACT.make_module, shared by every module
        # starting from the same trained weights: the module clones
        # ``net`` before its first in-place change (_own_net), and
        # process_dep moves to a private dict once the network changes.
        self._shared_net = None if outputs is None else net
        self._outputs = {} if outputs is None else outputs
        self._outputs_net = net
        self._outputs_version = net.version
        self.input_buffer = InputGeneratorBuffer(self.config.input_gen_buffer,
                                                 tid=tid)
        self.debug_buffer = DebugBuffer(self.config.debug_buffer)
        self.mode = Mode.TESTING
        self.invalid_counter = 0
        self._window_count = 0
        self.stats = AMStats(window_rates=deque(
            maxlen=self.config.window_rate_tail))
        # Adaptive-tracking policy: resolved from the ambient context at
        # construction (deploy/sim build fresh modules per replay). With
        # the NULL_POLICY this is None and process_dep pays exactly one
        # attribute check -- the policy-off byte-identity contract.
        active = _policy.get_policy()
        self.policy_state = active.state() if active.enabled else None

    # ------------------------------------------------------------------

    def process_dep(self, dep) -> Optional[float]:
        """Handle one RAW dependence; return the window's NN output.

        An output below 0.5 is a predicted-invalid window. The window
        itself stays readable as ``input_buffer.sequence(seq_len)``, the
        mode as :attr:`mode` and the counts in :attr:`stats`.

        Returns None while the input buffer is still warming up (fewer
        than ``N`` dependences seen), or when an active sampling policy
        sheds the dependence (it then never reaches the AM: no stats,
        no buffer push, no prediction -- the hardware simply did not
        trace it; sequences form over the sampled stream).

        A window already scored at the network's current weights (by
        this module, or by any module that started from the same trained
        weights) reuses that output instead of running the network again;
        the result is the same either way.
        """
        pstate = self.policy_state
        if pstate is not None and not pstate.admit(dep, self.tid):
            return None
        self.stats.deps_processed += 1
        self.input_buffer.push(dep)
        seq = self.input_buffer.sequence(self.config.seq_len)
        if seq is None:
            return None

        net = self.net
        outputs = self._outputs
        if (net is not self._outputs_net
                or net.version != self._outputs_version):
            outputs = self._outputs = {}
            self._outputs_net = net
            self._outputs_version = net.version
        output = outputs.get(seq)
        if output is None:
            output = net.output(self.encoder.encode_seq(seq))
            outputs[seq] = output
        self.stats.predictions += 1

        if output < 0.5:
            # Potentially invalid: always logged, in both modes, so a
            # failure can be diagnosed even mid-training (Section III.C).
            self.debug_buffer.log(DebugEntry(
                seq=seq, output=output, index=self.stats.predictions,
                tid=self.tid))
            self.invalid_counter += 1
            self.stats.invalid_predictions += 1
            if self.mode is Mode.TRAINING:
                # Online training treats every dependence as valid; a
                # predicted-invalid one is a misprediction to learn away.
                # The update goes to a private network, so the next step
                # scores into a fresh private dict.
                self._own_net().train_example(
                    self.encoder.encode_seq(seq), self._ONLINE_TARGET,
                    self.config.learning_rate)
                self.stats.online_trained += 1

        self._window_count += 1
        if self._window_count >= self.config.check_window:
            self._check_misprediction_rate()

        return output

    def _check_misprediction_rate(self):
        """Periodic Invalid-Counter check driving the mode alternation."""
        rate = self.invalid_counter / self._window_count
        self.stats.record_window_rate(rate)
        threshold = self.config.mispred_threshold
        if self.mode is Mode.TESTING and rate > threshold:
            self.mode = Mode.TRAINING
            self.stats.mode_switches += 1
        elif self.mode is Mode.TRAINING and rate <= threshold:
            self.mode = Mode.TESTING
            self.stats.mode_switches += 1
        tele = telemetry.get_registry()
        if tele.enabled:
            tele.observe("act.window_mispred_rate", rate)
        self.invalid_counter = 0
        self._window_count = 0

    # ------------------------------------------------------------------
    # Architectural-state interface (Section IV.B-C)
    # ------------------------------------------------------------------

    def save_weights(self):
        """Read the weight register array (a loop of ``ldwt``)."""
        return self.net.read_weights()

    def restore_weights(self, flat):
        """Write the weight register array (a loop of ``stwt``)."""
        self._own_net().write_weights(flat)

    def _own_net(self):
        """The module's network, first cloned if it is the shared one.

        Every in-place weight change goes through here, so a write never
        reaches the network other modules (and the trained state) read.
        """
        if self.net is self._shared_net:
            self.net = self.net.clone()
        return self.net
