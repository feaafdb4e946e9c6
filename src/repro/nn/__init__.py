"""Neural hardware substrate.

Functional model: a partially configurable one-hidden-layer network
(topology ``i-h-1`` with ``i, h <= M``) trained by back-propagation
(Section II.A, IV.A).

Timing models: the paper's three-stage pipeline (S1 input FIFO, S2
hidden layer, S3 output neuron) with the multiply-add-unit count as the
latency knob, and the fully configurable time-multiplexed design
(Esmaeilzadeh-style) used as the design-choice comparison point. The names below are imported from
their submodules on first access.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.nn.network": ("OneHiddenLayerNet", "SigmoidTable"),
    "repro.nn.pipeline": ("ACTPipelineModel", "NeuronTiming"),
    "repro.nn.timemux": ("TimeMultiplexedModel",),
    "repro.nn.trainer": ("TrainConfig", "TrainResult", "train_network"),
})
