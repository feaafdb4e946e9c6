"""The default engine: ACT's neural predictor behind the registry.

``diagnose_report`` is a pure delegation to
:func:`~repro.core.diagnosis.diagnose_failure` -- no extra spans, no
extra work -- so routing ``--engine nn`` through the registry is
byte-identical to the historical direct call (reports, telemetry and
artifacts; pinned by ``tests/test_engines.py``). The protocol surface
(``train``/``predict_batch``/``serialize``) wraps
:class:`~repro.core.offline.TrainedACT` for the store and the
cross-engine property tests.
"""

import numpy as np

from repro.core.diagnosis import diagnose_failure
from repro.core.offline import OfflineTrainer, TrainedACT
from repro.engines.base import EngineCapabilities, Predictor
from repro.nn.trainer import fit_identity


class NNEngine(Predictor):
    """ACT's offline-trained, online-adapting neural predictor."""

    capabilities = EngineCapabilities(
        name="nn",
        description="ACT neural predictor (the paper's scheme)",
        trains_offline=True, needs_failure_runs=1,
        multithreaded_only=False, adapts_online=True, warmable=True)

    def __init__(self, config=None):
        super().__init__(config)
        self._trained = None

    def fingerprint(self):
        """The engine kind plus the offline fit that trains it."""
        trainer = OfflineTrainer(config=self.config)
        return {"engine": self.name,
                "fit": fit_identity(trainer.train_config)}

    @property
    def trained(self):
        return self._trained is not None

    def train(self, program, n_runs=10, seed0=0, quarantine=None,
              **params):
        trainer = OfflineTrainer(config=self.config)
        self._trained = trainer.train(program, n_runs=n_runs, seed0=seed0,
                                      quarantine=quarantine, **params)

    def predict_batch(self, seqs):
        seqs = list(seqs)
        if not seqs:
            return np.zeros(0, dtype=float)
        xs = self._trained.encoder.encode_many(
            seqs, seq_len=self.config.seq_len)
        # Scored row by row with the function the ACT Module scores with.
        net = self._trained.make_network(0)
        outputs = np.array([net.output(x) for x in xs])
        # The network emits validity; the protocol reports suspicion.
        return 1.0 - outputs

    def _state_payload(self):
        return self._trained.to_payload()

    def _load_state_payload(self, state):
        self._trained = TrainedACT.from_payload(state, self.config)

    def diagnose_report(self, program, n_train_runs=10, train_seed0=0,
                        correct_params=None, faults=None, store=None,
                        **kwargs):
        """Delegate to the direct path, byte-identically.

        A ``store`` hit becomes ``trained=`` (offline training is
        skipped); a miss becomes ``trained_sink=``, which stores the
        state once it is in hand. Everything else, ``policy``
        included, passes straight through.
        """
        key = self.store_key(store, program, n_train_runs, train_seed0,
                             correct_params, faults=faults)
        cached = store.get(key) if key is not None else None
        if cached is not None:
            self.load_state(cached)
        sink = None
        if key is not None and cached is None:
            def sink(trained):
                self._trained = trained
                store[key] = self.serialize()
        return diagnose_failure(
            program, config=self.config, trained=self._trained,
            n_train_runs=n_train_runs, train_seed0=train_seed0,
            correct_params=correct_params, faults=faults,
            trained_sink=sink, **kwargs)
