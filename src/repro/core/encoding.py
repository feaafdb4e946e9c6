"""Encoding RAW dependence sequences as neural-network inputs.

The paper leaves the input encoding implicit ("instruction addresses
and their labels"). We use two NN inputs per dependence:

- the **store code**: a value in ``(0, 1)`` identifying the store pc,
  *negated* when the dependence is inter-thread (folding the label into
  the sign keeps the input width at ``2N <= M``);
- the **load code**: a value in ``(0, 1)`` identifying the load pc.

PC codes come from the program's static code map, spread uniformly over
``(0, 1)`` so distinct instructions are well separated -- the property
that makes valid-communication regions learnable bumps in input space.
PCs outside the map (e.g. dynamically loaded code) hash to a
deterministic code via the golden-ratio trick, mirroring the paper's
library-id + offset scheme.

Two encoding paths exist and produce bit-identical values:

- the scalar path (:meth:`DepEncoder.encode_dep` /
  :meth:`DepEncoder.encode_seq`), one window at a time from the pc-code
  dict -- what the per-dependence AM step uses, in deployment replay and
  in the timing simulator alike;
- the vectorised path (:meth:`DepEncoder.codes_of` /
  :meth:`DepEncoder.encode_stream` / :meth:`DepEncoder.encode_many`),
  which maps whole dependence streams through precomputed numpy code
  arrays -- what offline training and the engines' batched scoring use.
"""

import numpy as np

from repro.common.errors import ConfigError

_GOLDEN = 0.6180339887498949


class DepEncoder:
    """Maps :class:`~repro.trace.raw.RawDep` sequences to input vectors."""

    def __init__(self, pcs=None, code_map=None):
        """Build an encoder from a static pc list or a CodeMap.

        Args:
            pcs: iterable of static instruction addresses.
            code_map: alternatively, a workload CodeMap (its memory pcs
                are used -- only memory instructions participate in
                dependences, and fewer codes means wider spacing in
                ``(0, 1)`` and sharper class boundaries for the network).
        """
        if code_map is not None:
            pcs = code_map.memory_pcs()
        if pcs is None:
            raise ConfigError("DepEncoder needs pcs or a code_map")
        pcs = sorted(set(pcs))
        n = len(pcs)
        if n == 0:
            raise ConfigError("DepEncoder needs at least one pc")
        # Vectorised lookup tables; the scalar dict is derived from the
        # same arrays so both paths serve bit-identical codes.
        self._pc_arr = np.asarray(pcs, dtype=np.int64)
        self._code_arr = np.arange(1, n + 1, dtype=np.float64) / (n + 1)
        self._codes = {pc: float(c) for pc, c in zip(pcs, self._code_arr)}
        self.n_pcs = n

    @property
    def pcs(self):
        """The sorted static pc universe (rebuilds an identical encoder)."""
        return [int(pc) for pc in self._pc_arr]

    def code_of(self, pc):
        """Code in ``(0, 1)`` for a pc; unseen pcs hash deterministically."""
        code = self._codes.get(pc)
        if code is None:
            code = (pc * _GOLDEN) % 1.0
            code = min(max(code, 0.01), 0.99)
        return code

    def codes_of(self, pcs):
        """Vectorised :meth:`code_of` for an int array of pcs."""
        pcs = np.asarray(pcs, dtype=np.int64)
        idx = np.searchsorted(self._pc_arr, pcs)
        idx = np.clip(idx, 0, len(self._pc_arr) - 1)
        known = self._pc_arr[idx] == pcs
        out = np.empty(len(pcs))
        out[known] = self._code_arr[idx[known]]
        if not known.all():
            unseen = ~known
            hashed = (pcs[unseen].astype(np.float64) * _GOLDEN) % 1.0
            out[unseen] = np.clip(hashed, 0.01, 0.99)
        return out

    def encode_dep(self, dep):
        """Two inputs (signed store code, load code) for one dependence."""
        s = self.code_of(dep.store_pc)
        if dep.inter_thread:
            s = -s
        return s, self.code_of(dep.load_pc)

    def encode_seq(self, seq):
        """Flat input vector for a sequence of dependences (oldest first)."""
        flat = []
        for dep in seq:
            flat.extend(self.encode_dep(dep))
        return np.array(flat)

    def encode_stream(self, deps):
        """Flat ``(2 * len(deps),)`` encoding of a dependence stream.

        One vectorised pass: the interleaved (signed store code, load
        code) layout matches concatenating :meth:`encode_dep` results.
        """
        n = len(deps)
        out = np.empty(2 * n)
        if not n:
            return out
        stores = np.fromiter((d.store_pc for d in deps),
                             dtype=np.int64, count=n)
        loads = np.fromiter((d.load_pc for d in deps),
                            dtype=np.int64, count=n)
        inter = np.fromiter((d.inter_thread for d in deps),
                            dtype=bool, count=n)
        s = self.codes_of(stores)
        np.negative(s, where=inter, out=s)
        out[0::2] = s
        out[1::2] = self.codes_of(loads)
        return out

    def encode_many(self, seqs, seq_len=None):
        """2-D array of encodings for an iterable of equal-length sequences.

        ``seq_len`` fixes the output width ``(0, 2 * seq_len)`` when
        ``seqs`` is empty, so downstream ``vstack``/``predict_batch``
        consumers always see the right number of columns.
        """
        seqs = list(seqs)
        if not seqs:
            return np.empty((0, 2 * seq_len if seq_len else 0))
        k = len(seqs[0])
        if any(len(s) != k for s in seqs):
            raise ConfigError("encode_many needs equal-length sequences")
        flat = self.encode_stream([d for s in seqs for d in s])
        return flat.reshape(len(seqs), 2 * k)

    def n_inputs(self, seq_len):
        return 2 * seq_len
