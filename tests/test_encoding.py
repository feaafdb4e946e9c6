"""Tests for RAW-dependence encoding."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.core.encoding import DepEncoder
from repro.trace.raw import RawDep
from repro.workloads.framework import CodeMap


class TestCodes:
    def test_codes_in_open_unit_interval(self):
        enc = DepEncoder(pcs=[0x10, 0x20, 0x30])
        for pc in (0x10, 0x20, 0x30):
            assert 0.0 < enc.code_of(pc) < 1.0

    def test_codes_distinct_and_ordered(self):
        enc = DepEncoder(pcs=[0x30, 0x10, 0x20])
        codes = [enc.code_of(pc) for pc in (0x10, 0x20, 0x30)]
        assert codes == sorted(codes)
        assert len(set(codes)) == 3

    def test_unseen_pc_hashes_deterministically(self):
        enc = DepEncoder(pcs=[0x10])
        a = enc.code_of(0xBEEF)
        b = enc.code_of(0xBEEF)
        assert a == b
        assert 0.0 < a < 1.0

    def test_needs_pcs(self):
        with pytest.raises(ConfigError):
            DepEncoder()
        with pytest.raises(ConfigError):
            DepEncoder(pcs=[])

    def test_code_map_filters_to_memory_pcs(self):
        cm = CodeMap()
        ld = cm.load("l")
        br = cm.branch("b")
        st = cm.store("s")
        enc = DepEncoder(code_map=cm)
        assert enc.n_pcs == 2  # branch excluded
        # memory pcs get grid codes; the branch falls back to hashing
        assert enc.code_of(ld) in (1 / 3, 2 / 3)
        assert enc.code_of(st) in (1 / 3, 2 / 3)


class TestDepEncoding:
    def test_inter_thread_flips_store_sign(self):
        enc = DepEncoder(pcs=[0x10, 0x20])
        intra = enc.encode_dep(RawDep(0x10, 0x20, inter_thread=False))
        inter = enc.encode_dep(RawDep(0x10, 0x20, inter_thread=True))
        assert intra[0] == -inter[0]
        assert intra[1] == inter[1]

    def test_sequence_vector_layout(self):
        enc = DepEncoder(pcs=[0x10, 0x20, 0x30])
        seq = (RawDep(0x10, 0x20), RawDep(0x30, 0x20))
        v = enc.encode_seq(seq)
        assert v.shape == (4,)
        assert v[0] == enc.code_of(0x10)
        assert v[2] == enc.code_of(0x30)

    def test_encode_many_shape(self):
        enc = DepEncoder(pcs=[0x10, 0x20])
        seqs = [(RawDep(0x10, 0x20),)] * 5
        xs = enc.encode_many(seqs)
        assert xs.shape == (5, 2)

    def test_encode_many_empty(self):
        enc = DepEncoder(pcs=[0x10])
        assert enc.encode_many([]).size == 0

    def test_n_inputs(self):
        enc = DepEncoder(pcs=[0x10])
        assert enc.n_inputs(5) == 10

    def test_distinct_deps_distinct_vectors(self):
        enc = DepEncoder(pcs=[0x10, 0x20, 0x30, 0x40])
        a = enc.encode_seq((RawDep(0x10, 0x20),))
        b = enc.encode_seq((RawDep(0x30, 0x20),))
        assert not np.allclose(a, b)


class TestVectorisedPaths:
    """The batched encoders must be bit-identical to the scalar ones."""

    def _encoder(self):
        return DepEncoder(pcs=[0x10, 0x20, 0x30, 0x40, 0x50])

    def _stream(self, n=40):
        pcs = [0x10, 0x20, 0x30, 0x40, 0x50, 0xBEEF, 0x9999]
        return [RawDep(pcs[i % len(pcs)], pcs[(i * 3 + 1) % len(pcs)],
                       inter_thread=(i % 3 == 0)) for i in range(n)]

    def test_codes_of_matches_code_of(self):
        enc = self._encoder()
        pcs = [0x10, 0x30, 0x50, 0xBEEF, 0x9999, 0x20]  # incl. unseen
        batch = enc.codes_of(pcs)
        for pc, code in zip(pcs, batch):
            assert float(code) == enc.code_of(pc)

    def test_encode_stream_matches_encode_dep(self):
        enc = self._encoder()
        deps = self._stream(17)
        flat = enc.encode_stream(deps)
        assert flat.shape == (34,)
        for i, dep in enumerate(deps):
            s, l = enc.encode_dep(dep)
            assert flat[2 * i] == s
            assert flat[2 * i + 1] == l

    def test_encode_many_sliding_windows_match_encode_seq(self):
        enc = self._encoder()
        deps = self._stream(25)
        for seq_len in (1, 2, 3, 5):
            windows = [tuple(deps[r:r + seq_len])
                       for r in range(len(deps) - seq_len + 1)]
            xs = enc.encode_many(windows, seq_len)
            assert xs.shape == (len(deps) - seq_len + 1, 2 * seq_len)
            for row, window in zip(xs, windows):
                assert np.array_equal(row, enc.encode_seq(window))

    def test_encode_many_empty_with_seq_len_hint(self):
        enc = self._encoder()
        xs = enc.encode_many([], seq_len=4)
        assert xs.shape == (0, 8)

    def test_encode_many_matches_encode_seq(self):
        enc = self._encoder()
        deps = self._stream(12)
        seqs = [tuple(deps[i:i + 3]) for i in range(0, 9, 3)]
        xs = enc.encode_many(seqs, seq_len=3)
        for row, seq in zip(xs, seqs):
            assert np.array_equal(row, enc.encode_seq(seq))

    def test_encode_many_rejects_ragged(self):
        enc = self._encoder()
        deps = self._stream(5)
        with pytest.raises(ConfigError):
            enc.encode_many([tuple(deps[:2]), tuple(deps[:3])])
