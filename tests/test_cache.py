"""Tests for the set-associative cache."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.sim.cache import Cache
from repro.sim.coherence import CoherentMemorySystem
from repro.sim.params import MachineParams


class TestBasics:
    def test_miss_then_hit(self):
        c = Cache(n_sets=4, assoc=2, line_size=64)
        assert c.lookup(100) is None
        c.insert(100, "E")
        assert c.lookup(100) is not None
        assert 100 in c

    def test_line_alignment(self):
        c = Cache(n_sets=4, assoc=2, line_size=64)
        line, _ = c.insert(130, "E")
        assert line.addr == 128
        assert c.lookup(190) is not None  # same line
        assert c.lookup(192) is None      # next line

    def test_lru_eviction_order(self):
        c = Cache(n_sets=1, assoc=2, line_size=64)
        c.insert(0, "E")
        c.insert(64, "E")
        c.lookup(0)              # touch 0: now 64 is LRU
        _, evicted = c.insert(128, "E")
        assert evicted.addr == 64

    def test_reinsert_updates_state(self):
        c = Cache(n_sets=1, assoc=2, line_size=64)
        c.insert(0, "E")
        line, evicted = c.insert(0, "M")
        assert evicted is None
        assert line.state == "M"

    def test_validation(self):
        with pytest.raises(ConfigError):
            Cache(n_sets=0, assoc=1, line_size=64)
        with pytest.raises(ConfigError):
            Cache(n_sets=1, assoc=0, line_size=64)


def _memory(word_granularity):
    return CoherentMemorySystem(MachineParams(
        n_cores=4, l1_size=1024, l1_assoc=2, l2_size=4096, l2_assoc=4,
        line_size=64, lw_word_granularity=word_granularity))


class TestLineMetadata:
    """The last-writer metadata a line carries, seen through stores and
    the writer a later load of another core reports."""

    def test_word_granularity_writers(self):
        m = _memory(word_granularity=True)
        m.store(0, 128, pc=0x10)       # word 0 of line 128
        m.store(1, 132, pc=0x14)       # word 1, same line
        assert m.load(2, 128).writer == (0x10, 0)
        assert m.load(2, 132).writer == (0x14, 1)

    def test_line_granularity_single_writer(self):
        m = _memory(word_granularity=False)
        m.store(0, 128, pc=0x10)
        m.store(1, 148, pc=0x14)       # word 5, same line
        # one writer per line: the later store wins for every word
        assert m.load(2, 128).writer == (0x14, 1)
        assert m.load(2, 164).writer == (0x14, 1)

    def test_missing_writer(self):
        m = _memory(word_granularity=True)
        m.store(0, 128, pc=0x10)
        assert m.load(1, 140).writer is None   # word 3, never stored
        assert m.load(1, 256).writer is None   # a line never stored


class TestPropertyLRU:
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_lru(self, accesses):
        """The cache behaves exactly like a reference LRU model."""
        assoc = 2
        c = Cache(n_sets=1, assoc=assoc, line_size=64)
        reference = []  # most recent last
        for slot in accesses:
            addr = slot * 64
            if c.lookup(addr) is not None:
                assert addr in reference
                reference.remove(addr)
                reference.append(addr)
            else:
                assert addr not in reference
                c.insert(addr, "E")
                if len(reference) >= assoc:
                    reference.pop(0)
                reference.append(addr)
            resident = {line.addr for line in c.resident_lines()}
            assert resident == set(reference)


class TestLazySets:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_one_set_per_index_reference(self, seed):
        """A 1,024-set cache behaves as 1,024 independent one-set caches:
        same hits, evictions, removals and resident-line order."""
        n_sets, assoc, line = 1024, 2, 64
        cache = Cache(n_sets=n_sets, assoc=assoc, line_size=line)
        refs = {}
        rng = random.Random(seed)
        hot = rng.sample(range(n_sets), 24)

        def ref_for(addr):
            index = (addr // line) % n_sets
            if index not in refs:
                refs[index] = Cache(n_sets=1, assoc=assoc, line_size=line)
            return refs[index]

        def addr_of(x):
            return None if x is None else x.addr

        for _ in range(3000):
            addr = ((rng.randrange(6) * n_sets + rng.choice(hot)) * line
                    + rng.randrange(line))
            op = rng.random()
            if op < 0.45:
                got, evicted = cache.insert(addr, "E")
                want, want_evicted = ref_for(addr).insert(addr, "E")
                assert got.addr == want.addr
                assert addr_of(evicted) == addr_of(want_evicted)
            elif op < 0.85:
                touch = op < 0.75
                assert (addr_of(cache.lookup(addr, touch=touch))
                        == addr_of(ref_for(addr).lookup(addr, touch=touch)))
            else:
                # Remove through the line's set link, as the coherent
                # memory system does on eviction and invalidation.
                got = cache.lookup(addr, touch=False)
                want = ref_for(addr).lookup(addr, touch=False)
                assert addr_of(got) == addr_of(want)
                if got is not None:
                    assert got.lru.pop(got.addr) is got
                    want.lru.pop(want.addr)
        want_order = [ln.addr for index in sorted(refs)
                      for ln in refs[index].resident_lines()]
        assert [ln.addr for ln in cache.resident_lines()] == want_order
        assert len(want_order) > assoc
