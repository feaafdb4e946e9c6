"""Tests for the snoopy MESI coherent memory system."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.coherence import CoherentMemorySystem, MESIState
from repro.sim.params import MachineParams


def _sys(**kw):
    defaults = dict(n_cores=4, l1_size=1024, l1_assoc=2,
                    l2_size=4096, l2_assoc=4, line_size=64)
    defaults.update(kw)
    return CoherentMemorySystem(MachineParams(**defaults))


class TestMESITransitions:
    def test_cold_read_is_exclusive(self):
        m = _sys()
        res = m.load(0, 128)
        assert res.level == "mem"
        assert res.state_before == MESIState.INVALID
        assert m._cores[0].l2.lookup(128).state == MESIState.EXCLUSIVE

    def test_second_reader_shares(self):
        m = _sys()
        m.load(0, 128)
        res = m.load(1, 128)
        assert res.level == "c2c"
        assert m._cores[0].l2.lookup(128).state == MESIState.SHARED
        assert m._cores[1].l2.lookup(128).state == MESIState.SHARED

    def test_store_makes_modified(self):
        m = _sys()
        m.store(0, 128, pc=0x10)
        assert m._cores[0].l2.lookup(128).state == MESIState.MODIFIED

    def test_exclusive_upgrades_silently(self):
        m = _sys()
        m.load(0, 128)
        res = m.store(0, 128, pc=0x10)
        assert res.level == "l1"
        assert m._cores[0].l2.lookup(128).state == MESIState.MODIFIED

    def test_shared_store_invalidates_remotes(self):
        m = _sys()
        m.load(0, 128)
        m.load(1, 128)
        res = m.store(0, 128, pc=0x10)
        assert res.level == "upgrade"
        assert m._cores[1].l2.lookup(128) is None

    def test_remote_store_invalidates(self):
        m = _sys()
        m.store(0, 128, pc=0x10)
        m.store(1, 128, pc=0x14)
        assert m._cores[0].l2.lookup(128) is None
        assert m._cores[1].l2.lookup(128).state == MESIState.MODIFIED

    def test_dirty_read_miss_is_cache_to_cache(self):
        m = _sys()
        m.store(0, 128, pc=0x10)
        res = m.load(1, 128)
        assert res.level == "c2c"
        assert m._cores[0].l2.lookup(128).state == MESIState.SHARED

    def test_l1_hit_after_fill(self):
        m = _sys()
        m.load(0, 128)
        res = m.load(0, 128)
        assert res.level == "l1"


class TestLastWriter:
    def test_local_store_then_load(self):
        m = _sys()
        m.store(0, 128, pc=0x10)
        res = m.load(0, 128)
        assert res.writer == (0x10, 0)

    def test_piggyback_on_dirty_c2c(self):
        m = _sys()
        m.store(0, 128, pc=0x10)
        res = m.load(1, 128)
        assert res.writer == (0x10, 0)

    def test_no_piggyback_on_clean_c2c_by_default(self):
        m = _sys()
        m.store(0, 128, pc=0x10)
        m.load(1, 128)       # dirty c2c: both now S, metadata travelled
        res = m.load(2, 128)  # clean c2c: no piggyback (dirty-only)
        assert res.writer is None

    def test_piggyback_always_when_policy_disabled(self):
        m = _sys(lw_piggyback_dirty_only=False)
        m.store(0, 128, pc=0x10)
        m.load(1, 128)
        res = m.load(2, 128)
        assert res.writer == (0x10, 0)

    def test_line_granularity_aliases_words(self):
        m = _sys(lw_word_granularity=False)
        m.store(0, 128, pc=0x10)
        m.store(0, 132, pc=0x14)  # same line, next word
        res = m.load(0, 128)
        assert res.writer == (0x14, 0)

    def test_word_granularity_keeps_words_separate(self):
        m = _sys(lw_word_granularity=True)
        m.store(0, 128, pc=0x10)
        m.store(0, 132, pc=0x14)
        res = m.load(0, 128)
        assert res.writer == (0x10, 0)

    def test_eviction_drops_metadata_by_default(self):
        m = _sys(l2_size=128, l2_assoc=1, l1_size=64, l1_assoc=1)
        m.store(0, 0, pc=0x10)
        m.store(0, 128, pc=0x14)  # evicts line 0 (same set, assoc 1)
        res = m.load(0, 0)
        assert res.writer is None
        assert m.stats["lw_dropped"] >= 1

    def test_eviction_writeback_preserves_metadata(self):
        m = _sys(l2_size=128, l2_assoc=1, l1_size=64, l1_assoc=1,
                 lw_writeback_on_evict=True)
        m.store(0, 0, pc=0x10)
        m.store(0, 128, pc=0x14)
        res = m.load(0, 0)
        assert res.writer == (0x10, 0)

    def test_word_writeback_refetch_restores_every_word(self):
        # One-line L1 and L2: loading line 64 evicts line 0, and both of
        # its written words go back to memory with their writers.
        m = _sys(n_cores=2, l2_size=64, l2_assoc=1, l1_size=64, l1_assoc=1,
                 lw_word_granularity=True, lw_writeback_on_evict=True)
        m.store(0, 0, pc=0x10)
        m.store(0, 4, pc=0x14)
        m.load(0, 64)
        assert m.stats["evictions"] == 1
        assert m.load(1, 0).writer == (0x10, 0)
        assert m.load(1, 4).writer == (0x14, 0)

    def test_clean_line_with_piggybacked_metadata_drops_once(self):
        # Two L2 sets of one way: lines 0 and 128 share set 0.
        m = _sys(l2_size=128, l2_assoc=1, l1_size=64, l1_assoc=1)
        m.store(0, 0, pc=0x10)
        m.load(1, 0)          # dirty c2c: core 1 gets S plus the metadata
        assert m._cores[1].l2.lookup(0, touch=False).state == MESIState.SHARED
        assert m.stats["lw_dropped"] == 0
        m.load(1, 128)        # evicts core 1's clean S copy of line 0
        assert m.stats["evictions"] == 1
        assert m.stats["lw_dropped"] == 1


class TestStats:
    def test_counters_accumulate(self):
        m = _sys()
        m.store(0, 0, pc=1)
        m.load(0, 0)
        m.load(1, 0)
        s = m.stats
        assert s["stores"] == 1
        assert s["loads"] == 2
        assert s["c2c"] >= 1


class TestPropertySingleWriter:
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)),
                    min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_reported_writer_wrote_that_line(self, ops):
        """Any writer returned for a load previously stored to the line."""
        m = _sys(lw_word_granularity=False)
        writers = {}
        pc = 0x100
        for core, slot in ops:
            addr = slot * 64
            pc += 4
            m.store(core, addr, pc=pc)
            writers.setdefault(addr, set()).add(pc)
        for slot in range(4):
            addr = slot * 64
            res = m.load(0, addr)
            if res.writer is not None:
                assert res.writer[0] in writers.get(addr, set())


class TestSWMRInvariant:
    """Single-Writer-Multiple-Reader: the defining MESI invariant."""

    @given(st.lists(st.tuples(st.integers(0, 3),    # core
                              st.booleans(),        # is_store
                              st.integers(0, 2)),   # line slot
                    min_size=1, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_never_two_modified_copies(self, ops):
        m = _sys()
        pc = 0x100
        for core, is_store, slot in ops:
            addr = slot * 64
            pc += 4
            if is_store:
                m.store(core, addr, pc=pc)
            else:
                m.load(core, addr)
            # After every operation: at most one M/E copy per line, and
            # if any copy is M or E there are no other copies at all.
            for s in range(3):
                la = s * 64
                states = []
                for caches in m._cores:
                    line = caches.l2.lookup(la, touch=False)
                    if line is not None and line.state != MESIState.INVALID:
                        states.append(line.state)
                exclusive = [x for x in states
                             if x in (MESIState.MODIFIED,
                                      MESIState.EXCLUSIVE)]
                assert len(exclusive) <= 1
                if exclusive:
                    assert len(states) == 1

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_l1_always_subset_of_l2(self, ops):
        m = _sys()
        pc = 0x100
        for core, slot in ops:
            addr = slot * 64
            pc += 4
            m.store(core, addr, pc=pc)
            m.load((core + 1) % 3, addr)
            for caches in m._cores:
                for line in caches.l1.resident_lines():
                    l2_line = caches.l2.lookup(line.addr, touch=False)
                    assert l2_line is not None


class TestResidentLineIndex:
    """Each core's resident-line map mirrors its caches after every
    access, on a geometry that evicts, under every last-writer flag."""

    FLAGS = ("lw_word_granularity", "lw_writeback_on_evict",
             "lw_piggyback_dirty_only")

    @pytest.mark.parametrize("bits", list(itertools.product(
        (False, True), repeat=3)))
    @given(st.lists(st.tuples(st.integers(0, 3),    # core
                              st.booleans(),        # is_store
                              st.integers(0, 7),    # line slot
                              st.integers(0, 3)),   # word in the line
                    min_size=1, max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_map_and_l1_links_match_the_caches(self, bits, ops):
        # Two L1 lines and four L2 lines per core: eight lines evict.
        m = _sys(l1_size=128, l1_assoc=1, l2_size=256, l2_assoc=2,
                 **dict(zip(self.FLAGS, bits)))
        for pc, (core, is_store, slot, word) in enumerate(ops):
            addr = slot * 64 + 4 * word
            if is_store:
                m.store(core, addr, pc=pc)
            else:
                m.load(core, addr)
            for caches in m._cores:
                l2_lines = list(caches.l2.resident_lines())
                assert caches.lines == {ln.addr: ln for ln in l2_lines}
                for line in l2_lines:
                    assert line.lru[line.addr] is line
                    assert line.l1 is caches.l1.lookup(line.addr,
                                                       touch=False)
                for copy in caches.l1.resident_lines():
                    assert caches.lines[copy.addr].l1 is copy
