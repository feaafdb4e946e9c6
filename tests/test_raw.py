"""Tests for RAW-dependence extraction, including property-based checks."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.events import EventKind, TraceEvent, TraceRun
from repro.trace.raw import (
    DepRecord,
    RawDep,
    RawDepExtractor,
    dep_sequences,
    extract_raw_deps,
    extract_raw_deps_with_negatives,
    line_level_pairs,
    negative_sequences,
)


def _st(tid, pc, addr):
    return TraceEvent(tid, pc, EventKind.STORE, addr=addr)


def _ld(tid, pc, addr, stack=False):
    return TraceEvent(tid, pc, EventKind.LOAD, addr=addr, is_stack=stack)


class TestRawDepRecord:
    """RawDep is compared, hashed and ordered as its field tuple, like
    the frozen ordered dataclass it replaced, so set and dict orders of
    dependences (Correct Set tries, sequence dedupe) stay the same."""

    def test_field_equality(self):
        assert RawDep(0x10, 0x20, True) == RawDep(0x10, 0x20, True)
        assert RawDep(0x10, 0x20) == RawDep(0x10, 0x20, False)
        assert RawDep(0x10, 0x20, True) != RawDep(0x10, 0x20, False)
        assert RawDep(0x10, 0x20) != RawDep(0x10, 0x24)

    def test_hash_is_the_field_tuple_hash(self):
        for dep in (RawDep(0x1000, 0x1004), RawDep(7, 3, True)):
            assert hash(dep) == hash((dep.store_pc, dep.load_pc,
                                      dep.inter_thread))

    def test_ordering_is_field_order(self):
        deps = [RawDep(2, 1), RawDep(1, 3, True), RawDep(1, 3), RawDep(1, 2)]
        assert sorted(deps) == [RawDep(1, 2), RawDep(1, 3),
                                RawDep(1, 3, True), RawDep(2, 1)]
        assert RawDep(1, 9) < RawDep(2, 0)

    def test_str_and_repr(self):
        assert str(RawDep(4096, 4100)) == "4096->4100"
        assert str(RawDep(4096, 4100, True)) == "4096=>4100"
        assert repr(RawDep(1, 2)) == \
            "RawDep(store_pc=1, load_pc=2, inter_thread=False)"

    def test_immutable_and_picklable(self):
        dep = RawDep(1, 2, True)
        with pytest.raises(AttributeError):
            dep.store_pc = 5
        assert pickle.loads(pickle.dumps(dep)) == dep


class TestDepRecord:
    def test_field_equality(self):
        rec = DepRecord(RawDep(1, 2), 0, 0x40, 7)
        assert rec == DepRecord(RawDep(1, 2), tid=0, addr=0x40, index=7,
                                negative=None)
        assert rec != DepRecord(RawDep(1, 2), 0, 0x40, 8)
        assert rec != DepRecord(RawDep(1, 2), 0, 0x40, 7, RawDep(3, 2))
        assert rec.negative is None

    def test_immutable(self):
        rec = DepRecord(RawDep(1, 2), 0, 0x40, 7)
        with pytest.raises(AttributeError):
            rec.index = 8


class TestExtractor:
    def test_basic_raw_dep(self):
        ex = RawDepExtractor()
        assert ex.feed(_st(0, 0x10, 100)) is None
        rec = ex.feed(_ld(0, 0x20, 100))
        assert rec.dep == RawDep(0x10, 0x20, inter_thread=False)

    def test_inter_thread_label(self):
        ex = RawDepExtractor()
        ex.feed(_st(0, 0x10, 100))
        rec = ex.feed(_ld(1, 0x20, 100))
        assert rec.dep.inter_thread

    def test_no_writer_no_dep(self):
        ex = RawDepExtractor()
        assert ex.feed(_ld(0, 0x20, 100)) is None

    def test_stack_filtering(self):
        ex = RawDepExtractor(filter_stack=True)
        ex.feed(_st(0, 0x10, 100))
        assert ex.feed(_ld(0, 0x20, 100, stack=True)) is None

    def test_stack_filter_disabled(self):
        ex = RawDepExtractor(filter_stack=False)
        ex.feed(_st(0, 0x10, 100))
        assert ex.feed(_ld(0, 0x20, 100, stack=True)) is not None

    def test_last_writer_wins(self):
        ex = RawDepExtractor()
        ex.feed(_st(0, 0x10, 100))
        ex.feed(_st(1, 0x14, 100))
        rec = ex.feed(_ld(0, 0x20, 100))
        assert rec.dep.store_pc == 0x14
        assert rec.dep.inter_thread

    def test_negative_from_previous_writer(self):
        ex = RawDepExtractor(track_previous_writer=True)
        ex.feed(_st(0, 0x10, 100))
        ex.feed(_st(0, 0x14, 100))
        rec = ex.feed(_ld(0, 0x20, 100))
        assert rec.negative == RawDep(0x10, 0x20, inter_thread=False)

    def test_negative_skipped_when_same_pc(self):
        ex = RawDepExtractor(track_previous_writer=True)
        ex.feed(_st(0, 0x10, 100))
        ex.feed(_st(0, 0x10, 100))
        rec = ex.feed(_ld(0, 0x20, 100))
        assert rec.negative is None

    def test_word_granularity_separates_neighbours(self):
        ex = RawDepExtractor(granularity=4)
        ex.feed(_st(0, 0x10, 100))
        ex.feed(_st(0, 0x14, 104))
        rec = ex.feed(_ld(0, 0x20, 100))
        assert rec.dep.store_pc == 0x10

    def test_line_granularity_aliases_neighbours(self):
        ex = RawDepExtractor(granularity=64)
        ex.feed(_st(0, 0x10, 128))
        ex.feed(_st(0, 0x14, 132))  # same 64B line
        rec = ex.feed(_ld(0, 0x20, 128))
        assert rec.dep.store_pc == 0x14


class TestRunHelpers:
    def _run(self):
        events = [
            _st(0, 0x10, 100), _ld(0, 0x20, 100),
            _st(1, 0x30, 104), _ld(0, 0x24, 104),
            _ld(1, 0x34, 100),
        ]
        return TraceRun(events=events, n_threads=2)

    def test_streams_grouped_by_loader_thread(self):
        streams = extract_raw_deps(self._run())
        assert len(streams[0]) == 2
        assert len(streams[1]) == 1

    def test_dep_belongs_to_loading_thread(self):
        streams = extract_raw_deps(self._run())
        assert streams[1][0].dep == RawDep(0x10, 0x34, inter_thread=True)

    def test_with_negatives_keeps_order(self):
        streams = extract_raw_deps_with_negatives(self._run())
        indices = [r.index for r in streams[0]]
        assert indices == sorted(indices)

    def test_line_level_pairs_superset_of_word_pairs(self):
        run = self._run()
        word = {(r.dep.store_pc, r.dep.load_pc)
                for s in extract_raw_deps(run).values() for r in s}
        line = line_level_pairs([run], line_size=64)
        # every word pair arises at line granularity too in this trace
        # except where an alias overwrote it; here addresses share one
        # line so aliasing can redirect pairs.
        assert line  # non-empty
        assert all(isinstance(p, tuple) and len(p) == 2 for p in line)


class TestSequences:
    def _stream(self, n):
        ex = RawDepExtractor(track_previous_writer=True)
        out = []
        for i in range(n):
            ex.feed(_st(0, 0x100 + 8 * i, 100))
            rec = ex.feed(_ld(0, 0x104 + 8 * i, 100))
            out.append(rec)
        return out

    def test_window_count(self):
        stream = self._stream(6)
        assert len(dep_sequences(stream, 3)) == 4

    def test_short_stream_yields_nothing(self):
        stream = self._stream(2)
        assert dep_sequences(stream, 3) == []

    def test_windows_are_contiguous(self):
        stream = self._stream(5)
        seqs = dep_sequences(stream, 2)
        deps = [r.dep for r in stream]
        for i, seq in enumerate(seqs):
            assert seq == (deps[i], deps[i + 1])

    def test_negative_sequences_replace_last(self):
        stream = self._stream(4)
        negs = negative_sequences(stream, 2)
        assert negs
        for seq in negs:
            assert seq[-1] != seq[-2]  # corrupted last dep

    @given(n=st.integers(1, 5), length=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_window_count_formula(self, n, length):
        stream = self._stream(length)
        assert len(dep_sequences(stream, n)) == max(0, length - n + 1)


class TestPropertyBased:
    @given(st.lists(
        st.tuples(st.integers(0, 2),       # tid
                  st.booleans(),           # is_store
                  st.integers(0, 5)),      # addr slot
        min_size=0, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_every_dep_has_a_preceding_store(self, ops):
        events = []
        for i, (tid, is_store, slot) in enumerate(ops):
            addr = 0x1000 + 4 * slot
            pc = 0x100 + 4 * i
            if is_store:
                events.append(_st(tid, pc, addr))
            else:
                events.append(_ld(tid, pc, addr))
        run = TraceRun(events=events, n_threads=3)
        streams = extract_raw_deps(run)
        store_pcs_before = {}
        seen = set()
        for e in events:
            if e.kind == EventKind.STORE:
                seen.add(e.pc)
        for stream in streams.values():
            for rec in stream:
                assert rec.dep.store_pc in seen
                # the record index points at a load event
                assert events[rec.index].kind == EventKind.LOAD

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 3)),
                    min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_intra_thread_single_thread(self, ops):
        """A single-threaded trace can only produce intra-thread deps."""
        events = []
        for i, (is_store, slot) in enumerate(ops):
            addr = 0x1000 + 4 * slot
            pc = 0x100 + 4 * i
            events.append(_st(0, pc, addr) if is_store else _ld(0, pc, addr))
        run = TraceRun(events=events, n_threads=1)
        for stream in extract_raw_deps(run).values():
            for rec in stream:
                assert not rec.dep.inter_thread
