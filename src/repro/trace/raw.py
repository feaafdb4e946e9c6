"""RAW-dependence extraction from traces.

Implements the paper's *Input Generator* (Section III.B): a RAW
dependence ``S -> L`` pairs the instruction address ``S`` of the store
that last wrote a memory word with the instruction address ``L`` of the
load that reads it. A dependence belongs to the thread executing the
load and is labelled *inter-thread* or *intra-thread*.

For offline training, the extractor also synthesises **negative
examples**: for every valid ``S -> L`` it emits ``S' -> L`` where ``S'``
is the store before the last store to the same address (if one exists).
"""

from typing import NamedTuple, Optional

from repro.trace.events import EventKind

_LOAD = EventKind.LOAD
_STORE = EventKind.STORE
_new = tuple.__new__  # skips a NamedTuple's Python __new__


class RawDep(NamedTuple):
    """A RAW dependence ``store_pc -> load_pc`` with its thread label.

    An immutable record compared, hashed and ordered as its field tuple
    (cheap as a dict key: Correct Set tries and sequence dedupe hash
    every dependence).
    """

    store_pc: int
    load_pc: int
    inter_thread: bool = False

    def __str__(self):
        arrow = "=>" if self.inter_thread else "->"
        return f"{self.store_pc}{arrow}{self.load_pc}"


class DepRecord(NamedTuple):
    """A dynamic occurrence of a RAW dependence in one thread's stream."""

    dep: RawDep
    tid: int
    addr: int
    index: int  # position in the global event order
    negative: Optional[RawDep] = None  # synthesized invalid counterpart


class RawDepExtractor:
    """Streaming last-writer tracker that turns trace events into deps.

    The extractor keeps, per word address, the last writer and the writer
    before it (the latter only to synthesise negatives offline; the
    paper's hardware keeps a single writer per word, Section III.C).

    Args:
        filter_stack: drop loads flagged as stack accesses (Section V).
        track_previous_writer: keep two writers per word so negatives can
            be synthesised. Offline only.
    """

    def __init__(self, filter_stack=True, track_previous_writer=False,
                 granularity=4):
        """``granularity`` is the tracking unit in bytes: 4 models the
        perfect per-word table; a cache-line size models the hardware's
        line-granularity metadata (Section V)."""
        self.filter_stack = filter_stack
        self.track_previous_writer = track_previous_writer
        self.granularity = granularity
        self._last_writer = {}  # tracking-unit key -> (store_pc, tid)
        self._prev_writer = {}

    def feed(self, event, index=0):
        """Process one trace event; return a :class:`DepRecord` or None."""
        kind = event.kind
        if kind is _STORE:
            addr = event.addr
            key = addr - (addr % self.granularity)
            last_writer = self._last_writer
            if self.track_previous_writer:
                writer = last_writer.get(key)
                if writer is not None:
                    self._prev_writer[key] = writer
            last_writer[key] = (event.pc, event.tid)
            return None
        if kind is not _LOAD or (self.filter_stack and event.is_stack):
            return None
        addr = event.addr
        key = addr - (addr % self.granularity)
        writer = self._last_writer.get(key)
        if writer is None:
            # No known writer: the paper simply fails to form a dependence.
            return None
        store_pc, store_tid = writer
        tid, pc = event.tid, event.pc
        negative = None
        if self.track_previous_writer:
            prev = self._prev_writer.get(key)
            if prev is not None and prev[0] != store_pc:
                negative = _new(RawDep, (prev[0], pc, prev[1] != tid))
        return _new(DepRecord, (
            _new(RawDep, (store_pc, pc, store_tid != tid)), tid, addr,
            index, negative))


def extract_raw_deps(run, filter_stack=True):
    """Extract per-thread RAW dependence streams from a :class:`TraceRun`.

    Returns:
        dict mapping tid -> list of :class:`DepRecord` in that thread's
        program order (which equals global order restricted to the thread).
    """
    extractor = RawDepExtractor(filter_stack=filter_stack)
    return _collect(run, extractor)


def extract_raw_deps_with_negatives(run, filter_stack=True, granularity=4):
    """Like :func:`extract_raw_deps` but with synthesised negatives."""
    extractor = RawDepExtractor(filter_stack=filter_stack,
                                track_previous_writer=True,
                                granularity=granularity)
    return _collect(run, extractor)


def _collect(run, extractor):
    streams = {tid: [] for tid in range(run.n_threads)}
    feed = extractor.feed
    for index, event in enumerate(run.events):
        rec = feed(event, index)
        if rec is not None:
            streams.setdefault(rec.tid, []).append(rec)
    return streams


def dep_sequences(stream, n):
    """Group a thread's dep stream into overlapping sequences of length ``n``.

    Each new dependence is associated with the previous ``n - 1``
    dependences from the same thread (Section III.B). The first ``n - 1``
    dependences do not yet form a full sequence and are skipped.

    Returns:
        list of tuples of :class:`RawDep`, oldest dependence first.
    """
    deps = [rec.dep for rec in stream]
    return [tuple(deps[i - n + 1:i + 1]) for i in range(n - 1, len(deps))]


def line_level_pairs(runs, line_size=64, filter_stack=True):
    """(store_pc, load_pc) pairs the hardware's *line-granularity*
    last-writer metadata would legitimately produce on these runs.

    Loads can observe any same-line store as their "last writer" once
    metadata is kept per line (Section V); offline training must not
    label those pairs invalid, or every read-modify-write loop would be
    flagged at deployment.
    """
    pairs = set()
    for run in runs:
        extractor = RawDepExtractor(filter_stack=filter_stack,
                                    granularity=line_size)
        for index, event in enumerate(run.events):
            rec = extractor.feed(event, index=index)
            if rec is not None:
                pairs.add((rec.dep.store_pc, rec.dep.load_pc))
    return pairs


def negative_sequences(stream, n):
    """Synthesize invalid sequences: last dep replaced by its negative.

    For every position where a negative counterpart exists, the sequence
    of the previous ``n - 1`` *valid* dependences followed by the invalid
    dependence forms a negative example (Section III.B).
    """
    deps = [rec.dep for rec in stream]
    out = []
    for i in range(n - 1, len(stream)):
        neg = stream[i].negative
        if neg is not None:
            out.append(tuple(deps[i - n + 1:i]) + (neg,))
    return out
