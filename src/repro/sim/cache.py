"""Set-associative cache with LRU replacement and per-line metadata.

The cache tracks presence only (data values live in the trace replay);
each line carries the last-writer metadata ACT needs, at word or line
granularity.
"""

from collections import OrderedDict

from repro.common.errors import ConfigError


class CacheLine:
    """Metadata for one resident line."""

    __slots__ = ("addr", "state", "last_writer", "lru", "l1")

    def __init__(self, addr, state="I", lru=None):
        self.addr = addr          # line-aligned base address
        self.state = state        # MESI state letter
        # Word-granularity: {word_offset: (pc, tid)}; line granularity
        # uses the single key 0 for the whole line.
        self.last_writer = {}
        self.lru = lru            # the set's OrderedDict that holds it
        # An L2 line's copy in its core's L1, None when the L1 does not
        # hold the line; the coherent memory system keeps it in step.
        self.l1 = None


class Cache:
    """One level of a private cache hierarchy."""

    def __init__(self, n_sets, assoc, line_size):
        if n_sets < 1 or assoc < 1:
            raise ConfigError("cache needs at least one set and one way")
        self.n_sets = n_sets
        self.assoc = assoc
        self.line_size = line_size
        # set index -> OrderedDict(line_addr -> CacheLine); order = LRU
        # (oldest first). A set's container is made on its first insert:
        # most of a large cache's sets are never touched by a short run.
        self.sets = {}

    def lookup(self, addr, touch=True):
        """Return the resident :class:`CacheLine` or None."""
        la = addr - addr % self.line_size
        s = self.sets.get((la // self.line_size) % self.n_sets)
        if s is None:
            return None
        line = s.get(la)
        if line is not None and touch:
            s.move_to_end(la)
        return line

    def insert(self, addr, state):
        """Insert a line; returns (line, evicted_line_or_None)."""
        la = addr - addr % self.line_size
        index = (la // self.line_size) % self.n_sets
        s = self.sets.get(index)
        if s is None:
            s = self.sets[index] = OrderedDict()
        line = s.get(la)
        if line is not None:
            line.state = state
            s.move_to_end(la)
            return line, None
        evicted = None
        if len(s) >= self.assoc:
            _, evicted = s.popitem(last=False)
        line = s[la] = CacheLine(la, state, s)
        return line, evicted

    def resident_lines(self):
        """Every resident line, set by set in index order (LRU first)."""
        for index in sorted(self.sets):
            yield from self.sets[index].values()

    def __contains__(self, addr):
        return self.lookup(addr, touch=False) is not None
