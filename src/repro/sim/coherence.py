"""Snoopy MESI coherence over private two-level hierarchies.

Each core has a private L1 and an inclusive private L2; coherence state
lives on the L2 line (the paper snoops at L2). Cache lines carry
last-writer metadata per Section V:

- granularity is per line by default (per word as the ablation);
- on eviction the metadata is dropped unless ``lw_writeback_on_evict``;
- metadata rides coherence messages only on cache-to-cache transfers
  for dirty lines unless ``lw_piggyback_dirty_only`` is disabled.
"""

from typing import NamedTuple, Optional, Tuple

from repro.sim.cache import Cache
from repro.sim.params import MachineParams


class MESIState:
    """MESI state letters (plain constants; stored on CacheLine.state)."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


class AccessResult(NamedTuple):
    """Result of one cache access."""

    level: str                 # "l1" | "l2" | "c2c" | "mem" | "upgrade"
    latency: int
    state_before: str          # MESI state in the accessing core's cache
    writer: Optional[Tuple[int, int]] = None  # (pc, tid) for loads
    line_addr: int = 0


# Builds an AccessResult from a ready tuple, without the Python-level
# __new__ NamedTuple generates.
_new = tuple.__new__


class _CoreCaches:
    """One core's private L1 and inclusive L2, plus the resident-line map.

    ``lines`` maps each line address the L2 holds to its L2
    :class:`CacheLine`, whose ``lru`` is the set holding it and whose
    ``l1`` is the L1 copy (None when the L1 does not hold the line). A
    hit costs one probe of the map; set arithmetic runs only on fills.
    The map is host-side bookkeeping, not modelled hardware.
    """

    __slots__ = ("l1", "l2", "lines")

    def __init__(self, params):
        self.l1 = Cache(params.l1_sets, params.l1_assoc, params.line_size)
        self.l2 = Cache(params.l2_sets, params.l2_assoc, params.line_size)
        self.lines = {}

    def fill_l1(self, line, state):
        """Insert the L1 copy of L2 ``line`` and link it."""
        line.l1, gone = self.l1.insert(line.addr, state)
        if gone is not None:
            self.lines[gone.addr].l1 = None

    def discard(self, line):
        """Forget an L2 line that left the L2; drop its L1 copy (the L1
        is inclusive in the L2)."""
        del self.lines[line.addr]
        if line.l1 is not None:
            line.l1.lru.pop(line.addr)


class CoherentMemorySystem:
    """All cores' caches plus the bus-and-memory behaviour."""

    def __init__(self, params=None):
        self.params = params or MachineParams()
        self._cores = [_CoreCaches(self.params)
                       for _ in range(self.params.n_cores)]
        # "Main memory" copy of last-writer info, populated only by
        # writebacks when the policy allows: line address -> the line's
        # writer map (word offset -> writer; key 0 at line granularity).
        self._main_lw = {}
        self.stats = {"loads": 0, "stores": 0, "l1_hits": 0, "l2_hits": 0,
                      "c2c": 0, "mem": 0, "upgrades": 0, "evictions": 0,
                      "lw_dropped": 0}
        self._published = dict.fromkeys(self.stats, 0)
        # Read on every access.
        self._line_size = self.params.line_size
        self._word_keys = self.params.lw_word_granularity
        self._l1_latency = self.params.l1_latency

    def publish_telemetry(self, registry, prefix="sim.cache."):
        """Mirror the access counters into a telemetry registry.

        Publishes only the delta since the previous call, so a machine
        that replays several traces through one memory system reports
        each replay once. ``lw_dropped`` is the Section V last-writer-
        metadata loss: evictions that discarded last-writer metadata,
        whether the line was dirty or a clean copy that received the
        metadata by piggyback; ``mem`` is the miss-to-memory count.
        """
        if not registry.enabled:
            return
        for key, value in self.stats.items():
            delta = value - self._published[key]
            if delta:
                registry.inc(prefix + key, delta)
            self._published[key] = value

    # ------------------------------------------------------------------

    def _fill(self, caches, line_addr, state, writer_map):
        """Bring a line into ``caches``' L2 and L1 after a miss."""
        line, evicted = caches.l2.insert(line_addr, state)
        caches.lines[line_addr] = line
        if evicted is not None:
            self._evict(caches, evicted)
        line.last_writer = writer_map
        caches.fill_l1(line, state)
        return line

    def _evict(self, caches, evicted):
        self.stats["evictions"] += 1
        caches.discard(evicted)
        if (evicted.state == MESIState.MODIFIED
                and self.params.lw_writeback_on_evict):
            self._main_lw.setdefault(evicted.addr, {}).update(
                evicted.last_writer)
        elif evicted.last_writer:
            self.stats["lw_dropped"] += 1

    def _fetch(self, core, line_addr):
        """Serve a miss from a remote L2 or from memory.

        Returns (level, latency, supplier line or None, the writer map
        the new line starts with).
        """
        p = self.params
        holders = []
        for c, caches in enumerate(self._cores):
            if c != core:
                line = caches.lines.get(line_addr)
                if line is not None and line.state != MESIState.INVALID:
                    holders.append(line)
        if holders:
            self.stats["c2c"] += 1
            for src in holders:
                if src.state == MESIState.MODIFIED:
                    # Dirty cache-to-cache transfer: metadata piggybacks.
                    return ("c2c", p.cache_to_cache_latency, src,
                            dict(src.last_writer))
            src = holders[0]
            writer_map = ({} if p.lw_piggyback_dirty_only
                          else dict(src.last_writer))
            return "c2c", p.cache_to_cache_latency, src, writer_map
        self.stats["mem"] += 1
        return "mem", p.memory_latency, None, dict(
            self._main_lw.get(line_addr, ()))

    # About 97 % of accesses hit L1. For those, load and store probe the
    # core's resident-line map once and touch the L2 and L1 LRU sets
    # through the line's links; results skip the NamedTuple's Python
    # __new__.

    def load(self, core, addr):
        """Perform a load; returns an :class:`AccessResult`."""
        stats = self.stats
        stats["loads"] += 1
        caches = self._cores[core]
        line_addr = addr - addr % self._line_size
        key = (addr - line_addr) // 4 if self._word_keys else 0
        line = caches.lines.get(line_addr)
        if line is None:
            state_before = MESIState.INVALID
        else:
            line.lru.move_to_end(line_addr)
            state_before = line.state
            if state_before != MESIState.INVALID:
                writer = line.last_writer.get(key)
                l1 = line.l1
                if l1 is not None:
                    l1.lru.move_to_end(line_addr)
                    stats["l1_hits"] += 1
                    return _new(AccessResult, (
                        "l1", self._l1_latency, state_before, writer,
                        line_addr))
                stats["l2_hits"] += 1
                caches.fill_l1(line, state_before)
                return _new(AccessResult, (
                    "l2", self.params.l2_latency, state_before, writer,
                    line_addr))

        level, latency, src, writer_map = self._fetch(core, line_addr)
        new_state = MESIState.EXCLUSIVE
        if src is not None:
            src.state = new_state = MESIState.SHARED
        self._fill(caches, line_addr, new_state, writer_map)
        return _new(AccessResult, (level, latency, state_before,
                                   writer_map.get(key), line_addr))

    def store(self, core, addr, pc):
        """Perform a store by ``core`` at instruction ``pc``."""
        stats = self.stats
        stats["stores"] += 1
        caches = self._cores[core]
        line_addr = addr - addr % self._line_size
        key = (addr - line_addr) // 4 if self._word_keys else 0
        line = caches.lines.get(line_addr)
        if line is None:
            state_before = MESIState.INVALID
        else:
            line.lru.move_to_end(line_addr)
            state_before = line.state

        if (state_before == MESIState.MODIFIED
                or state_before == MESIState.EXCLUSIVE):
            level, latency = "l1", self._l1_latency
        elif state_before == MESIState.SHARED:
            self._invalidate_remotes(core, line_addr)
            stats["upgrades"] += 1
            level, latency = "upgrade", self.params.upgrade_latency
        else:
            # Read-for-ownership.
            level, latency, _, writer_map = self._fetch(core, line_addr)
            self._invalidate_remotes(core, line_addr)
            line = self._fill(caches, line_addr, MESIState.MODIFIED,
                              writer_map)

        line.state = MESIState.MODIFIED
        line.last_writer[key] = (pc, core)
        l1 = line.l1
        if l1 is None:
            caches.fill_l1(line, MESIState.MODIFIED)
        else:
            l1.state = MESIState.MODIFIED
            l1.lru.move_to_end(line_addr)
        return _new(AccessResult, (level, latency, state_before, None,
                                   line_addr))

    def _invalidate_remotes(self, core, line_addr):
        # Dirty data moves to the requester; its metadata travels only
        # by the piggyback rules in _fetch.
        for c, caches in enumerate(self._cores):
            if c != core:
                line = caches.lines.get(line_addr)
                if line is not None:
                    line.lru.pop(line_addr)
                    caches.discard(line)
