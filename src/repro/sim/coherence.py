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


class _CoreCaches:
    def __init__(self, params):
        self.l1 = Cache(params.l1_sets, params.l1_assoc, params.line_size)
        self.l2 = Cache(params.l2_sets, params.l2_assoc, params.line_size)


class CoherentMemorySystem:
    """All cores' caches plus the bus-and-memory behaviour."""

    def __init__(self, params=None):
        self.params = params or MachineParams()
        self._cores = [_CoreCaches(self.params)
                       for _ in range(self.params.n_cores)]
        # "Main memory" copy of last-writer info, populated only by
        # writebacks when the policy allows.
        self._main_lw = {}
        self.stats = {"loads": 0, "stores": 0, "l1_hits": 0, "l2_hits": 0,
                      "c2c": 0, "mem": 0, "upgrades": 0, "evictions": 0,
                      "lw_dropped": 0}
        self._published = dict.fromkeys(self.stats, 0)
        # Every core has the same geometry; the load and store paths
        # compute a line's address and set indices once from these.
        self._line_size = self.params.line_size
        self._l1_n_sets = self.params.l1_sets
        self._l2_n_sets = self.params.l2_sets

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

    def _evict(self, core, evicted):
        if evicted is None:
            return
        self.stats["evictions"] += 1
        # Keep L1 inclusive.
        self._cores[core].l1.invalidate(evicted.addr)
        if (evicted.state == MESIState.MODIFIED
                and self.params.lw_writeback_on_evict):
            for key, writer in evicted.last_writer.items():
                if self.params.lw_word_granularity:
                    self._main_lw[evicted.addr + 4 * key] = writer
                else:
                    self._main_lw[evicted.addr] = writer
        elif evicted.last_writer:
            self.stats["lw_dropped"] += 1

    def _fetch(self, core, addr, line_addr, key, l2_index):
        """Serve a miss from a remote L2 or from memory.

        Returns (level, latency, supplier line or None, the writer map
        the new line starts with). Every core's L2 has the same
        geometry, so the other cores are snooped at one set index.
        """
        p = self.params
        holders = []
        for c, caches in enumerate(self._cores):
            if c != core:
                s = caches.l2.sets.get(l2_index)
                line = None if s is None else s.get(line_addr)
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
        mw = self._main_lw.get(addr - addr % 4 if p.lw_word_granularity
                               else line_addr)
        return "mem", p.memory_latency, None, {} if mw is None else {key: mw}

    # The load and store paths below inline Cache.lookup on the L2 and
    # L1 sets: about 98 % of accesses hit L1, and for those the set
    # arithmetic, two dict probes and the LRU touches are the whole cost.

    def load(self, core, addr):
        """Perform a load; returns an :class:`AccessResult`."""
        stats = self.stats
        stats["loads"] += 1
        caches = self._cores[core]
        line_size = self._line_size
        line_addr = addr - addr % line_size
        block = line_addr // line_size
        key = (addr - line_addr) // 4 if self.params.lw_word_granularity else 0
        l2_set = caches.l2.sets.get(block % self._l2_n_sets)
        l2_line = None if l2_set is None else l2_set.get(line_addr)
        if l2_line is None:
            state_before = MESIState.INVALID
        else:
            l2_set.move_to_end(line_addr)
            state_before = l2_line.state
            if state_before != MESIState.INVALID:
                writer = l2_line.last_writer.get(key)
                l1_set = caches.l1.sets.get(block % self._l1_n_sets)
                if l1_set is not None and line_addr in l1_set:
                    l1_set.move_to_end(line_addr)
                    stats["l1_hits"] += 1
                    return AccessResult("l1", self.params.l1_latency,
                                        state_before, writer, line_addr)
                stats["l2_hits"] += 1
                caches.l1.insert(addr, state_before)
                return AccessResult("l2", self.params.l2_latency,
                                    state_before, writer, line_addr)

        level, latency, src, writer_map = self._fetch(
            core, addr, line_addr, key, block % self._l2_n_sets)
        new_state = MESIState.EXCLUSIVE
        if src is not None:
            src.state = new_state = MESIState.SHARED
        line, evicted = caches.l2.insert(addr, new_state)
        self._evict(core, evicted)
        line.last_writer = writer_map
        caches.l1.insert(addr, new_state)
        return AccessResult(level, latency, state_before,
                            writer_map.get(key), line_addr)

    def store(self, core, addr, pc):
        """Perform a store by ``core`` at instruction ``pc``."""
        stats = self.stats
        stats["stores"] += 1
        caches = self._cores[core]
        line_size = self._line_size
        line_addr = addr - addr % line_size
        block = line_addr // line_size
        key = (addr - line_addr) // 4 if self.params.lw_word_granularity else 0
        l2_set = caches.l2.sets.get(block % self._l2_n_sets)
        l2_line = None if l2_set is None else l2_set.get(line_addr)
        if l2_line is None:
            state_before = MESIState.INVALID
        else:
            l2_set.move_to_end(line_addr)
            state_before = l2_line.state

        if (state_before == MESIState.MODIFIED
                or state_before == MESIState.EXCLUSIVE):
            level, latency = "l1", self.params.l1_latency
        elif state_before == MESIState.SHARED:
            self._invalidate_remotes(core, line_addr)
            stats["upgrades"] += 1
            level, latency = "upgrade", self.params.upgrade_latency
        else:
            # Read-for-ownership.
            level, latency, _, writer_map = self._fetch(
                core, addr, line_addr, key, block % self._l2_n_sets)
            self._invalidate_remotes(core, line_addr)
            l2_line, evicted = caches.l2.insert(addr, MESIState.MODIFIED)
            self._evict(core, evicted)
            l2_line.last_writer = writer_map

        l2_line.state = MESIState.MODIFIED
        l2_line.last_writer[key] = (pc, core)
        l1_set = caches.l1.sets.get(block % self._l1_n_sets)
        l1_line = None if l1_set is None else l1_set.get(line_addr)
        if l1_line is None:
            caches.l1.insert(addr, MESIState.MODIFIED)
        else:
            l1_line.state = MESIState.MODIFIED
            l1_set.move_to_end(line_addr)
        return AccessResult(level, latency, state_before, None, line_addr)

    def _invalidate_remotes(self, core, line_addr):
        # Dirty data moves to the requester; its metadata travels only
        # by the piggyback rules in _fetch. L1 is inclusive in L2, so a
        # core without the L2 line has no L1 copy either.
        for c, caches in enumerate(self._cores):
            if c != core and caches.l2.invalidate(line_addr) is not None:
                caches.l1.invalidate(line_addr)
