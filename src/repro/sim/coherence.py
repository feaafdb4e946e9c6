"""Snoopy MESI coherence over private two-level hierarchies.

Each core has a private L1 and an inclusive private L2; coherence state
lives on the L2 line (the paper snoops at L2). Cache lines carry
last-writer metadata per Section V:

- granularity is per line by default (per word as the ablation);
- on eviction the metadata is dropped unless ``lw_writeback_on_evict``;
- metadata rides coherence messages only on cache-to-cache transfers
  for dirty lines unless ``lw_piggyback_dirty_only`` is disabled.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.sim.cache import Cache
from repro.sim.params import MachineParams


class MESIState:
    """MESI state letters (plain constants; stored on CacheLine.state)."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


@dataclass(frozen=True)
class AccessResult:
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

    def publish_telemetry(self, registry, prefix="sim.cache."):
        """Mirror the access counters into a telemetry registry.

        Publishes only the delta since the previous call, so a machine
        that replays several traces through one memory system reports
        each replay once. ``lw_dropped`` is the Section V last-writer-
        metadata loss (dirty evictions whose writer info is discarded);
        ``mem`` is the miss-to-memory count.
        """
        if not registry.enabled:
            return
        for key, value in self.stats.items():
            delta = value - self._published[key]
            if delta:
                registry.inc(prefix + key, delta)
            self._published[key] = value

    # ------------------------------------------------------------------

    def _word_offset(self, addr, line_addr):
        return (addr - line_addr) // 4

    def _lw_key(self, addr, line_addr):
        if self.params.lw_word_granularity:
            return addr - (addr % 4)
        return line_addr

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

    def _remote_holders(self, core, line_addr):
        holders = []
        for c, caches in enumerate(self._cores):
            if c == core:
                continue
            line = caches.l2.lookup(line_addr, touch=False)
            if line is not None and line.state != MESIState.INVALID:
                holders.append((c, line))
        return holders

    def _main_writer(self, addr, line_addr):
        return self._main_lw.get(self._lw_key(addr, line_addr))

    # ------------------------------------------------------------------

    def load(self, core, addr):
        """Perform a load; returns an :class:`AccessResult`."""
        self.stats["loads"] += 1
        p = self.params
        caches = self._cores[core]
        line_addr = caches.l2.line_addr(addr)
        offset = self._word_offset(addr, line_addr)
        l2_line = caches.l2.lookup(addr)
        state_before = l2_line.state if l2_line else MESIState.INVALID

        if l2_line is not None and l2_line.state != MESIState.INVALID:
            writer = l2_line.get_writer(offset, p.lw_word_granularity)
            if caches.l1.lookup(addr) is not None:
                self.stats["l1_hits"] += 1
                return AccessResult("l1", p.l1_latency, state_before,
                                    writer, line_addr)
            self.stats["l2_hits"] += 1
            _, ev1 = caches.l1.insert(addr, l2_line.state)
            return AccessResult("l2", p.l2_latency, state_before, writer,
                                line_addr)

        holders = self._remote_holders(core, line_addr)
        dirty = [(c, ln) for c, ln in holders
                 if ln.state == MESIState.MODIFIED]
        writer = None
        if dirty:
            self.stats["c2c"] += 1
            level, latency = "c2c", p.cache_to_cache_latency
            src = dirty[0][1]
            src.state = MESIState.SHARED
            writer_map = dict(src.last_writer)  # piggybacked (dirty c2c)
            new_state = MESIState.SHARED
        elif holders:
            self.stats["c2c"] += 1
            level, latency = "c2c", p.cache_to_cache_latency
            src = holders[0][1]
            src.state = MESIState.SHARED
            if p.lw_piggyback_dirty_only:
                writer_map = {}
            else:
                writer_map = dict(src.last_writer)
            new_state = MESIState.SHARED
        else:
            self.stats["mem"] += 1
            level, latency = "mem", p.memory_latency
            writer_map = {}
            mw = self._main_writer(addr, line_addr)
            if mw is not None:
                key = offset if p.lw_word_granularity else 0
                writer_map[key] = mw
            new_state = MESIState.EXCLUSIVE

        line, evicted = caches.l2.insert(addr, new_state)
        self._evict(core, evicted)
        line.last_writer = writer_map
        caches.l1.insert(addr, new_state)
        writer = line.get_writer(offset, p.lw_word_granularity)
        return AccessResult(level, latency, state_before, writer, line_addr)

    def store(self, core, addr, pc):
        """Perform a store by ``core`` at instruction ``pc``."""
        self.stats["stores"] += 1
        p = self.params
        caches = self._cores[core]
        line_addr = caches.l2.line_addr(addr)
        offset = self._word_offset(addr, line_addr)
        l2_line = caches.l2.lookup(addr)
        state_before = l2_line.state if l2_line else MESIState.INVALID

        if l2_line is not None and l2_line.state == MESIState.MODIFIED:
            level, latency = "l1", p.l1_latency
        elif l2_line is not None and l2_line.state == MESIState.EXCLUSIVE:
            l2_line.state = MESIState.MODIFIED
            level, latency = "l1", p.l1_latency
        elif l2_line is not None and l2_line.state == MESIState.SHARED:
            self._invalidate_remotes(core, line_addr)
            l2_line.state = MESIState.MODIFIED
            self.stats["upgrades"] += 1
            level, latency = "upgrade", p.upgrade_latency
        else:
            # Read-for-ownership.
            holders = self._remote_holders(core, line_addr)
            dirty = [(c, ln) for c, ln in holders
                     if ln.state == MESIState.MODIFIED]
            if dirty:
                self.stats["c2c"] += 1
                level, latency = "c2c", p.cache_to_cache_latency
                writer_map = dict(dirty[0][1].last_writer)
            elif holders:
                self.stats["c2c"] += 1
                level, latency = "c2c", p.cache_to_cache_latency
                if p.lw_piggyback_dirty_only:
                    writer_map = {}
                else:
                    writer_map = dict(holders[0][1].last_writer)
            else:
                self.stats["mem"] += 1
                level, latency = "mem", p.memory_latency
                writer_map = {}
                mw = self._main_writer(addr, line_addr)
                if mw is not None:
                    key = offset if p.lw_word_granularity else 0
                    writer_map[key] = mw
            self._invalidate_remotes(core, line_addr)
            l2_line, evicted = caches.l2.insert(addr, MESIState.MODIFIED)
            self._evict(core, evicted)
            l2_line.last_writer = writer_map

        l2_line.state = MESIState.MODIFIED
        l2_line.set_writer(offset, pc, core, p.lw_word_granularity)
        caches.l1.insert(addr, MESIState.MODIFIED)
        return AccessResult(level, latency, state_before, None, line_addr)

    def _invalidate_remotes(self, core, line_addr):
        for c, caches in enumerate(self._cores):
            if c == core:
                continue
            line = caches.l2.invalidate(line_addr)
            caches.l1.invalidate(line_addr)
            if line is not None and line.state == MESIState.MODIFIED:
                # Dirty data is transferred to the requester; the
                # metadata travels with it only via the piggyback rules
                # handled by the caller.
                pass
