"""Shared system state for single- and multi-core simulations.

The PARSEC experiments run multithreaded: cores share the process address
space (memory, heap allocator, shadow capability table, shadow alias table,
L2), while each core keeps private L1s, a private capability cache, alias
cache, tracker, and predictors.  Frees and alias stores broadcast
invalidations to the other cores' in-processor caches (Sections IV-C and
V-C); the message counters here feed the multithreaded overhead accounting.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List

from ..core.alias import ShadowAliasTable
from ..core.capability import ShadowCapabilityTable
from ..heap.allocator import HeapAllocator
from ..memory.cache import SetAssocCache
from ..memory.memory import Memory
from .config import CoreConfig, DEFAULT_CONFIG


@dataclass
class CoherenceStats:
    """Invalidate-message traffic between cores."""

    cap_invalidate_messages: int = 0
    alias_invalidate_messages: int = 0
    cap_invalidate_hits: int = 0
    alias_invalidate_hits: int = 0


class System:
    """Process-wide shared state plus the core roster."""

    def __init__(self, config: CoreConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        self.memory = Memory()
        self.allocator = HeapAllocator(self.memory)
        self.captable = ShadowCapabilityTable(config.max_alloc_bytes)
        self.alias_table = ShadowAliasTable()
        line_shift = config.line_bytes.bit_length() - 1
        self.l2 = SetAssocCache(config.l2_bytes // config.line_bytes,
                                config.l2_ways, line_shift, name="l2")
        # Machines register themselves.  Every machine holds its system,
        # so the system must not hold the machines (each would be a
        # reference cycle only the cyclic GC could free): it keeps a weak
        # roster, plus each core's id and the two caches it broadcasts
        # invalidations to.
        self._cores: List[weakref.ref] = []
        self._peers: List[tuple] = []
        self.coherence = CoherenceStats()
        # Program-load bookkeeping: a shared program's globals/capabilities
        # are initialized once per process, not once per core.
        self.loaded_programs: dict = {}
        # Shared page-table alias-hosting bits (see repro.memory.tlb).
        self.alias_hosting_pages: set = set()

    def register_core(self, core) -> int:
        """Add ``core`` (its capability and alias caches already built)
        to the roster; returns its core id."""
        core_id = len(self._cores)
        self._cores.append(weakref.ref(core))
        self._peers.append((core_id, core.capcache, core.alias_cache))
        return core_id

    @property
    def cores(self) -> List:
        """The registered machines still alive, in core-id order."""
        return [core for core in (ref() for ref in self._cores)
                if core is not None]

    # -- invalidation broadcast -----------------------------------------------

    def broadcast_cap_invalidate(self, pid: int, origin_core: int) -> None:
        """A capability was freed on ``origin_core``: invalidate everywhere.

        Thanks to unforgeability these are sent exactly once per free."""
        for core_id, capcache, _ in self._peers:
            if core_id == origin_core:
                continue
            self.coherence.cap_invalidate_messages += 1
            if capcache.invalidate(pid):
                self.coherence.cap_invalidate_hits += 1

    def broadcast_alias_invalidate(self, address: int, origin_core: int) -> None:
        """A spilled alias was (re)written on ``origin_core``."""
        for core_id, _, alias_cache in self._peers:
            if core_id == origin_core:
                continue
            self.coherence.alias_invalidate_messages += 1
            if alias_cache.invalidate(address):
                self.coherence.alias_invalidate_hits += 1

    @property
    def shadow_bytes(self) -> int:
        """Total shadow storage: capability table + alias table (Figure 9)."""
        return self.captable.shadow_bytes + self.alias_table.shadow_bytes
