"""Generic set-associative cache with LRU replacement and victim-cache hook.

One model serves every cache-shaped structure in CHEx86:

* the L1 instruction and data caches (Table III),
* the 64-entry fully associative in-processor *capability cache*,
* the 256-entry 2-way *alias cache* augmented with a 32-entry fully
  associative *victim cache* (Section V-C),

because they all share the same behaviours under study: hit/miss rates,
LRU churn, and invalidation traffic in multicore runs.

Sets are allocated on first install, not up front: ``_sets`` maps a set
index to that set's dict, and an absent index is an empty set.  A hit,
probe or lookup on an absent set is a miss and allocates nothing, so a
machine pays for the sets its program touches (a short run touches a
handful of the BTB's and L2's 1,024), not for the configured capacity.
A plain ``dict`` with explicit first-touch creation is used rather than
a ``__missing__`` subclass, which would add a Python-level call to every
subscript on the hit path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    victim_hits: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate

    def register_metrics(self, registry, prefix: str) -> None:
        """Expose these counters as ``<prefix>.*`` pull gauges.

        The counters stay plain ``int`` attributes the access path
        increments directly; ``accesses`` and ``miss_rate`` are derived
        at snapshot time (``miss_rate`` as a re-derivable ratio so
        multi-core merges recompute it over the summed counters).
        """
        registry.register_object(prefix, self, (
            "hits", "misses", "evictions", "invalidations", "victim_hits"))
        registry.gauge(f"{prefix}.accesses",
                       lambda stats=self: stats.hits + stats.misses)
        registry.ratio(f"{prefix}.miss_rate",
                       f"{prefix}.misses", f"{prefix}.accesses")


class SetAssocCache:
    """A set-associative tag cache with true-LRU replacement.

    ``entries`` is total capacity; ``ways`` the associativity (``ways ==
    entries`` gives a fully associative cache); ``line_shift`` how many low
    address bits fall inside a line (0 for PID-keyed structures like the
    capability cache, 6 for 64-byte memory lines).

    An optional fully associative ``victim`` cache catches conflict evictions;
    a victim hit refills the main cache (Section V-C's 32-entry victim cache
    behind the alias cache).
    """

    def __init__(
        self,
        entries: int,
        ways: int,
        line_shift: int = 0,
        victim_entries: int = 0,
        name: str = "cache",
    ) -> None:
        if entries <= 0 or ways <= 0 or entries % ways:
            raise ValueError(f"{name}: entries={entries} not divisible by ways={ways}")
        self.name = name
        self.entries = entries
        self.ways = ways
        self.line_shift = line_shift
        self.num_sets = entries // ways
        self.stats = CacheStats()
        # Set index -> that set's dict, keyed by line tag and ordered
        # least-recently-used first (a hit re-inserts its key).  A set is
        # created by its first install; an absent index is an empty set.
        # Dicts of ints and bools are not tracked by the cyclic GC.
        self._sets: Dict[int, Dict] = {}
        self._victim: Optional[Dict] = {} if victim_entries else None
        self._victim_capacity = victim_entries

    # -- core operations ------------------------------------------------------

    def access(self, key: int, value=True) -> bool:
        """Look up ``key``; install it on a miss.  Returns hit?"""
        line = key >> self.line_shift
        index = line % self.num_sets
        try:
            set_ = self._sets[index]
        except KeyError:
            pass  # an absent set is an empty one
        else:
            if line in set_:
                set_[line] = set_.pop(line)
                self.stats.hits += 1
                return True
        if self._victim is not None and line in self._victim:
            # Victim hit: swap back into the main array, count as a hit.
            value = self._victim.pop(line)
            self.stats.hits += 1
            self.stats.victim_hits += 1
            self._install(index, line, value)
            return True
        self.stats.misses += 1
        self._install(index, line, value)
        return False

    def probe(self, key: int) -> bool:
        """Non-allocating lookup, no stats (used by invalidation filters)."""
        line = key >> self.line_shift
        set_ = self._sets.get(line % self.num_sets)
        if set_ is not None and line in set_:
            return True
        return self._victim is not None and line in self._victim

    def lookup(self, key: int):
        """Return the stored value on a (non-allocating) hit, else None."""
        line = key >> self.line_shift
        set_ = self._sets.get(line % self.num_sets)
        if set_ is not None and line in set_:
            value = set_[line] = set_.pop(line)
            return value
        if self._victim is not None and line in self._victim:
            return self._victim[line]
        return None

    def update(self, key: int, value) -> None:
        """Overwrite the value for ``key`` if present (no allocation)."""
        line = key >> self.line_shift
        set_ = self._sets.get(line % self.num_sets)
        if set_ is not None and line in set_:
            set_[line] = value
        elif self._victim is not None and line in self._victim:
            self._victim[line] = value

    def invalidate(self, key: int) -> bool:
        """Drop ``key`` (coherence invalidation).  Returns whether present."""
        line = key >> self.line_shift
        set_ = self._sets.get(line % self.num_sets)
        present = False
        if set_ is not None and line in set_:
            del set_[line]
            present = True
        if self._victim is not None and line in self._victim:
            del self._victim[line]
            present = True
        if present:
            self.stats.invalidations += 1
        return present

    def flush(self) -> None:
        """Empty the cache (keeps statistics)."""
        self._sets.clear()
        if self._victim is not None:
            self._victim.clear()

    # -- introspection -----------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets.values())

    # -- internals -----------------------------------------------------------------

    def _install(self, index: int, line: int, value) -> None:
        """Insert ``line`` into set ``index`` (created on first install),
        evicting the set's LRU line into the victim array when full."""
        set_ = self._sets.get(index)
        if set_ is None:
            set_ = self._sets[index] = {}
        elif len(set_) >= self.ways:
            victim_line = next(iter(set_))
            victim_value = set_.pop(victim_line)
            self.stats.evictions += 1
            if self._victim is not None:
                self._victim[victim_line] = victim_value
                if len(self._victim) > self._victim_capacity:
                    del self._victim[next(iter(self._victim))]
        set_[line] = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SetAssocCache {self.name}: {self.entries}x{self.ways}-way, "
            f"miss_rate={self.stats.miss_rate:.2%}>"
        )
