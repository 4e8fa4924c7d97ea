"""Per-machine GC footprint and lifetime.

Short machines dominate the security suites and the fuzz campaign, so a
machine's state must stay nearly invisible to CPython's cyclic
collector: predictor tables are flat lists of ints, cache sets are dicts
of ints allocated on first install, and nothing a machine owns refers
back to it, so ``del machine`` frees it by reference counting alone.
Each bound below fails if an object-per-entry table, an up-front cache
set array or a reference cycle through the machine comes back.
"""

import gc
import pickle
import weakref
from dataclasses import asdict
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assemble_main
from repro import workloads
from repro.core import Chex86Machine, Variant
from repro.core.snapshot import (
    SnapshotSchemaError,
    _capture_cache,
    _restore_cache,
    from_bytes,
    restore,
)
from repro.exploits import how2heap
from repro.exploits.harness import run_case
from repro.fuzz import install_protect_hook
from repro.isa import assemble
from repro.memory.cache import CacheStats, SetAssocCache
from repro.pipeline.multicore import MulticoreMachine


def _program():
    return assemble_main("    mov rax, 1\n    add rax, 2")


def test_fresh_machine_adds_few_gc_tracked_objects():
    program = _program()
    Chex86Machine(program)  # first use warms imports and module caches
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        machine = Chex86Machine(program)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert machine is not None
    assert added < 1000, f"a fresh machine added {added} tracked objects"


def test_fresh_machine_allocates_few_gc_objects():
    """The generation-0 count is what triggers collections: it also
    counts containers that start empty and untracked, such as cache set
    dicts, so an up-front set array shows here and not above."""
    program = _program()
    Chex86Machine(program)
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        machine = Chex86Machine(program)
        allocated = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert machine is not None
    assert allocated < 1000, \
        f"constructing a machine made {allocated} GC allocations"


def test_fresh_machine_allocates_no_cache_sets():
    machine = Chex86Machine(_program())
    caches = [machine.capcache, machine.alias_cache.cache, machine.tlb._cache,
              machine.timing.l1i, machine.timing.l1d, machine.predictors.btb,
              machine.system.l2]
    assert [len(cache._sets) for cache in caches] == [0] * len(caches)


def test_snapshot_payload_is_small():
    machine = Chex86Machine(_program(), halt_on_violation=False)
    machine.run_quantum(100)
    size = len(machine.snapshot())
    assert size < 150_000, f"snapshot payload is {size} bytes"


def test_schema_4_payload_rejected():
    """A checkpoint with every cache's full list of sets (schema 4) must
    not restore into the lazily allocated layout."""
    machine = Chex86Machine(_program(), halt_on_violation=False)
    machine.run_quantum(100)
    tree = from_bytes(machine.snapshot())
    tree["schema"] = 4

    def as_schema_4(cache_state):
        sets = [[] for _ in range(cache_state.pop("num_sets"))]
        for index, items in cache_state["sets"].items():
            sets[index] = items
        cache_state["sets"] = sets

    state = tree["state"]
    for cache_state in (state["capcache"], state["alias_cache"],
                        state["tlb"]["cache"], state["timing"]["l1i"],
                        state["timing"]["l1d"], state["predictors"]["btb"],
                        state["system"]["l2"]):
        as_schema_4(cache_state)
    with pytest.raises(SnapshotSchemaError, match="schema 4"):
        restore(pickle.dumps(tree))


# -- freed by reference counting ----------------------------------------------


def _mcf_program():
    workload = workloads.build("mcf")
    return assemble(workload.source, name=workload.name)


def _single_core():
    machine = Chex86Machine(_mcf_program(), halt_on_violation=False)
    machine.run(max_instructions=20_000)
    return machine


def _with_checker():
    machine = Chex86Machine(_mcf_program(), halt_on_violation=False,
                            enable_checker=True)
    machine.run(max_instructions=20_000)
    return machine


def _multicore():
    runner = MulticoreMachine(workloads.build("blackscholes"),
                              halt_on_violation=False)
    runner.run(max_instructions_per_core=5_000)
    return runner.cores[0]


def _restored():
    machine = Chex86Machine(_mcf_program(), halt_on_violation=False)
    machine.run_quantum(5_000)
    restored_machine = Chex86Machine.restore(machine.snapshot())
    restored_machine.run(max_instructions=5_000)
    return restored_machine


def _protect_hook():
    machine = Chex86Machine(_mcf_program(), halt_on_violation=False)
    install_protect_hook(machine)
    machine.run(max_instructions=5_000)
    return machine


def _exploit(defense):
    def run():
        case = how2heap.generate_suite()[0]
        run_case(case.name, case.build(), defense)
    return run


_LIFETIMES = {
    "single-core": _single_core,
    "checker": _with_checker,
    "multicore": _multicore,
    "restored": _restored,
    "protect-hook": _protect_hook,
    "run_case-asan": _exploit("asan"),
    "run_case-chex86": _exploit(Variant.UCODE_PREDICTION),
}


@pytest.mark.parametrize("kind", sorted(_LIFETIMES))
def test_machine_is_freed_by_refcount(kind):
    """Build, run and drop a machine with the collector off: it must be
    gone at once, and a collection must find nothing left over.  Covers
    the host hooks too (the fuzz permission hook, the ASan runtime)."""
    build = _LIFETIMES[kind]
    build()  # warm module-level caches (decoder, code cache, imports)
    gc.collect()
    gc.disable()
    try:
        machine = build()
        ref = weakref.ref(machine) if machine is not None else None
        del machine
        alive = ref is not None and ref() is not None
        leftover = gc.collect()
    finally:
        gc.enable()
    assert not alive, f"{kind}: the machine outlived its last reference"
    assert leftover == 0, \
        f"{kind}: {leftover} objects were left to the cyclic collector"


# -- lazy sets against the list-of-dicts layout ---------------------------------


class ListSetCache:
    """The up-front layout: one dict per set, all allocated at build.

    The reference the lazily allocated :class:`SetAssocCache` must match
    operation for operation.
    """

    def __init__(self, entries: int, ways: int, line_shift: int,
                 victim_entries: int) -> None:
        self.ways = ways
        self.line_shift = line_shift
        self.num_sets = entries // ways
        self.stats = CacheStats()
        self.sets: List[Dict] = [{} for _ in range(self.num_sets)]
        self.victim: Optional[Dict] = {} if victim_entries else None
        self.victim_capacity = victim_entries

    def access(self, key, value=True) -> bool:
        line = key >> self.line_shift
        set_ = self.sets[line % self.num_sets]
        if line in set_:
            set_[line] = set_.pop(line)
            self.stats.hits += 1
            return True
        if self.victim is not None and line in self.victim:
            value = self.victim.pop(line)
            self.stats.hits += 1
            self.stats.victim_hits += 1
            self.install(line, value)
            return True
        self.stats.misses += 1
        self.install(line, value)
        return False

    def probe(self, key) -> bool:
        line = key >> self.line_shift
        if line in self.sets[line % self.num_sets]:
            return True
        return self.victim is not None and line in self.victim

    def lookup(self, key):
        line = key >> self.line_shift
        set_ = self.sets[line % self.num_sets]
        if line in set_:
            value = set_[line] = set_.pop(line)
            return value
        if self.victim is not None and line in self.victim:
            return self.victim[line]
        return None

    def update(self, key, value) -> None:
        line = key >> self.line_shift
        set_ = self.sets[line % self.num_sets]
        if line in set_:
            set_[line] = value
        elif self.victim is not None and line in self.victim:
            self.victim[line] = value

    def invalidate(self, key) -> bool:
        line = key >> self.line_shift
        set_ = self.sets[line % self.num_sets]
        present = False
        if line in set_:
            del set_[line]
            present = True
        if self.victim is not None and line in self.victim:
            del self.victim[line]
            present = True
        if present:
            self.stats.invalidations += 1
        return present

    def flush(self) -> None:
        for set_ in self.sets:
            set_.clear()
        if self.victim is not None:
            self.victim.clear()

    def install(self, line, value) -> None:
        set_ = self.sets[line % self.num_sets]
        if len(set_) >= self.ways:
            victim_line = next(iter(set_))
            victim_value = set_.pop(victim_line)
            self.stats.evictions += 1
            if self.victim is not None:
                self.victim[victim_line] = victim_value
                if len(self.victim) > self.victim_capacity:
                    del self.victim[next(iter(self.victim))]
        set_[line] = value

    def contents(self) -> Dict[int, list]:
        return {index: list(set_.items())
                for index, set_ in enumerate(self.sets) if set_}


_keys = st.integers(min_value=0, max_value=1 << 12)
_values = st.integers(min_value=0, max_value=7)
_cache_ops = st.one_of(
    st.tuples(st.just("access"), _keys, _values),
    st.tuples(st.just("install"), _keys, _values),
    st.tuples(st.just("update"), _keys, _values),
    st.tuples(st.just("invalidate"), _keys, st.just(0)),
    st.tuples(st.just("probe"), _keys, st.just(0)),
    st.tuples(st.just("lookup"), _keys, st.just(0)),
    st.tuples(st.just("flush"), st.just(0), st.just(0)),
    st.tuples(st.just("snapshot"), st.just(0), st.just(0)),
)

_NON_ALLOCATING = ("update", "invalidate", "probe", "lookup")


def _lazy_contents(cache: SetAssocCache) -> Dict[int, list]:
    return {index: list(set_.items())
            for index, set_ in cache._sets.items() if set_}


class TestLazySetsMatchListOfDicts:
    @settings(max_examples=80, deadline=None)
    @given(ops=st.lists(_cache_ops, max_size=300),
           geometry=st.sampled_from([(64, 4), (16, 2), (8, 8), (256, 2),
                                     (1, 1)]),
           line_shift=st.sampled_from([0, 6]),
           victim_entries=st.sampled_from([0, 1, 4]))
    def test_random_ops_match_reference(self, ops, geometry, line_shift,
                                        victim_entries):
        entries, ways = geometry
        lazy = SetAssocCache(entries, ways, line_shift, victim_entries)
        ref = ListSetCache(entries, ways, line_shift, victim_entries)
        for op, key, value in ops:
            allocated = set(lazy._sets)
            if op == "access":
                assert lazy.access(key, value) == ref.access(key, value)
            elif op == "install":
                # The miss leg TimingModel.mem_access_miss and Tlb.refill
                # take: count the miss, install without a probe.
                line = key >> line_shift
                if not ref.probe(key):
                    lazy.stats.misses += 1
                    lazy._install(line % lazy.num_sets, line, value)
                    ref.stats.misses += 1
                    ref.install(line, value)
            elif op == "update":
                lazy.update(key, value)
                ref.update(key, value)
            elif op == "invalidate":
                assert lazy.invalidate(key) == ref.invalidate(key)
            elif op == "probe":
                assert lazy.probe(key) == ref.probe(key)
            elif op == "lookup":
                assert lazy.lookup(key) == ref.lookup(key)
            elif op == "flush":
                lazy.flush()
                ref.flush()
            else:
                # Round-trip through the snapshot wire format into a
                # fresh lazy cache, which carries on from here.
                state = pickle.loads(pickle.dumps(_capture_cache(lazy)))
                assert state["num_sets"] == lazy.num_sets
                assert state["sets"] == ref.contents()
                lazy = SetAssocCache(entries, ways, line_shift,
                                     victim_entries)
                _restore_cache(lazy, state)
                allocated = set(lazy._sets)
            if op in _NON_ALLOCATING:
                assert set(lazy._sets) == allocated, \
                    f"{op} on an absent set allocated it"
            assert asdict(lazy.stats) == asdict(ref.stats)
            assert _lazy_contents(lazy) == ref.contents()
            assert lazy._victim == ref.victim
            assert lazy.occupancy == sum(len(s) for s in ref.sets)

    def test_restore_rejects_other_geometry(self):
        from repro.core.snapshot import SnapshotError

        small = SetAssocCache(64, 4, name="small")
        small.access(5)
        other = SetAssocCache(128, 4, name="other")
        with pytest.raises(SnapshotError, match="config mismatch"):
            _restore_cache(other, _capture_cache(small))
