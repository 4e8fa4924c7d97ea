"""Unit tests for the scoreboard timing model."""

import pickle
import random
from heapq import heapreplace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.snapshot import (
    _capture_cache,
    _capture_timing,
    _restore_cache,
    _restore_timing,
)
from repro.memory import SetAssocCache
from repro.microop.uops import NUM_UREGS
from repro.pipeline import timing as timing_module
from repro.pipeline.config import DEFAULT_CONFIG
from repro.pipeline.timing import FuType, TimingModel


def make_timing(config=DEFAULT_CONFIG):
    l2 = SetAssocCache(config.l2_bytes // config.line_bytes, config.l2_ways,
                       config.line_bytes.bit_length() - 1, name="l2")
    return TimingModel(config, l2)


class TestScheduling:
    def test_dependency_chain_serializes(self):
        timing = make_timing()
        timing.begin_macro(0x400000)
        first = timing.schedule((), 0, latency=5)
        second = timing.schedule((0,), 1, latency=1)
        assert second >= first + 1

    def test_independent_ops_overlap(self):
        timing = make_timing()
        timing.begin_macro(0x400000)
        a = timing.schedule((), 0, latency=10)
        b = timing.schedule((), 1, latency=10)
        assert abs(a - b) < 10  # not serialized behind each other

    def test_flags_dependency(self):
        timing = make_timing()
        timing.begin_macro(0x400000)
        producer = timing.schedule((), 0, latency=7, writes_flags=True)
        consumer = timing.schedule((), None, latency=1, reads_flags=True)
        assert consumer >= producer + 1

    def test_unpipelined_unit_backs_up(self):
        timing = make_timing()
        timing.begin_macro(0x400000)
        first = timing.schedule((), None, latency=3, fu=FuType.MULT,
                                occupancy=3)
        second = timing.schedule((), None, latency=3, fu=FuType.MULT,
                                 occupancy=3)
        assert second >= first + 3

    def test_issue_width_limits_per_cycle(self):
        config = DEFAULT_CONFIG.with_(issue_width=2)
        timing = make_timing(config)
        timing.begin_macro(0x400000)
        done = [timing.schedule((), None, latency=1) for _ in range(8)]
        # 8 single-cycle uops through a 2-wide issue: at least 4 cycles span.
        assert max(done) - min(done) >= 3

    def test_finish_reports_cycles(self):
        timing = make_timing()
        timing.begin_macro(0x400000)
        timing.schedule((), 0, latency=4)
        stats = timing.finish()
        assert stats.cycles > 0
        assert stats.uops == 1


class TestMemoryHierarchy:
    def test_l1_hit_after_miss(self):
        timing = make_timing()
        cold = timing.mem_access(0x10000, is_store=False)
        warm = timing.mem_access(0x10000, is_store=False)
        assert cold > warm
        assert warm == DEFAULT_CONFIG.l1_latency
        assert timing.stats.l1d_misses == 1

    def test_l2_hit_cheaper_than_dram(self):
        timing = make_timing()
        dram = timing.mem_access(0x10000, is_store=False)
        # Evict from L1 by filling its set, keeping L2 resident.
        for i in range(1, 20):
            timing.mem_access(0x10000 + i * DEFAULT_CONFIG.l1d_bytes, False)
        l2_hit = timing.mem_access(0x10000, is_store=False)
        assert DEFAULT_CONFIG.l1_latency < l2_hit < dram

    def test_dram_traffic_counted(self):
        timing = make_timing()
        timing.mem_access(0x20000, is_store=False)
        assert timing.stats.dram_bytes == DEFAULT_CONFIG.line_bytes

    def test_shadow_traffic_separate(self):
        timing = make_timing()
        timing.shadow_access(10, 16)
        assert timing.stats.shadow_dram_bytes == 16
        assert timing.stats.dram_bytes == 0

    def test_bandwidth_metric(self):
        timing = make_timing()
        timing.begin_macro(0x400000)
        timing.mem_access(0x20000, is_store=False)
        timing.schedule((), 0, latency=1)
        stats = timing.finish()
        assert stats.bandwidth_mb_per_s(3.4) > 0


class TestFrontEnd:
    def test_fetch_groups_advance(self):
        timing = make_timing()
        for i in range(12):
            timing.begin_macro(0x400000 + 4 * i)
        # 12 macro-ops / 4-wide fetch = at least 3 groups.
        assert timing.stats.fetch_groups >= 3

    def test_msrom_consumes_group(self):
        plain = make_timing()
        for i in range(8):
            plain.begin_macro(0x400000 + 4 * i)
        msrom = make_timing()
        for i in range(8):
            msrom.begin_macro(0x400000 + 4 * i, msrom=True)
        assert msrom.stats.fetch_groups > plain.stats.fetch_groups

    def test_bt_fetch_slots_tax(self):
        narrow = make_timing()
        for i in range(16):
            narrow.begin_macro(0x400000 + 4 * i, fetch_slots=2)
        wide = make_timing()
        for i in range(16):
            wide.begin_macro(0x400000 + 4 * i, fetch_slots=1)
        assert narrow.stats.fetch_groups > wide.stats.fetch_groups

    def test_redirect_accounts_squash(self):
        timing = make_timing()
        timing.begin_macro(0x400000)
        done = timing.schedule((), None, latency=1)
        timing.redirect(done, penalty=15)
        assert timing.stats.squash_cycles >= 15
        assert timing.stats.branch_squash_cycles >= 15

    def test_alias_redirect_tagged(self):
        timing = make_timing()
        timing.begin_macro(0x400000)
        done = timing.schedule((), None, latency=1)
        timing.redirect(done, penalty=15, alias=True)
        assert timing.stats.alias_squash_cycles >= 15


class TestRoutineCall:
    def test_routine_produces_result_later(self):
        timing = make_timing()
        timing.begin_macro(0x400000)
        done = timing.routine_call(90, srcs=(), dst=0)
        dependent = timing.schedule((0,), 1, latency=1)
        assert dependent > done - 1
        assert timing.stats.hostop_cycles == 45

    def test_routine_does_not_drain_pipe(self):
        timing = make_timing()
        timing.begin_macro(0x400000)
        slow = timing.schedule((), 2, latency=200)
        timing.routine_call(90, srcs=(), dst=0)
        independent = timing.schedule((), 3, latency=1)
        # Work not depending on the routine finishes before the slow chain.
        assert independent < slow

    def test_occupy_reserves_unit(self):
        timing = make_timing()
        start1 = timing.occupy(FuType.WALKER, 10, 30)
        start2 = timing.occupy(FuType.WALKER, 10, 30)
        start3 = timing.occupy(FuType.WALKER, 10, 30)
        # Two walkers: the third walk waits for a unit.
        assert start1 == 10 and start2 == 10
        assert start3 >= 40


# -- scoreboard equivalence ------------------------------------------------

_RING_SIZE = 1 << 16
_RING_MASK = _RING_SIZE - 1


class RingTimingModel(TimingModel):
    """Reference scoreboard: issue and commit slots in per-cycle rings.

    A test-local copy of the earlier slot search.  ``counts[cycle &
    mask]`` is valid only while ``tags[cycle & mask] == cycle``, and the
    search walks forward cycle by cycle.  It is exact while the live
    window stays below the ring size, which holds for these runs.  The
    dict-and-scalars scoreboard of :class:`TimingModel` must match it
    cycle for cycle.
    """

    def __init__(self, config, l2):
        super().__init__(config, l2)
        self._issue_tags = [-1] * _RING_SIZE
        self._issue_ring = [0] * _RING_SIZE
        self._commit_tags = [-1] * _RING_SIZE
        self._commit_ring = [0] * _RING_SIZE

    @staticmethod
    def _take(tags, counts, cycle, width):
        while True:
            slot = cycle & _RING_MASK
            if tags[slot] != cycle:
                tags[slot] = cycle
                counts[slot] = 1
                return cycle
            if counts[slot] < width:
                counts[slot] += 1
                return cycle
            cycle += 1

    def _commit_slot(self, done):
        commit = self._take(self._commit_tags, self._commit_ring,
                            max(done, self._last_commit), self._commit_width)
        if commit > self._last_commit:
            self._last_commit = commit
        return commit

    def schedule(self, srcs, dst, latency, fu=FuType.ALU,
                 reads_flags=False, writes_flags=False, occupancy=1):
        stats = self.stats
        stats.uops += 1
        stats.fu_uops[fu] += 1
        rob = self._rob
        dispatch = self._fetch_cycle + self._decode_depth
        if len(rob) >= self._rob_entries:
            oldest = rob.popleft()
            if oldest > dispatch:
                dispatch = oldest
                stats.rob_stall_events += 1
                stalled_fetch = dispatch - self._decode_depth
                if stalled_fetch > self._fetch_cycle:
                    self._fetch_cycle = stalled_fetch
        queue = {FuType.LOAD: self._lq, FuType.STORE: self._sq}.get(fu)
        if queue is not None:
            limit = (self._lq_entries if fu == FuType.LOAD
                     else self._sq_entries)
            while queue and queue[0] <= dispatch:
                queue.popleft()
            if len(queue) >= limit:
                head = queue.popleft()
                if head > dispatch:
                    dispatch = head
        ready = dispatch
        for src in srcs:
            ready = max(ready, self._reg_ready[src])
        if reads_flags:
            ready = max(ready, self._reg_ready[NUM_UREGS])
        pool = self._pools[fu]
        if pool._single:
            cycle = max(ready, pool._free)
            pool._free = cycle + occupancy
        else:
            cycle = max(ready, pool._free[0])
            heapreplace(pool._free, cycle + occupancy)
        cycle = self._take(self._issue_tags, self._issue_ring, cycle,
                           self._issue_width)
        done = cycle + latency
        if dst is not None:
            self._reg_ready[dst] = done
        if writes_flags:
            self._reg_ready[NUM_UREGS] = done
        commit = self._commit_slot(done)
        rob.append(commit)
        if queue is not None:
            queue.append(commit)
        return done


_regs = st.integers(min_value=0, max_value=NUM_UREGS - 1)
_srcs = st.lists(_regs, max_size=3).map(tuple)
_ops = st.one_of(
    st.tuples(st.just("schedule"), _srcs, st.one_of(st.none(), _regs),
              st.integers(min_value=0, max_value=160),
              st.integers(min_value=0, max_value=5), st.booleans(),
              st.booleans(), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("routine_call"),
              st.integers(min_value=1, max_value=200), _srcs,
              st.one_of(st.none(), _regs)),
    st.tuples(st.just("redirect"), st.integers(min_value=-20, max_value=40),
              st.integers(min_value=0, max_value=20), st.booleans()),
    st.tuples(st.just("fetch_block"), st.integers(min_value=1, max_value=4),
              st.integers(min_value=0, max_value=600)),
)


def _apply(model, op, last_done):
    """Run one op; returns the new ``last_done`` (redirects resolve
    relative to the latest completion, as a branch's would)."""
    kind = op[0]
    if kind == "schedule":
        return model.schedule(*op[1:])
    if kind == "routine_call":
        return model.routine_call(*op[1:])
    if kind == "redirect":
        model.redirect(max(0, last_done + op[1]), op[2], alias=op[3])
    else:
        model.fetch_block(op[1], op[2])
    return last_done


def _state(model):
    return (model._last_commit, model._fetch_cycle, model._group_used,
            list(model._rob), list(model._lq), list(model._sq),
            list(model._reg_ready), model.stats)


def _restored_copy(model):
    """A fresh model resumed from a pickled mid-run timing snapshot."""
    clone = make_timing(model.config)
    _restore_cache(clone.l2, _capture_cache(model.l2))
    _restore_timing(clone, pickle.loads(pickle.dumps(_capture_timing(model))))
    return clone


class TestScoreboardMatchesRings:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(_ops, max_size=250),
           issue_width=st.integers(min_value=1, max_value=6),
           commit_width=st.integers(min_value=1, max_value=6),
           cut=st.integers(min_value=0, max_value=250))
    def test_random_ops_match_ring_reference(self, ops, issue_width,
                                             commit_width, cut):
        config = DEFAULT_CONFIG.with_(issue_width=issue_width,
                                      commit_width=commit_width)
        ring = RingTimingModel(config, make_timing(config).l2)
        # A tiny prune threshold makes the issue dict prune throughout.
        with mock.patch.object(timing_module, "_ISSUE_PRUNE_AT", 4):
            model = make_timing(config)
            resumed = None
            done = 0
            for index, op in enumerate(ops):
                if index == cut:
                    resumed = _restored_copy(model)
                expected = _apply(ring, op, done)
                if resumed is not None:
                    assert _apply(resumed, op, done) == expected
                done = _apply(model, op, done)
                assert done == expected, (index, op)
                assert model._last_commit == ring._last_commit
                if resumed is not None:
                    assert _state(resumed) == _state(model)
        assert model.finish().cycles == ring.finish().cycles
        if resumed is not None:
            assert resumed.finish().cycles == ring.stats.cycles

    def test_long_run_matches_and_stays_bounded(self):
        rng = random.Random(2020)
        config = DEFAULT_CONFIG.with_(issue_width=2, commit_width=3)
        model = make_timing(config)
        models = [model, RingTimingModel(config, make_timing(config).l2)]
        peak = 0
        for step in range(200_000):
            if step == 100_000:
                # Snapshot mid-run; the restored copy runs the rest too.
                models.append(_restored_copy(model))
            if step % 97 == 0:
                penalty = rng.randrange(20)
                for each in models:
                    each.redirect(each._last_commit, penalty)
            if step % 3 == 0:
                for each in models:
                    each.fetch_block(1, step % 512)
            args = (tuple(rng.sample(range(8), rng.randrange(3))),
                    rng.randrange(8), rng.choice((1, 1, 3, 4, 18, 124)),
                    rng.randrange(6), False, rng.random() < 0.3,
                    rng.choice((1, 1, 1, 3)))
            done = {each.schedule(*args) for each in models}
            assert len(done) == 1, (step, done)
            peak = max(peak, len(model._issue_counts))
        assert len({each._last_commit for each in models}) == 1
        assert len({each.finish().cycles for each in models}) == 1
        # Pruned throughout: far more cycles were issued into than kept.
        assert model.stats.cycles > 50 * timing_module._ISSUE_PRUNE_AT
        assert peak <= 2 * timing_module._ISSUE_PRUNE_AT
