"""Checkpoint fidelity: snapshot/restore vs uninterrupted execution.

The snapshot subsystem's contract (``core/snapshot.py``) is
observational equivalence: a machine restored mid-run and run to
completion must be indistinguishable from one that never stopped — the
same architectural state, violation log, metrics snapshot, and phase
counters.  The property suite reuses the differential harness's seeded
random program generator (``test_differential.generate_program``) and
checks the round trip at a seeded random cut point for every program,
on the decoded-block fast path and the forced slow path alike.

A subset restores in a *fresh process* (the sampled-simulation
deployment shape: checkpoints are written by one worker and replayed by
another), and the schema gate is pinned: a snapshot whose version
stamp mismatches must fail loudly, never replay wrong state.
"""

import multiprocessing
import random

import pytest

from repro.core import Chex86Machine, Variant
from repro.core.machine import SUPERBLOCK_HOT_ENTRIES
from repro.core.snapshot import (
    SNAPSHOT_SCHEMA,
    SnapshotError,
    SnapshotSchemaError,
    capture,
    from_bytes,
    load,
    restore,
    save,
    snapshot_digest,
    to_bytes,
)
from repro.isa import assemble
from repro.telemetry import EventTracer
from conftest import assemble_main
from test_observers import CountingObserver
from test_differential import (
    BUDGET,
    N_PROGRAMS,
    VARIANTS,
    architectural_state,
    comparable_metrics,
    comparable_phase_counters,
    generate_program,
)


def observable_state(machine: Chex86Machine):
    """Everything the fidelity contract compares.

    The ``frontend.*`` counter family is excluded: restore drops the
    decoded-block and superblock caches (they rebuild lazily), so a
    split run legitimately recompiles more — and covers less — than an
    uninterrupted one.  Everything those caches *execute* must still be
    bit-identical, which the remaining keys assert.
    """
    return {
        "arch": architectural_state(machine),
        "violations": [str(v) for v in machine.violations.violations],
        "metrics": comparable_metrics(machine),
        "phase": comparable_phase_counters(machine),
        "instructions": machine.instructions,
        "halted": machine.halted,
        "rip": machine.rip,
    }


def run_reference(program, variant, slow):
    machine = Chex86Machine(program, variant=variant,
                            halt_on_violation=False)
    if slow:
        machine.block_cache_enabled = False
    machine.run(max_instructions=BUDGET)
    return machine


def run_split(program, variant, slow, cut):
    """Run ``cut`` instructions, snapshot, restore, run to completion."""
    first = Chex86Machine(program, variant=variant, halt_on_violation=False)
    if slow:
        first.block_cache_enabled = False
    first.run_quantum(cut)
    data = first.snapshot()
    second = Chex86Machine.restore(data)
    assert second.block_cache_enabled == first.block_cache_enabled
    second.run_quantum(BUDGET - cut)
    return second


class TestRoundTripFidelity:
    """Snapshot at a seeded random cut, restore, finish: identical."""

    @pytest.mark.parametrize("seed", range(N_PROGRAMS))
    def test_split_run_matches_uninterrupted(self, seed):
        program = assemble(generate_program(seed), name=f"fuzz{seed}")
        variant = VARIANTS[seed % len(VARIANTS)]
        # Fast path and slow path alternate by seed (both still covered
        # exhaustively by TestBothPathsPerSeed below on a subset).
        slow = bool(seed % 2)
        cut = random.Random(seed).randrange(1, BUDGET)
        reference = run_reference(program, variant, slow)
        resumed = run_split(program, variant, slow, cut)
        assert observable_state(resumed) == observable_state(reference), (
            f"seed {seed} ({variant.value}, slow={slow}, cut={cut}): "
            f"restored run diverged from uninterrupted run")

    @pytest.mark.parametrize("seed", range(0, N_PROGRAMS, 10))
    def test_both_paths_same_seed(self, seed):
        program = assemble(generate_program(seed), name=f"fuzz{seed}")
        variant = VARIANTS[seed % len(VARIANTS)]
        cut = random.Random(1000 + seed).randrange(1, BUDGET)
        for slow in (False, True):
            reference = run_reference(program, variant, slow)
            resumed = run_split(program, variant, slow, cut)
            assert observable_state(resumed) == observable_state(reference)

    @pytest.mark.parametrize("seed", range(4))
    def test_violating_program_round_trips(self, seed):
        """A snapshot taken before an OOB store must replay the same
        violation on restore."""
        source = generate_program(seed).replace(
            "    halt\n",
            f"    mov [r12 + {(seed % 4 + 1) * 128}], rax\n    halt\n", 1)
        program = assemble(source, name=f"fuzz-oob{seed}")
        variant = VARIANTS[seed % len(VARIANTS)]
        reference = run_reference(program, variant, slow=False)
        assert reference.violations.count() > 0
        resumed = run_split(program, variant, slow=False, cut=5)
        assert observable_state(resumed) == observable_state(reference)

    def test_snapshot_does_not_disturb_the_running_machine(self):
        """Taking a snapshot is observation, not interference: the
        snapshotted machine finishes exactly like an unsnapshotted one."""
        program = assemble(generate_program(3), name="fuzz3")
        reference = run_reference(program, Variant.UCODE_PREDICTION,
                                  slow=False)
        machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                                halt_on_violation=False)
        machine.run_quantum(200)
        machine.snapshot()
        machine.run_quantum(BUDGET - 200)
        assert observable_state(machine) == observable_state(reference)

    def test_double_restore_runs_are_independent(self):
        """Two machines restored from one snapshot share no state."""
        program = assemble(generate_program(7), name="fuzz7")
        machine = Chex86Machine(program, variant=Variant.UCODE_ALWAYS_ON,
                                halt_on_violation=False)
        machine.run_quantum(300)
        data = machine.snapshot()
        first, second = restore(data), restore(data)
        first.run_quantum(BUDGET)
        second.run_quantum(BUDGET)
        assert observable_state(first) == observable_state(second)


class TestSuperblockCacheAcrossRestore:
    """Restore drops the compiled front-end caches; they rebuild lazily
    and the resumed run stays bit-identical."""

    def test_superblocks_recompile_lazily_after_restore(self):
        """Heat is not serialized either: a chain that was hot before the
        snapshot restarts cold and tiers up again after N more entries."""
        hot = SUPERBLOCK_HOT_ENTRIES
        program = assemble_main(f"""
    mov rcx, {4 * hot}
loop:
    add rax, 3
    add rbx, rax
    sub rcx, 1
    jne loop
""")
        machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                                halt_on_violation=False)
        while not any(sb is not None and sb.replay is not None
                      for sb in machine._superblocks.values()):
            assert not machine.halted
            machine.run_quantum(20)
        restored = restore(machine.snapshot())
        # The caches are not serialized: they start empty...
        assert restored._superblocks == {}
        assert restored._blocks == {}
        # ...reform lazily, cold...
        restored.run_quantum(4 * (hot // 2))
        loop_chain = restored._superblocks[program.labels["loop"]]
        assert 0 < loop_chain.heat < hot
        assert loop_chain.replay is None
        # ...and re-attach compiled replay once the chain is hot again.
        restored.run_quantum(BUDGET)
        assert restored.halted
        assert loop_chain.heat == hot
        assert loop_chain.replay is not None
        machine.run_quantum(BUDGET)
        assert observable_state(restored) == observable_state(machine)

    @pytest.mark.parametrize("mode", (False, True),
                             ids=("slow", "superblock"))
    def test_block_cache_knob_round_trips(self, mode):
        """Both knob settings survive snapshot/restore verbatim and
        the resumed run matches an uninterrupted one."""
        program = assemble(generate_program(9), name="fuzz9")
        reference = Chex86Machine(program, variant=Variant.UCODE_ALWAYS_ON,
                                  halt_on_violation=False)
        reference.block_cache_enabled = mode
        reference.run(max_instructions=BUDGET)

        first = Chex86Machine(program, variant=Variant.UCODE_ALWAYS_ON,
                              halt_on_violation=False)
        first.block_cache_enabled = mode
        first.run_quantum(BUDGET // 3)
        second = restore(first.snapshot())
        assert second.block_cache_enabled == mode
        assert second.block_cache_enabled is not True or mode is True
        second.run_quantum(BUDGET)
        assert observable_state(second) == observable_state(reference)


def _finish_from_snapshot(data, budget, queue):
    machine = Chex86Machine.restore(data)
    machine.run_quantum(budget)
    state = observable_state(machine)
    queue.put(state)


class TestFreshProcessRestore:
    """The deployment shape: snapshot here, restore in another process."""

    @pytest.mark.parametrize("seed", (0, 11, 22, 33, 44, 49))
    def test_restore_in_child_process(self, seed):
        program = assemble(generate_program(seed), name=f"fuzz{seed}")
        variant = VARIANTS[seed % len(VARIANTS)]
        slow = bool(seed % 2)
        cut = random.Random(2000 + seed).randrange(1, BUDGET)
        reference = run_reference(program, variant, slow)

        first = Chex86Machine(program, variant=variant,
                              halt_on_violation=False)
        if slow:
            first.block_cache_enabled = False
        first.run_quantum(cut)
        data = first.snapshot()

        ctx = multiprocessing.get_context()
        queue = ctx.Queue()
        child = ctx.Process(target=_finish_from_snapshot,
                            args=(data, BUDGET - cut, queue))
        child.start()
        state = queue.get(timeout=120)
        child.join(timeout=30)
        assert state == observable_state(reference), (
            f"seed {seed}: fresh-process restore diverged")


class TestSchemaAndWireFormat:
    def _snapshot_bytes(self):
        program = assemble(generate_program(0), name="fuzz0")
        machine = Chex86Machine(program, halt_on_violation=False)
        machine.run_quantum(100)
        return machine.snapshot()

    def test_schema_mismatch_fails_loudly(self):
        import pickle

        tree = from_bytes(self._snapshot_bytes())
        tree["schema"] = SNAPSHOT_SCHEMA + 1
        with pytest.raises(SnapshotSchemaError, match="schema"):
            from_bytes(pickle.dumps(tree))
        with pytest.raises(SnapshotSchemaError):
            restore(pickle.dumps(tree))

    def test_schema_3_payload_rejected(self):
        """A checkpoint from before the flat predictor tables and the
        ring-free scoreboard must not restore into today's layout."""
        import pickle

        tree = from_bytes(self._snapshot_bytes())
        tree["schema"] = 3
        timing = tree["state"]["timing"]
        for name, value in timing.pop("scalars").items():
            timing[name.lstrip("_")] = value
        del timing["commit_used"]
        timing.update(issue_tags=[-1] * 8, issue_counts=[0] * 8,
                      commit_tags=[-1] * 8, commit_counts=[0] * 8)
        with pytest.raises(SnapshotSchemaError, match="schema 3"):
            restore(pickle.dumps(tree))

    def test_garbage_bytes_rejected(self):
        with pytest.raises(SnapshotError):
            from_bytes(b"not a snapshot at all")
        with pytest.raises(SnapshotError):
            from_bytes(to_bytes({"no": "schema"}))

    def test_save_load_round_trip(self, tmp_path):
        program = assemble(generate_program(5), name="fuzz5")
        machine = Chex86Machine(program, halt_on_violation=False)
        machine.run_quantum(500)
        path = tmp_path / "ckpt" / "machine.ckpt"
        digest = save(machine, path)
        assert digest == snapshot_digest(path.read_bytes())
        restored = load(path, expected_digest=digest)
        machine.run_quantum(BUDGET)
        restored.run_quantum(BUDGET)
        assert observable_state(restored) == observable_state(machine)

    def test_load_rejects_wrong_digest(self, tmp_path):
        program = assemble(generate_program(5), name="fuzz5")
        machine = Chex86Machine(program, halt_on_violation=False)
        machine.run_quantum(100)
        path = tmp_path / "machine.ckpt"
        save(machine, path)
        with pytest.raises(SnapshotError, match="digest"):
            load(path, expected_digest="0" * 64)

    def test_capture_tree_is_detached(self):
        """The captured tree must not alias live machine state."""
        program = assemble(generate_program(2), name="fuzz2")
        machine = Chex86Machine(program, halt_on_violation=False)
        machine.run_quantum(200)
        tree = capture(machine)
        before = to_bytes(tree)
        machine.run_quantum(2_000)  # keep mutating the machine
        assert to_bytes(tree) == before


class TestSnapshotRestrictions:
    @pytest.mark.parametrize("make_observer", (EventTracer, CountingObserver),
                             ids=("tracer", "counting"))
    def test_observer_attached_is_rejected(self, make_observer):
        program = assemble(generate_program(0), name="fuzz0")
        machine = Chex86Machine(program, halt_on_violation=False)
        observer = machine.attach(make_observer())
        with pytest.raises(SnapshotError, match="observer"):
            machine.snapshot()
        machine.detach(observer)
        machine.snapshot()  # detached again: fine

    def test_custom_host_hooks_rejected(self):
        program = assemble(generate_program(0), name="fuzz0")
        machine = Chex86Machine(program, halt_on_violation=False,
                                host_hooks={"custom_hook": lambda m: None})
        with pytest.raises(SnapshotError, match="host hooks"):
            machine.snapshot()
