"""Per-machine GC footprint.

Short machines dominate the security suites and the fuzz campaign, so a
machine's state must stay nearly invisible to CPython's cyclic
collector: predictor tables are flat lists of ints and cache sets are
dicts of ints, never one object per entry.  Either bound below fails if
an object-per-entry table or a large per-core list comes back.
"""

import gc

from conftest import assemble_main
from repro.core import Chex86Machine


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


def test_snapshot_payload_is_small():
    machine = Chex86Machine(_program(), halt_on_violation=False)
    machine.run_quantum(100)
    size = len(machine.snapshot())
    assert size < 150_000, f"snapshot payload is {size} bytes"
