"""One observer list: every attached observer sees the same events.

The machine dispatches each event through one loop over its attached
observers (``Chex86Machine.attach``).  This suite attaches the event
tracer, the provenance recorder and a test-local counting observer to
one machine and checks, over the committed corpus under every variant:

* the counter sees exactly the tracer's kinds as often as the tracer
  records them;
* the recorder's totals still decompose the MCU aggregate counters;
* the armed run's architectural state equals a disarmed run's;

and that detaching every observer puts the same machine back on the
superblock path.
"""

from pathlib import Path

import pytest

from repro.core import Chex86Machine, Variant
from repro.fuzz import Corpus, architectural_state, generate, install_protect_hook
from repro.isa import assemble
from repro.telemetry import EVENT_KINDS, EventTracer
from repro.translator import translate

from conftest import assemble_main

CORPUS = Corpus(Path(__file__).parent / "corpus")
ENTRIES = CORPUS.ordered_entries()


class CountingObserver:
    """Counts every event it is sent, by kind."""

    def __init__(self):
        self.counts = {}

    def emit(self, ts, kind, pc=0, **fields):
        self.counts[kind] = self.counts.get(kind, 0) + 1


def corpus_machine(entry, variant):
    fuzz_program = generate(entry.seed, entry.profile)
    program = assemble(fuzz_program.source, name=fuzz_program.name)
    if variant is Variant.BT_ISA_EXTENSION:
        program, _ = translate(program)
    machine = Chex86Machine(program, variant=variant, halt_on_violation=False)
    if entry.profile == "permission":
        install_protect_hook(machine)
    return machine


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.filename.removesuffix(".json")
                           for entry in ENTRIES])
def test_observers_see_the_same_events(entry):
    for variant in Variant:
        machine = corpus_machine(entry, variant)
        tracer = machine.attach(EventTracer(capacity=1 << 20))
        recorder = machine.enable_provenance()
        counter = machine.attach(CountingObserver())
        machine.run(max_instructions=entry.budget)

        assert tracer.dropped == 0
        assert {kind: count for kind, count in counter.counts.items()
                if kind in EVENT_KINDS} == tracer.kind_counts(), variant
        mstats = machine.mcu.stats
        assert recorder.total("uop_injections") == mstats.injected_uops
        assert recorder.total("capchecks") == counter.counts.get("capcheck", 0)
        if variant is not Variant.BT_ISA_EXTENSION:
            # The translated binary's checks are native capchk
            # instructions, which the MCU does not count.
            assert recorder.total("capchecks") == mstats.capchecks, variant

        plain = corpus_machine(entry, variant)
        plain.run(max_instructions=entry.budget)
        assert plain.instructions == machine.instructions
        assert architectural_state(machine) == architectural_state(plain)


def test_detaching_every_observer_resumes_superblock_replay():
    machine = Chex86Machine(assemble_main("""
    mov rax, 1
    mov rcx, 0
work:
    imul rax, 3
    add rax, 7
    add rcx, 1
    cmp rcx, 5000
    jne work
"""), variant=Variant.UCODE_PREDICTION)
    observers = [machine.attach(EventTracer()), machine.enable_provenance(),
                 machine.attach(CountingObserver())]
    machine.run_quantum(2_000)
    counters = machine.phase_counters()
    assert counters["frontend.superblock_instructions"] == 0
    assert counters["frontend.fallback_instructions"] == machine.instructions

    for observer in observers:
        assert machine.detach(observer) is observer
    assert machine.provenance is None
    machine.run_quantum(2_000)
    assert not machine.halted
    assert machine.phase_counters()["frontend.superblock_instructions"] > 0
