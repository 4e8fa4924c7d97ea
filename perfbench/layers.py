"""Traced runs: spans at every layer boundary, and the per-layer metrics.

The program is instrumented from outside.  :meth:`Probe.install` wraps
the public entry point of each layer (module functions wherever they
were imported by name, and class methods) so that every call records a
span: name, start, end, parent span, and the id of the cell, exploit
case or fuzz seed it belongs to.  Spans go into the program's own
:class:`~repro.telemetry.spans.SpanTracer`.  Forked engine workers
inherit the wrappers, record into the tracer the engine installs for a
traced sweep (``TraceOptions``), and ship their spans home over the
result pipe.  Nothing is written until the run ends, when the collated
Chrome trace is saved and :func:`layer_metrics` reduces it.

Inside ``simulate`` a ``SIGPROF`` sampler (one sample per millisecond of
CPU time) attributes self time to source files, grouped by module.  The
generated superblock replay code has ``<superblock ...>`` file names and
is its own group.  Samples land on the innermost Python frame, so time
in builtins counts toward the Python function that called them.
"""

from __future__ import annotations

import builtins
import functools
import itertools
import os
import signal
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: CPU seconds between two samples of the simulate-time profiler.
SAMPLE_INTERVAL = 0.001

#: Span category of every span the probe records.
CATEGORY = "perfbench"

#: ``sim.<group>_frac``: source-file suffixes of each simulate group.
SIM_GROUPS = {
    "timing": ("repro/pipeline/timing.py",),
    "alias": ("repro/core/alias.py",),
    "branch": ("repro/pipeline/branch.py",),
    "tracker": ("repro/core/tracker.py",),
    "predictor": ("repro/core/predictor.py",),
    "mcu": ("repro/core/mcu.py",),
    "memory": ("repro/memory/cache.py", "repro/memory/tlb.py"),
    "machine": ("repro/core/machine.py",),
    "sbcompile": ("repro/core/sbcompile.py",),
}

#: Phase counters summed over every machine a whole ``run()`` drove.
FRONTEND_COUNTERS = (
    "frontend.blocks_compiled", "frontend.superblock_instructions",
    "frontend.superblock_bailouts", "frontend.fallback_instructions",
    "commit.instructions",
)

#: Every per-layer metric: (name, unit, better).  A layer a workload does
#: not exercise reports 0.
PER_LAYER = [
    ("engine.run_cells_s", "s", "lower"),
    ("engine.cell_p50_ms", "ms", "lower"),
    ("engine.cell_tail_ms", "ms", "lower"),
    ("engine.dispatch_wait_ms", "ms", "lower"),
    ("engine.encode_ms", "ms", "lower"),
    ("engine.cache_write_ms", "ms", "lower"),
    ("engine.worker_busy_frac", "ratio", "higher"),
    ("engine.cells_retried", "count", "lower"),
    ("workloads.build_s", "s", "lower"),
    ("isa.assemble_s", "s", "lower"),
    ("sanitizer.sanitize_s", "s", "lower"),
    ("core.machine_init_s", "s", "lower"),
    ("exploits.case_p50_ms", "ms", "lower"),
    ("exploits.case_tail_ms", "ms", "lower"),
    ("sbcompile.compile_s", "s", "lower"),
    ("sbcompile.compiles", "count", "lower"),
    ("sbcompile.code_cache_hit_frac", "ratio", "higher"),
    ("frontend.blocks_compiled", "count", "lower"),
    ("simulate_s", "s", "lower"),
    ("collect_s", "s", "lower"),
    ("sim.mips", "MIPS", "higher"),
    ("frontend.superblock_coverage", "ratio", "higher"),
    ("frontend.bailouts_per_kinstr", "1/kinstr", "lower"),
    ("frontend.fallback_instructions", "count", "lower"),
    ("sim.generated_frac", "ratio", "lower"),
    *[(f"sim.{group}_frac", "ratio", "lower") for group in SIM_GROUPS],
    ("sim.other_frac", "ratio", "lower"),
    ("eval.table1_s", "s", "lower"),
    ("eval.fig3_s", "s", "lower"),
    ("eval.security_s", "s", "lower"),
    ("fuzz.generate_s", "s", "lower"),
    ("fuzz.oracle.differential_s", "s", "lower"),
    ("fuzz.oracle.transparency_s", "s", "lower"),
    ("fuzz.oracle.snapshot_s", "s", "lower"),
    ("fuzz.oracle.conservation_s", "s", "lower"),
    ("core.snapshot_s", "s", "lower"),
    ("fuzz.corpus_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

_MISSING = object()


def sim_group(filename: str) -> str:
    if filename.startswith("<superblock"):
        return "generated"
    path = filename.replace(os.sep, "/")
    for group, suffixes in SIM_GROUPS.items():
        if path.endswith(suffixes):
            return group
    return "other"


def tail(values: List[float]) -> float:
    """The highest order statistic with at least ten samples above it
    (the maximum when there are fewer than eleven samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


class Probe:
    """Span-recording wrappers around each layer's public entry points."""

    def __init__(self) -> None:
        self._stack: List[tuple] = []       # (span id, cell id) per open span
        self._ids = itertools.count()
        self._patches: List[tuple] = []     # (owner, attribute, original)
        self._sim_depth = 0
        self._samples: Counter = Counter()
        self._groups: Dict[str, str] = {}
        self._old_handler = None
        self._spans_mod = None
        self.tracer = None

    # -- spans -----------------------------------------------------------

    def _begin(self, name: str, cell: str = ""):
        tracer = self._spans_mod.current()
        if tracer is None:
            return None
        parent, parent_cell = self._stack[-1] if self._stack else ("", "")
        sid = f"{os.getpid()}.{next(self._ids)}"
        cell = cell or parent_cell
        handle = tracer.begin(name, CATEGORY, sid=sid, parent=parent,
                              cell=cell)
        self._stack.append((sid, cell))
        return tracer, handle

    def _end(self, token, **args) -> None:
        if token is None:
            return
        tracer, handle = token
        self._stack.pop()
        tracer.end(handle, **args)

    @contextmanager
    def span(self, name: str, cell: str = ""):
        token = self._begin(name, cell)
        try:
            yield
        finally:
            self._end(token)

    def _wrap(self, name: str, func: Callable,
              cell_of: Optional[Callable] = None,
              describe: Optional[Callable] = None) -> Callable:
        probe = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            token = probe._begin(name,
                                 cell_of(*args, **kwargs) if cell_of else "")
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                probe._end(token, **(describe(result) if describe else {}))
        return wrapper

    def _simulate(self, func: Callable, multicore: bool,
                  whole_run: bool) -> Callable:
        """Outermost ``run``/``run_quantum`` calls: a ``simulate`` span
        carrying retired instructions, profiler samples and, for whole
        runs, the machines' frontend phase counters."""
        probe = self

        @functools.wraps(func)
        def wrapper(machine, *args, **kwargs):
            if probe._sim_depth:
                return func(machine, *args, **kwargs)
            cores = machine.cores if multicore else (machine,)
            before = sum(core.instructions for core in cores)
            token = probe._begin("simulate")
            probe._samples.clear()
            probe._sim_depth += 1
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL,
                             SAMPLE_INTERVAL)
            finished = False
            try:
                result = func(machine, *args, **kwargs)
                finished = True
                return result
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0, 0)
                probe._sim_depth -= 1
                extra = {"instructions":
                         sum(core.instructions for core in cores) - before,
                         "samples": dict(probe._samples)}
                if whole_run and finished:
                    counters: Counter = Counter()
                    for core in cores:
                        phase = core.phase_counters()
                        counters.update({key: phase[key]
                                         for key in FRONTEND_COUNTERS})
                    extra["counters"] = dict(counters)
                probe._end(token, **extra)
        return wrapper

    def _on_sample(self, signum, frame) -> None:
        if frame is None or not self._sim_depth:
            return
        # A wrapper of this module is not the layer: charge its caller
        # (builtins.compile, wrapped for counting, belongs to sbcompile).
        while frame.f_back is not None \
                and frame.f_code.co_filename == __file__:
            frame = frame.f_back
        filename = frame.f_code.co_filename
        group = self._groups.get(filename)
        if group is None:
            group = self._groups[filename] = sim_group(filename)
        self._samples[group] += 1

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute,
                              vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        """Replace ``original`` in every ``repro`` module that holds it."""
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".")[0] != "repro":
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, wrapper)

    def install(self) -> None:
        import repro.eval.runner  # noqa: F401 - every driver, imported
        from repro import workloads
        from repro.analysis import allocprofile
        from repro.core import sbcompile
        from repro.core.machine import Chex86Machine
        from repro.eval import common, engine
        from repro.exploits import harness
        from repro.fuzz import campaign, cell, generator, oracles  # noqa
        from repro.fuzz.corpus import Corpus
        from repro.isa import assembler
        from repro.pipeline.multicore import MulticoreMachine
        from repro import sanitizer
        from repro.telemetry import spans as spans_mod

        self._spans_mod = spans_mod
        for original, name in (
                (workloads.build, "workloads.build"),
                (assembler.assemble, "isa.assemble"),
                (sanitizer.sanitize, "sanitizer.sanitize"),
                (common.run_benchmark, "eval.run_benchmark"),
                (engine.encode_result, "engine.encode"),
                (engine.decode_result, "engine.decode"),
                (generator.generate, "fuzz.generate"),
                (allocprofile.profile_workload, "analysis.allocprofile")):
            self._patch_everywhere(original, self._wrap(name, original))
        self._patch_everywhere(engine.compute_cell, self._wrap(
            "worker.compute", engine.compute_cell,
            cell_of=lambda spec: spec.label))
        self._patch_everywhere(harness.run_case, self._wrap(
            "exploits.case", harness.run_case,
            cell_of=lambda name, source, defense, *rest, **kw:
                f"{name}/{harness.defense_name(defense)}"))
        self._patch_everywhere(sbcompile.compile_replay, self._wrap(
            "sbcompile.compile", sbcompile.compile_replay,
            describe=lambda code: {"compiled": code is not None}))
        # Shadow the builtin inside sbcompile only: each call is a miss of
        # its source -> code-object cache.
        self._patch(sbcompile, "compile",
                    self._wrap("sbcompile.builtin_compile", builtins.compile))
        for cls, name in ((Chex86Machine, "core.machine_init"),
                          (MulticoreMachine, "core.machine_init"),
                          (Corpus, "fuzz.corpus")):
            self._patch(cls, "__init__", self._wrap(name, cls.__init__))
        self._patch(Corpus, "consider",
                    self._wrap("fuzz.corpus", Corpus.consider))
        self._patch(Chex86Machine, "snapshot",
                    self._wrap("core.snapshot", Chex86Machine.snapshot))
        restore = vars(Chex86Machine)["restore"].__func__
        self._patch(Chex86Machine, "restore",
                    classmethod(self._wrap("core.snapshot", restore)))
        self._patch(Chex86Machine, "run", self._simulate(
            Chex86Machine.run, multicore=False, whole_run=True))
        self._patch(Chex86Machine, "run_quantum", self._simulate(
            Chex86Machine.run_quantum, multicore=False, whole_run=False))
        self._patch(MulticoreMachine, "run", self._simulate(
            MulticoreMachine.run, multicore=True, whole_run=True))
        self._patch(engine.EvalEngine, "run_cells", self._wrap(
            "engine.run_cells", engine.EvalEngine.run_cells))
        self._patch(oracles, "ORACLES", tuple(
            (name, self._wrap(f"fuzz.oracle.{name}", oracle))
            for name, oracle in oracles.ORACLES))
        self._old_handler = signal.signal(signal.SIGPROF, self._on_sample)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches = []
        if self._old_handler is not None:
            signal.signal(signal.SIGPROF, self._old_handler)
            self._old_handler = None

    # -- collection ------------------------------------------------------

    @staticmethod
    def trace_options(scratch: Path):
        from repro.telemetry.spans import TraceOptions

        # machine_capacity=0: no machine event rings, which would force
        # exact stepping and change the path being measured.
        return TraceOptions(capacity=1 << 20, machine_capacity=0,
                            spill_path=str(scratch / "spans.jsonl"))

    def attach(self, engine=None) -> None:
        """Make spans record: into a traced engine's own tracer (so its
        batch spans and the workers' shipments collate together), or
        into a fresh tracer for work that runs without an engine."""
        from repro.telemetry import spans as spans_mod
        from repro.telemetry.spans import SpanTracer

        self.tracer = engine.spans if engine is not None \
            else SpanTracer(capacity=1 << 20, process_label="perfbench")
        spans_mod.install(self.tracer, 0)

    def document(self, path: Path, engine=None) -> Dict[str, object]:
        """Collate every span of the run and write the Chrome trace."""
        from repro.telemetry import spans as spans_mod
        from repro.telemetry.collate import collate, write_chrome

        if engine is not None:
            document = engine.write_trace(path, label="perfbench")
        else:
            document = collate([self.tracer.shipment()],
                               sweep_label="perfbench")
            write_chrome(path, document)
        spans_mod.uninstall()
        return document


# -- reduction ----------------------------------------------------------------


class SpanIndex:
    """The probe's spans of one run with their parent links."""

    def __init__(self, document: Dict[str, object]) -> None:
        events = [event for event in document["traceEvents"]
                  if event.get("ph") == "X"]
        self.engine = [event for event in events
                       if event.get("cat") != CATEGORY]
        self.spans = [event for event in events
                      if event.get("cat") == CATEGORY]
        self.by_sid = {span["args"]["sid"]: span for span in self.spans}
        self.child_us: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            parent = self.by_sid.get(span["args"]["parent"])
            if parent is not None and parent["pid"] == span["pid"]:
                self.child_us[parent["args"]["sid"]] += span["dur"]

    def named(self, name: str) -> List[dict]:
        return [span for span in self.spans if span["name"] == name]

    def _nested_in_same(self, span: dict) -> bool:
        parent = self.by_sid.get(span["args"]["parent"])
        while parent is not None:
            if parent["name"] == span["name"]:
                return True
            parent = self.by_sid.get(parent["args"]["parent"])
        return False

    def total_s(self, name: str) -> float:
        """Inclusive time of the outermost spans called ``name``."""
        return sum(span["dur"] for span in self.named(name)
                   if not self._nested_in_same(span)) / 1e6

    def self_s(self, name: str) -> float:
        return sum(span["dur"] - self.child_us[span["args"]["sid"]]
                   for span in self.named(name)) / 1e6

    def table(self) -> List[Dict[str, object]]:
        """Per span name: count, inclusive seconds and self seconds."""
        names = sorted({span["name"] for span in self.spans})
        return [{"span": name, "count": len(self.named(name)),
                 "total_s": round(self.total_s(name), 6),
                 "self_s": round(self.self_s(name), 6)} for name in names]


def layer_metrics(document: Dict[str, object],
                  counters: Dict[str, float]) -> Dict[str, float]:
    """Reduce one traced run to every metric in :data:`PER_LAYER`
    (except the tracing overhead, which needs the untraced run)."""
    index = SpanIndex(document)
    out: Dict[str, float] = {}

    run_cells_s = index.total_s("engine.run_cells")
    cells = [event for event in index.engine if event["name"] == "engine.cell"]
    compute_us = {span["args"]["cell"]: span["dur"]
                  for span in index.named("worker.compute")}
    waits = [cell["dur"] - compute_us[cell["args"]["cell"]]
             for cell in cells if cell["args"].get("cell") in compute_us]
    jobs = counters.get("jobs", 1)
    out["engine.run_cells_s"] = run_cells_s
    out["engine.cell_p50_ms"] = statistics.median(
        [cell["dur"] / 1e3 for cell in cells]) if cells else 0.0
    out["engine.cell_tail_ms"] = tail([cell["dur"] / 1e3 for cell in cells])
    out["engine.dispatch_wait_ms"] = statistics.median(waits) / 1e3 \
        if waits else 0.0
    out["engine.encode_ms"] = 1e3 * (index.total_s("engine.encode")
                                     + index.total_s("engine.decode"))
    out["engine.cache_write_ms"] = sum(
        event["dur"] for event in index.engine
        if event["name"] == "engine.cache.write") / 1e3
    out["engine.worker_busy_frac"] = (
        sum(compute_us.values()) / 1e6 / (jobs * run_cells_s)
        if run_cells_s else 0.0)
    out["engine.cells_retried"] = counters.get("cells_retried", 0)

    for metric, name in (("workloads.build_s", "workloads.build"),
                         ("isa.assemble_s", "isa.assemble"),
                         ("sanitizer.sanitize_s", "sanitizer.sanitize"),
                         ("core.machine_init_s", "core.machine_init")):
        out[metric] = index.total_s(name)
    cases = [span["dur"] / 1e3 for span in index.named("exploits.case")]
    out["exploits.case_p50_ms"] = statistics.median(cases) if cases else 0.0
    out["exploits.case_tail_ms"] = tail(cases)

    compiles = index.named("sbcompile.compile")
    compiled = sum(1 for span in compiles if span["args"].get("compiled"))
    misses = len(index.named("sbcompile.builtin_compile"))
    out["sbcompile.compile_s"] = index.total_s("sbcompile.compile")
    out["sbcompile.compiles"] = len(compiles)
    out["sbcompile.code_cache_hit_frac"] = \
        (compiled - misses) / compiled if compiled else 0.0

    simulate = index.named("simulate")
    frontend: Counter = Counter()
    samples: Counter = Counter()
    for span in simulate:
        frontend.update(span["args"].get("counters", {}))
        samples.update(span["args"].get("samples", {}))
    instructions = sum(span["args"].get("instructions", 0)
                       for span in simulate)
    simulate_s = index.total_s("simulate")
    committed = frontend["commit.instructions"]
    out["frontend.blocks_compiled"] = frontend["frontend.blocks_compiled"]
    out["simulate_s"] = simulate_s
    out["collect_s"] = index.self_s("eval.run_benchmark")
    out["sim.mips"] = instructions / simulate_s / 1e6 if simulate_s else 0.0
    out["frontend.superblock_coverage"] = \
        frontend["frontend.superblock_instructions"] / committed \
        if committed else 0.0
    out["frontend.bailouts_per_kinstr"] = \
        1e3 * frontend["frontend.superblock_bailouts"] / committed \
        if committed else 0.0
    out["frontend.fallback_instructions"] = \
        frontend["frontend.fallback_instructions"]
    sampled = sum(samples.values())
    for group in ("generated", *SIM_GROUPS, "other"):
        out[f"sim.{group}_frac"] = samples[group] / sampled if sampled else 0.0

    for metric, name in (("eval.table1_s", "eval.table1"),
                         ("eval.fig3_s", "eval.fig3"),
                         ("eval.security_s", "eval.security"),
                         ("fuzz.generate_s", "fuzz.generate"),
                         ("fuzz.oracle.differential_s",
                          "fuzz.oracle.differential"),
                         ("fuzz.oracle.transparency_s",
                          "fuzz.oracle.transparency"),
                         ("fuzz.oracle.snapshot_s", "fuzz.oracle.snapshot"),
                         ("fuzz.oracle.conservation_s",
                          "fuzz.oracle.conservation"),
                         ("core.snapshot_s", "core.snapshot"),
                         ("fuzz.corpus_s", "fuzz.corpus")):
        out[metric] = index.total_s(name)
    return out
