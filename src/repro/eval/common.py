"""Shared experiment machinery for the per-figure/table drivers.

:func:`run_benchmark` executes one (benchmark, defense) cell and collects
every metric any figure needs into a :class:`BenchmarkRun`; the figure
drivers then slice those records into the paper's rows and series.

Defenses: the five CHEx86 variants plus ``"asan"`` (the program is
instrumented and run against the ASan runtime on the insecure pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

from ..core.machine import Chex86Machine
from ..core.variants import Variant
from ..isa.assembler import assemble
from ..pipeline.config import CoreConfig, DEFAULT_CONFIG
from ..pipeline.multicore import MulticoreMachine
from ..sanitizer import sanitize
from ..telemetry import provenance, spans
from ..workloads.base import Workload

Defense = Union[Variant, str]

#: Labels in the order Figure 6 plots its bars.
FIG6_LABELS = (
    ("insecure", Variant.INSECURE),
    ("hw-only", Variant.HW_ONLY),
    ("binary-translation", Variant.BINARY_TRANSLATION),
    ("ucode-always-on", Variant.UCODE_ALWAYS_ON),
    ("ucode-prediction", Variant.UCODE_PREDICTION),
    ("asan", "asan"),
)


def defense_label(defense: Defense) -> str:
    return defense.value if isinstance(defense, Variant) else str(defense)


@dataclass
class BenchmarkRun:
    """Every metric one (benchmark, defense) cell can be asked for."""

    benchmark: str
    suite: str
    defense: str
    threads: int
    halted: bool
    flagged: bool
    instructions: int
    cycles: int
    uops: int
    native_uops: int
    injected_uops: int
    capcache_accesses: int
    capcache_misses: int
    aliascache_accesses: int
    aliascache_misses: int
    predictor_lookups: int
    predictor_mispredicts: int
    squash_cycles: int
    alias_squash_cycles: int
    core_cycles_total: int
    dram_bytes: int
    shadow_dram_bytes: int
    rss_bytes: int
    shadow_rss_bytes: int
    frequency_ghz: float
    #: Flat per-phase cycle/uop counters summed over cores (the
    #: ``--profile`` surface; see ``Chex86Machine.phase_counters``).
    phase_counters: Dict[str, int] = field(default_factory=dict)
    #: Full telemetry-registry snapshot merged over cores (counters
    #: summed, system gauges kept once, ratio metrics recomputed) — the
    #: per-cell metrics sidecar the engine exports to
    #: ``results/metrics/<artifact>.json``.
    metrics: Dict[str, float] = field(default_factory=dict)

    # -- derived metrics ----------------------------------------------------

    @property
    def capcache_miss_rate(self) -> float:
        if not self.capcache_accesses:
            return 0.0
        return self.capcache_misses / self.capcache_accesses

    @property
    def aliascache_miss_rate(self) -> float:
        if not self.aliascache_accesses:
            return 0.0
        return self.aliascache_misses / self.aliascache_accesses

    @property
    def predictor_misprediction_rate(self) -> float:
        if not self.predictor_lookups:
            return 0.0
        return self.predictor_mispredicts / self.predictor_lookups

    @property
    def squash_fraction(self) -> float:
        # Squash cycles are summed across cores, so normalize by the sum of
        # per-core cycles (equals ``cycles`` on a single core).
        if not self.core_cycles_total:
            return 0.0
        return self.squash_cycles / self.core_cycles_total

    @property
    def bandwidth_mb_per_s(self) -> float:
        if not self.cycles or not self.frequency_ghz:
            return 0.0
        seconds = self.cycles / (self.frequency_ghz * 1e9)
        return (self.dram_bytes + self.shadow_dram_bytes) / seconds / 1e6

    @property
    def total_rss_bytes(self) -> int:
        return self.rss_bytes + self.shadow_rss_bytes

    def normalized_performance(self, baseline: "BenchmarkRun") -> float:
        """Figure 6 top: runtime of baseline / runtime of this (<= 1.0
        means slowdown relative to the insecure baseline).

        A zero denominator (a run that never advanced) yields 0.0 — the
        repo-wide convention for undefined ratios.
        """
        return baseline.cycles / self.cycles if self.cycles else 0.0

    def uop_expansion_vs(self, baseline: "BenchmarkRun") -> float:
        """Figure 6 bottom: dynamic uops normalized to the baseline's
        (0.0 when the baseline executed no uops, per the repo-wide
        zero-denominator convention)."""
        return self.uops / baseline.uops if baseline.uops else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable record: raw fields plus derived metrics."""
        from dataclasses import asdict

        record = asdict(self)
        record.update({
            "capcache_miss_rate": self.capcache_miss_rate,
            "aliascache_miss_rate": self.aliascache_miss_rate,
            "predictor_misprediction_rate": self.predictor_misprediction_rate,
            "squash_fraction": self.squash_fraction,
            "bandwidth_mb_per_s": self.bandwidth_mb_per_s,
            "total_rss_bytes": self.total_rss_bytes,
        })
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "BenchmarkRun":
        """Inverse of :meth:`to_dict` (derived metrics are recomputed,
        so ``from_dict(run.to_dict()) == run`` round-trips exactly)."""
        from dataclasses import fields

        names = {f.name for f in fields(cls)}
        missing = names - set(record)
        if missing:
            raise ValueError(
                f"BenchmarkRun record missing fields: {sorted(missing)}")
        return cls(**{k: v for k, v in record.items() if k in names})


@dataclass
class IntervalRun:
    """Replay of one checkpointed SimPoint interval (an engine cell).

    Carries the telemetry *delta* over the interval (counters
    differenced, ratios recomputed — the registry's delta algebra) plus
    the machine's final cumulative snapshot and memory footprint, which
    the sampling layer (``eval/sampling.py``) combines into an estimated
    :class:`BenchmarkRun` via ``SimPointSelection.estimate``.
    """

    workload: str
    defense: str
    interval_index: int
    instructions: int          # executed in this interval
    halted: bool               # the program finished inside the interval
    flagged: bool              # cumulative: any violation so far
    metrics_delta: Dict[str, float]
    final_metrics: Dict[str, float]
    phase_delta: Dict[str, int]
    rss_bytes: int             # footprint at interval end
    shadow_rss_bytes: int

    def to_dict(self) -> Dict[str, object]:
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "IntervalRun":
        from dataclasses import fields

        names = {f.name for f in fields(cls)}
        missing = names - set(record)
        if missing:
            raise ValueError(
                f"IntervalRun record missing fields: {sorted(missing)}")
        return cls(**{k: v for k, v in record.items() if k in names})


def run_benchmark(workload: Workload, defense: Defense,
                  config: CoreConfig = DEFAULT_CONFIG,
                  max_instructions: int = 2_000_000) -> BenchmarkRun:
    """Execute one cell and collect its metrics."""
    if defense == "asan":
        return _run_asan(workload, config, max_instructions)
    assert isinstance(defense, Variant)
    if workload.threads > 1:
        runner = MulticoreMachine(workload, variant=defense, config=config,
                                  halt_on_violation=False)
        arm_cores(runner.cores, f"{workload.name}/{defense_label(defense)}")
        result = runner.run(max_instructions_per_core=max_instructions)
        return _collect(workload, defense_label(defense), runner.cores,
                        runner.system, result, config)
    program = assemble(workload.source, name=workload.name)
    machine = Chex86Machine(program, variant=defense, config=config,
                            halt_on_violation=False)
    arm_cores([machine], f"{workload.name}/{defense_label(defense)}")
    result = machine.run(max_instructions=max_instructions)
    return _collect(workload, defense_label(defense), [machine],
                    machine.system, result, config)


def _run_asan(workload: Workload, config: CoreConfig,
              max_instructions: int) -> BenchmarkRun:
    from ..pipeline.system import System

    program = assemble(workload.source, name=workload.name)
    system = System(config)
    if workload.threads > 1:
        sanitized, runtime, _ = sanitize(program, system.allocator)
        runner = MulticoreMachine(workload, variant=Variant.INSECURE,
                                  config=config, halt_on_violation=False,
                                  host_hooks=runtime.host_hooks(),
                                  program=sanitized, system=system)
        arm_cores(runner.cores, f"{workload.name}/asan")
        result = runner.run(max_instructions_per_core=max_instructions)
        return _collect(workload, "asan", runner.cores, runner.system,
                        result, config)
    sanitized, runtime, _ = sanitize(program, system.allocator)
    machine = Chex86Machine(sanitized, variant=Variant.INSECURE,
                            config=config, system=system,
                            host_hooks=runtime.host_hooks(),
                            halt_on_violation=False)
    arm_cores([machine], f"{workload.name}/asan")
    result = machine.run(max_instructions=max_instructions)
    return _collect(workload, "asan", [machine], system, result, config)


def arm_cores(cores: List[Chex86Machine], label: str) -> None:
    """Arm every core for a traced / provenance sweep (no-ops unless one
    is active), labelling multicore ones ``<label> core<i>``."""
    for index, core in enumerate(cores):
        name = label if len(cores) == 1 else f"{label} core{index}"
        spans.attach_machine_tracer(core, name)
        provenance.attach_machine_recorder(core, name)


def _collect(workload: Workload, label: str, cores: List[Chex86Machine],
             system, result, config: CoreConfig) -> BenchmarkRun:
    for core in cores:
        core.timing.finish()
    timing = [core.timing.stats for core in cores]
    phase: Dict[str, int] = {}
    for core in cores:
        for counter, value in core.phase_counters().items():
            phase[counter] = phase.get(counter, 0) + value
    # Merge the per-core registry snapshots under the first core's merge
    # spec (every core wires the same metric tree).
    metrics = cores[0].telemetry.merge(
        [core.telemetry.snapshot() for core in cores])
    return BenchmarkRun(
        benchmark=workload.name,
        suite=workload.suite,
        defense=label,
        threads=workload.threads,
        halted=result.halted,
        flagged=result.flagged,
        instructions=result.instructions,
        cycles=result.cycles,
        uops=result.uops,
        native_uops=result.native_uops,
        injected_uops=sum(c.mcu.stats.injected_uops for c in cores),
        capcache_accesses=sum(c.capcache.stats.accesses for c in cores),
        capcache_misses=sum(c.capcache.stats.misses for c in cores),
        aliascache_accesses=sum(c.alias_cache.stats.accesses for c in cores),
        aliascache_misses=sum(c.alias_cache.stats.misses for c in cores),
        predictor_lookups=sum(c.reload_predictor.stats.lookups
                              for c in cores),
        predictor_mispredicts=sum(c.reload_predictor.stats.mispredictions
                                  for c in cores),
        squash_cycles=sum(t.squash_cycles for t in timing),
        alias_squash_cycles=sum(t.alias_squash_cycles for t in timing),
        core_cycles_total=sum(t.cycles for t in timing),
        dram_bytes=sum(t.dram_bytes for t in timing),
        shadow_dram_bytes=sum(t.shadow_dram_bytes for t in timing),
        rss_bytes=system.memory.resident_bytes,
        shadow_rss_bytes=system.shadow_bytes,
        frequency_ghz=config.frequency_ghz,
        phase_counters=phase,
        metrics=metrics,
    )
