"""The benchmark's four workloads: set-up, the timed part, output checks.

Each workload is a class.  Its constructor is the set-up (imports of the
program, inputs generated from the seed, spec enumeration, engine
construction); :meth:`run` is the timed part and returns an
:class:`Outcome` that counts attempted and failed operations.  An
operation is one engine cell, one exploit case under one defense, one
fuzz seed, or one artifact driver.  It fails if it raises, if a fuzz seed
has an oracle failure, or if its output differs from the expectation
recorded in ``expected.json``.

The workloads call only public entry points of the program:
``EvalEngine.run_cells``, ``fig6.cell_specs``, ``table1.run``,
``fig3.run``, ``run_case``, ``SecurityResult``, ``run_campaign``.  They never touch the
repository's ``results/`` tree, its cell cache or its fuzz corpus: every
engine gets a fresh cache directory and every campaign a fresh corpus
under the run's scratch directory.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: The serial tail runs every 10th RIPE case (85 of 850), starting at
#: ``seed % 10``: the stride ``security.run(ripe_limit=85)`` samples with,
#: so every seed covers each attack dimension evenly.
RIPE_STRIDE = 10

#: Seeds in one fuzz campaign (ROADMAP's fixed campaign size).
FUZZ_SEEDS = 64

#: Recorded fuzz windows: seed ``s`` runs seeds ``(s % 16) * 64 ..+63``.
FUZZ_WINDOWS = 16

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, object]:
    return json.loads(path.read_text())


def text_digest(text: str) -> str:
    """Digest of an artifact as ``reproduce`` writes it (text + newline)."""
    return hashlib.sha256((text + "\n").encode()).hexdigest()


def fuzz_window(seed: int) -> int:
    return seed % FUZZ_WINDOWS


@dataclass
class Outcome:
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Counters the program reports about itself (EngineStats etc.).
    counters: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class _Sweep:
    """Fig 6 cells through ``EvalEngine(jobs=nproc).run_cells``, cold.

    Closed loop: one caller submits the whole batch and waits for it.
    The grid is fixed by the paper's figure, so the seed changes nothing.
    """

    suite = ""

    def __init__(self, seed: int, scratch: Path, expected: Dict[str, object],
                 probe=None) -> None:
        from repro.eval import fig6
        from repro.eval.engine import CellFailure, EvalEngine
        from repro.workloads import BENCHMARK_ORDER, PARSEC_NAMES, SPEC_NAMES

        names = SPEC_NAMES if self.suite == "SPEC" else PARSEC_NAMES
        self.specs = fig6.cell_specs(
            benchmarks=[name for name in BENCHMARK_ORDER if name in names])
        self.expected = expected["cells"]
        self.engine = EvalEngine(
            jobs=os.cpu_count(), cache_dir=str(scratch / "cellcache"),
            trace=probe.trace_options(scratch) if probe else None)
        self.probe = probe
        self.CellFailure = CellFailure

    def run(self) -> Outcome:
        outcome = Outcome()
        if self.probe:
            self.probe.attach(self.engine)
        try:
            self.engine.run_cells(self.specs, artifact="perfbench")
        except self.CellFailure as error:
            for spec, reason in error.failures:
                outcome.check(False, f"cell {spec.label} raised: {reason}")
        results = self.engine.memoized()
        for spec in self.specs:
            run = results.get(spec)
            if run is None:
                continue
            want = self.expected.get(spec.label)
            got = {"instructions": run.instructions, "cycles": run.cycles,
                   "uops": run.uops, "injected_uops": run.injected_uops,
                   "flagged": run.flagged}
            outcome.check(got == want, f"cell {spec.label}: {got} != {want}")
        stats = self.engine.stats
        outcome.counters = {"cells_retried": stats.retried,
                            "jobs": self.engine.jobs}
        return outcome


class SweepSpec(_Sweep):
    suite = "SPEC"


class SweepParsec(_Sweep):
    suite = "PARSEC"


class SerialTail:
    """``table1``, ``fig3`` and the security suites, serially in process,
    as ``reproduce`` runs them.  The seed picks the RIPE subsample."""

    def __init__(self, seed: int, scratch: Path, expected: Dict[str, object],
                 probe=None) -> None:
        from repro.core.variants import Variant
        from repro.eval import fig3, security, table1
        from repro.exploits import asan_suite, how2heap, harness, ripe

        ripe_cases = ripe.generate_suite()
        self.suites = {
            "RIPE": ripe_cases[seed % RIPE_STRIDE::RIPE_STRIDE],
            "ASan suite": asan_suite.generate_suite(),
            "How2Heap": how2heap.generate_suite(),
        }
        self.defenses = {"chex86": Variant.UCODE_PREDICTION,
                         "insecure": "none"}
        self.table1, self.fig3, self.security = table1, fig3, security
        self.harness = harness
        self.expected = expected
        self.probe = probe

    def _span(self, name: str):
        return self.probe.span(name) if self.probe else nullcontext()

    def _artifact(self, outcome: Outcome, name: str, driver) -> None:
        with self._span(f"eval.{name}"):
            try:
                text = driver.run().format_text()
            except Exception as error:  # noqa: BLE001 - a failed operation
                outcome.check(False, f"{name} raised {error!r}")
                return
        outcome.check(text_digest(text) == self.expected["texts"][name],
                      f"{name} text differs from results/{name}.txt")

    def run(self) -> Outcome:
        outcome = Outcome()
        if self.probe:
            self.probe.attach()
        self._artifact(outcome, "table1", self.table1)
        self._artifact(outcome, "fig3", self.fig3)
        recorded = self.expected["exploits"]
        results = {role: {} for role in self.defenses}
        hijacks_expected = 0
        with self._span("eval.security"):
            for role, defense in self.defenses.items():
                for name, cases in self.suites.items():
                    suite = self.harness.SuiteResult(
                        suite=name, defense=self.harness.defense_name(defense))
                    results[role][name] = suite
                    for case in cases:
                        want = recorded[name][case.name][role]
                        hijacks_expected += want[1] if role == "insecure" \
                            else 0
                        try:
                            got = self.harness.run_case(case.name,
                                                        case.build(), defense)
                        except Exception as error:  # noqa: BLE001
                            outcome.check(False, f"{name} {case.name} "
                                                 f"({role}) raised {error!r}")
                            continue
                        suite.outcomes.append(got)
                        observed = [got.detected, got.hijacked]
                        outcome.check(observed == want,
                                      f"{name} {case.name} ({role}): "
                                      f"{observed} != {want}")
        headline = self.security.SecurityResult(chex86=results["chex86"],
                                                insecure=results["insecure"])
        hijacks = sum(s.hijacked for s in headline.insecure.values())
        outcome.check(headline.all_flagged()
                      and headline.no_hijack_under_chex86()
                      and hijacks == hijacks_expected,
                      f"security headline: flagged={headline.all_flagged()} "
                      f"hijack-free={headline.no_hijack_under_chex86()} "
                      f"insecure hijacks {hijacks} != {hijacks_expected}")
        return outcome


class Fuzz:
    """A 64-seed ``run_campaign`` through ``EvalEngine(jobs=nproc)`` with
    a fresh corpus and no cell cache.  The seed picks one of 16 recorded
    seed windows."""

    def __init__(self, seed: int, scratch: Path, expected: Dict[str, object],
                 probe=None) -> None:
        from repro.eval.engine import EvalEngine
        from repro.fuzz.campaign import FuzzOptions, run_campaign

        window = fuzz_window(seed)
        self.options = FuzzOptions(seeds=FUZZ_SEEDS,
                                   seed_base=window * FUZZ_SEEDS,
                                   corpus_dir=str(scratch / "corpus"),
                                   shrink=False)
        self.expected = expected["fuzz"][str(window)]
        self.engine = EvalEngine(
            jobs=os.cpu_count(), use_cache=False,
            trace=probe.trace_options(scratch) if probe else None)
        self.run_campaign = run_campaign
        self.probe = probe

    def run(self) -> Outcome:
        outcome = Outcome()
        if self.probe:
            self.probe.attach(self.engine)
        try:
            report = self.run_campaign(self.engine, self.options)
        except Exception as error:  # noqa: BLE001 - every seed failed
            for _ in range(FUZZ_SEEDS + 1):
                outcome.check(False, f"fuzz campaign raised {error!r}")
            return outcome
        wanted = self.expected["instructions"]
        for index, result in enumerate(report.results):
            outcome.check(result.ok and result.instructions == wanted[index],
                          f"fuzz seed {result.seed}: failures "
                          f"{[oracle for oracle, _ in result.failures]}, "
                          f"{result.instructions} instructions "
                          f"(recorded {wanted[index]})")
        outcome.check(report.coverage_size == self.expected["coverage_size"],
                      f"fuzz coverage_size {report.coverage_size} != "
                      f"{self.expected['coverage_size']}")
        stats = self.engine.stats
        outcome.counters = {"cells_retried": stats.retried,
                            "jobs": self.engine.jobs}
        return outcome


WORKLOADS = {
    "sweep-spec": SweepSpec,
    "sweep-parsec": SweepParsec,
    "serial-tail": SerialTail,
    "fuzz": Fuzz,
}


def make(name: str, seed: int, scratch: Path,
         expected: Optional[Dict[str, object]] = None, probe=None):
    """Set up workload ``name`` (this is the part ``setup_s`` times)."""
    return WORKLOADS[name](seed, scratch,
                           expected if expected is not None
                           else load_expected(), probe)
