"""Record the outputs the benchmark checks against (``expected.json``).

Run from the repository root when a change is meant to alter simulated
results (a speed-only change must not need this):

    python3 perfbench/record.py

It simulates every Figure 6 cell, every exploit case under CHEx86 and on
the insecure baseline, and the 16 fuzz seed windows, and stores the
digests of ``results/table1.txt`` and ``results/fig3.txt`` after checking
that ``table1.run()`` and ``fig3.run()`` reproduce them byte for byte.
Scratch state goes to a temporary directory under ``.perfbench-tmp/``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import (EXPECTED_PATH, FUZZ_SEEDS, FUZZ_WINDOWS,  # noqa: E402
                       text_digest)


def record_cells(scratch: Path) -> dict:
    from repro.eval import fig6
    from repro.eval.engine import EvalEngine

    specs = fig6.cell_specs()
    engine = EvalEngine(jobs=os.cpu_count(), cache_dir=str(scratch / "cells"))
    results = engine.run_cells(specs, artifact="perfbench-record")
    return {spec.label: {"instructions": run.instructions,
                         "cycles": run.cycles, "uops": run.uops,
                         "injected_uops": run.injected_uops,
                         "flagged": run.flagged}
            for spec, run in results.items()}


def record_texts() -> dict:
    from repro.eval import fig3, table1

    digests = {}
    for name, driver in (("table1", table1), ("fig3", fig3)):
        committed = (ROOT / "results" / f"{name}.txt").read_text()
        text = driver.run().format_text()
        if text + "\n" != committed:
            raise SystemExit(f"{name}.run() no longer reproduces "
                             f"results/{name}.txt; fix that first")
        digests[name] = text_digest(text)
    return digests


def record_exploits() -> dict:
    from repro.core.variants import Variant
    from repro.exploits import asan_suite, how2heap, ripe
    from repro.exploits.harness import run_case

    suites = {"RIPE": ripe.generate_suite(),
              "ASan suite": asan_suite.generate_suite(),
              "How2Heap": how2heap.generate_suite()}
    recorded: dict = {}
    for name, cases in suites.items():
        recorded[name] = {}
        for case in cases:
            source = case.build()
            entry = {}
            for role, defense in (("chex86", Variant.UCODE_PREDICTION),
                                  ("insecure", "none")):
                outcome = run_case(case.name, source, defense)
                entry[role] = [outcome.detected, outcome.hijacked]
            if entry["chex86"] != [True, False]:
                raise SystemExit(f"{name} {case.name}: CHEx86 outcome "
                                 f"{entry['chex86']} (expected flagged, "
                                 f"no hijack)")
            recorded[name][case.name] = entry
    return recorded


def record_fuzz(scratch: Path) -> dict:
    from repro.eval.engine import EvalEngine
    from repro.fuzz.campaign import FuzzOptions, run_campaign

    windows = {}
    for window in range(FUZZ_WINDOWS):
        engine = EvalEngine(jobs=os.cpu_count(), use_cache=False)
        report = run_campaign(engine, FuzzOptions(
            seeds=FUZZ_SEEDS, seed_base=window * FUZZ_SEEDS,
            corpus_dir=str(scratch / f"corpus{window}"), shrink=False))
        if not report.ok:
            raise SystemExit(f"fuzz window {window}: oracle failures "
                             f"{report.failures}")
        windows[str(window)] = {
            "coverage_size": report.coverage_size,
            "instructions": [result.instructions
                             for result in report.results],
        }
        print(f"fuzz window {window}: coverage {report.coverage_size}",
              file=sys.stderr)
    return windows


def main() -> int:
    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        expected = {
            "schema": 1,
            "cells": record_cells(scratch),
            "texts": record_texts(),
            "exploits": record_exploits(),
            "fuzz": record_fuzz(scratch),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True)
                             + "\n")
    print(f"wrote {EXPECTED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
