#!/usr/bin/env python
"""Share of host time CPython's cyclic GC takes on a perfbench workload.

Runs one ``perfbench`` workload cold and in-process (the engine is held
to one job, so every cell runs inline where a ``gc.callbacks`` hook can
see its collections) and prints one JSON object: wall time, GC time,
their ratio and the collections per generation.  Forked engine workers
would each collect on their own, out of the hook's sight, so this is
not how ``perfbench/run.py`` times the workload; it is the in-process
view of where that time goes::

    PYTHONPATH=src python benchmarks/gc_share.py --workload fuzz --seed 1
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    import workloads
    from repro.__main__ import GcTimer

    os.cpu_count = lambda: 1  # perfbench sizes its engine from this
    with tempfile.TemporaryDirectory() as scratch:
        workload = workloads.make(args.workload, args.seed, Path(scratch))
        timer = GcTimer()
        gc.callbacks.append(timer)
        started = time.perf_counter()
        try:
            outcome = workload.run()
        finally:
            wall = time.perf_counter() - started
            gc.callbacks.remove(timer)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "wall_s": round(wall, 3), "gc_s": round(timer.seconds, 3),
        "gc_frac": round(timer.seconds / wall, 4),
        "collections": timer.collections,
        "failures": outcome.failures, "attempted": outcome.attempted,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
