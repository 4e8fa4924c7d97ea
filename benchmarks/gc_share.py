#!/usr/bin/env python
"""Share of host time CPython's cyclic GC takes on a perfbench workload.

Runs one ``perfbench`` workload cold and in-process (the engine is held
to one job, so every cell runs inline where a ``gc.callbacks`` hook can
see its collections) and prints one JSON object: wall time, GC time,
their ratio, and per generation the collections, their seconds and the
objects they reclaimed.  Forked engine workers would each collect on
their own, out of the hook's sight, so this is not how
``perfbench/run.py`` times the workload; it is the in-process view of
where that time goes::

    PYTHONPATH=src python benchmarks/gc_share.py --workload fuzz --seed 1

``--garbage`` runs the workload under ``gc.DEBUG_SAVEALL`` and adds the
types found in cyclic garbage, most frequent first, flagging the types
defined under ``repro.``.  A machine and everything it owns must be
freed by reference counting alone (docs/api.md, "Machine lifetime"), so
the exit status is 1 when any ``repro.`` type shows up::

    PYTHONPATH=src python benchmarks/gc_share.py --workload fuzz --garbage
"""

from __future__ import annotations

import argparse
import collections
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


def garbage_types(garbage) -> list:
    """``[{type, count, repro}]`` over ``garbage``, most frequent first;
    ``repro`` marks types defined under the ``repro`` package."""
    counts = collections.Counter(type(obj) for obj in garbage)
    rows = []
    for kind, count in counts.most_common():
        module = kind.__module__ or ""
        rows.append({"type": f"{module}.{kind.__qualname__}",
                     "count": count,
                     "repro": module == "repro"
                     or module.startswith("repro.")})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--garbage", action="store_true",
                        help="list the types in cyclic garbage; exit 1 "
                             "if any is defined under repro.")
    args = parser.parse_args(argv)

    import workloads
    from repro.__main__ import GcTimer

    os.cpu_count = lambda: 1  # perfbench sizes its engine from this
    with tempfile.TemporaryDirectory() as scratch:
        workload = workloads.make(args.workload, args.seed, Path(scratch))
        timer = GcTimer()
        gc.collect()
        if args.garbage:
            gc.set_debug(gc.DEBUG_SAVEALL)
        gc.callbacks.append(timer)
        started = time.perf_counter()
        try:
            outcome = workload.run()
        finally:
            wall = time.perf_counter() - started
            gc.callbacks.remove(timer)
        if args.garbage:
            gc.collect()  # what is still unreclaimed at the end
            gc.set_debug(0)
            garbage = garbage_types(gc.garbage)
            gc.garbage.clear()
    report = {
        "workload": args.workload, "seed": args.seed,
        "wall_s": round(wall, 3), "gc_s": round(timer.seconds, 3),
        "gc_frac": round(timer.seconds / wall, 4),
        "collections": timer.collections,
        "gen_seconds": [round(s, 3) for s in timer.gen_seconds],
        "gen_collected": timer.collected,
        "failures": outcome.failures, "attempted": outcome.attempted,
    }
    status = 0
    if args.garbage:
        report["garbage_objects"] = sum(row["count"] for row in garbage)
        report["garbage_types"] = garbage
        offenders = [row["type"] for row in garbage if row["repro"]]
        report["repro_types_in_garbage"] = offenders
        status = 1 if offenders else 0
    print(json.dumps(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
