"""One cold iteration of one workload, in a fresh interpreter.

``run.py`` starts one of these processes per iteration, so every
iteration pays the cold costs a user pays (imports, decode, superblock
compile) and no state leaks between iterations:

    python3 perfbench/iteration.py --workload sweep-spec --seed 1 \\
        --trace 0 --scratch DIR --out result.json [--setup-only]

It writes one JSON object to ``--out``: ``setup_end`` (``time.monotonic``
when set-up finished, comparable with the parent's clock on Linux), the
timed part's ``wall_s``/``cpu_s`` (this process plus all its reaped
workers), ``peak_rss_kb`` (the largest resident set of this process or
any one worker), and the outcome.  With ``--trace 1`` it also installs
the layer probe, writes the collated Chrome trace to ``--trace-file`` and
adds the per-layer metrics and the per-span table.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def peak_rss_kb() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    probe = None
    if args.trace:
        import layers

        probe = layers.Probe()
        probe.install()
    args.scratch.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, args.scratch,
                              probe=probe)
    result = {"setup_end": time.monotonic()}
    if not args.setup_only:
        cpu_before = cpu_seconds()
        started = time.perf_counter()
        outcome = workload.run()
        result["wall_s"] = time.perf_counter() - started
        result["cpu_s"] = cpu_seconds() - cpu_before
        result["peak_rss_kb"] = peak_rss_kb()
        result["attempted"] = outcome.attempted
        result["failures"] = outcome.failures
        if probe is not None:
            document = probe.document(args.trace_file,
                                      getattr(workload, "engine", None))
            probe.uninstall()
            result["layers"] = layers.layer_metrics(document,
                                                    outcome.counters)
            result["spans"] = layers.SpanIndex(document).table()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
