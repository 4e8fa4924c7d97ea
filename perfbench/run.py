"""The repository benchmark: cold Fig 6 sweeps, the serial tail of
``reproduce``, and a fixed fuzz campaign.  See ``perfbench/README.md``.

    python3 perfbench/run.py --workload sweep-spec --seed 1 --seconds 25 \\
        --trace 0

Run it from the repository root.  Each iteration is a fresh interpreter
(``iteration.py``) with a fresh cell cache and corpus, so every iteration
is cold.  With ``--trace 0`` it runs iterations back to back while they
fit in ``--seconds`` (always at least one), plus set-up-only runs until
there are ``SETUP_SAMPLES`` set-up times, and reports the medians of the
end-to-end metrics.  With ``--trace 1`` it runs one untraced and one
traced iteration and reports the per-layer metrics of the traced one,
with the tracing overhead as the difference of the two wall times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
outputs differ from ``expected.json`` prints ``"correct": false`` and
exits 1; a run that cannot run at all prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH_ROOT = ROOT / ".perfbench-tmp"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("sweep-spec", "sweep-parsec", "serial-tail", "fuzz")

#: End-to-end metrics: name -> unit.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

#: Set-up times per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Seconds one iteration process may take before it is killed.
ITERATION_TIMEOUT = 150


class BenchmarkError(RuntimeError):
    pass


def host_facts() -> dict:
    """What keeps numbers from different hosts apart."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "start_method": multiprocessing.get_start_method(),
            "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def run_iteration(workload: str, seed: int, trace: int, scratch: Path,
                  setup_only: bool = False) -> dict:
    """One iteration in a fresh process; returns its result record with
    ``setup_s`` measured from just before the process was started."""
    work = Path(tempfile.mkdtemp(dir=scratch))
    out = work / "result.json"
    command = [sys.executable, str(HERE / "iteration.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--scratch", str(work / "state"),
               "--out", str(out)]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        command += ["--trace-file",
                    str(OUT_DIR / f"trace-{workload}-{seed}.json")]
    if setup_only:
        command.append("--setup-only")
    started = time.monotonic()
    process = subprocess.Popen(command, cwd=ROOT, stdout=sys.stderr,
                               start_new_session=True)
    try:
        status = process.wait(timeout=ITERATION_TIMEOUT)
    except BaseException:
        # Timeout or interrupt: take down the iteration and its workers.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    if status != 0:
        raise BenchmarkError(f"{workload} iteration exited with {status}")
    record = json.loads(out.read_text())
    record["setup_s"] = record["setup_end"] - started
    shutil.rmtree(work, ignore_errors=True)
    return record


def measure(workload: str, seed: int, seconds: int, scratch: Path) -> tuple:
    """Untraced: iterations while they fit, medians of each metric."""
    runs = [run_iteration(workload, seed, 0, scratch)]
    walls = [runs[0]["wall_s"]]
    while sum(walls) + statistics.median(walls) <= seconds:
        runs.append(run_iteration(workload, seed, 0, scratch))
        walls.append(runs[-1]["wall_s"])
    setups = [run["setup_s"] for run in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_iteration(workload, seed, 0, scratch,
                                    setup_only=True)["setup_s"])
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(run["cpu_s"] for run in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(run["peak_rss_kb"]
                                         for run in runs) / 1024,
    }
    print(f"{workload}: {len(runs)} iteration(s), wall "
          + ", ".join(f"{wall:.3f}" for wall in walls) + " s; set-up "
          + ", ".join(f"{setup:.3f}" for setup in setups) + " s",
          file=sys.stderr)
    return runs, {name: {"value": value, "unit": END_TO_END[name]}
                  for name, value in metrics.items()}


def measure_layers(workload: str, seed: int, scratch: Path) -> tuple:
    """Traced: one untraced and one traced iteration."""
    plain = run_iteration(workload, seed, 0, scratch)
    traced = run_iteration(workload, seed, 1, scratch)
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    values["trace.overhead_frac"] = values["trace.overhead_s"] \
        / plain["wall_s"]
    print(f"{'span':32} {'count':>8} {'total_s':>10} {'self_s':>10}")
    for row in traced["spans"]:
        print(f"{row['span']:32} {row['count']:>8} {row['total_s']:>10.3f} "
              f"{row['self_s']:>10.3f}")
    print(f"untraced wall {plain['wall_s']:.3f} s, traced wall "
          f"{traced['wall_s']:.3f} s")
    return [plain, traced], {name: {"value": values[name], "unit": unit}
                             for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH_ROOT))
    try:
        print("host: " + json.dumps(host_facts(), sort_keys=True))
        if args.trace:
            runs, metrics = measure_layers(args.workload, args.seed, scratch)
        else:
            runs, metrics = measure(args.workload, args.seed, args.seconds,
                                    scratch)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass  # another run is using it
    attempted = sum(run["attempted"] for run in runs)
    failures = [failure for run in runs for failure in run["failures"]]
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac {len(failures) / attempted:.6g} "
          f"({len(failures)}/{attempted})")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
