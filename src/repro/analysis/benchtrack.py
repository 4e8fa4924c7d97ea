"""Perf-regression tracking over the committed benchmark records.

The repo commits its benchmark results — ``BENCH_hotloop.json`` (hot-loop
throughput + telemetry-overhead pass), ``BENCH_simpoint.json`` (sampled-
simulation accuracy/speedup), ``BENCH_hotloop_metrics.json`` — and keeps
a pinned baseline (``benchmarks/bench_hotloop_baseline.json``).  This
module turns those files into a single trend table with a per-row
verdict, so drift is visible *before* the CI perf-smoke gate trips:

* hot-loop rows compare current ``simulated_mips`` (aggregate and per
  workload) against the baseline under the same relative-regression
  threshold the CI gate uses (default 30%, higher-is-better).  When
  the record and the baseline both carry a ``calibration_ops_per_s``
  host rate, every row gates MIPS per million calibration ops/s
  (``*normalized_mips``) instead, so host speed and host load cancel;
* the telemetry-overhead and SimPoint-speedup rows are informational
  (no baseline contract);
* the SimPoint ``worst_error`` row is gated absolutely (default 10%,
  matching ``bench_simpoint.py --max-error``).

``repro bench history`` renders the table; ``repro bench history
--check`` exits non-zero on any ``regression`` verdict, which is what
the CI perf-smoke job wires in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Default relative simulated-MIPS regression tolerated before the
#: verdict flips (mirrors ``bench_hotloop.py --max-regression``).
DEFAULT_MAX_REGRESSION = 0.30

#: Default absolute SimPoint headline-error ceiling (mirrors
#: ``bench_simpoint.py --max-error``).
DEFAULT_MAX_ERROR = 0.10

#: Committed benchmark records the trend table knows how to read,
#: relative to the repo/record directory.
HOTLOOP_RECORD = "BENCH_hotloop.json"
SIMPOINT_RECORD = "BENCH_simpoint.json"
HOTLOOP_BASELINE = "benchmarks/bench_hotloop_baseline.json"


@dataclass
class BenchRow:
    """One tracked benchmark quantity with its verdict."""

    source: str                     # which BENCH file the value came from
    metric: str
    value: float
    baseline: Optional[float] = None
    delta: Optional[float] = None   # relative change vs baseline
    verdict: str = "info"           # ok | regression | improved | info
    note: str = ""

    def to_dict(self) -> Dict[str, object]:
        from dataclasses import asdict

        return asdict(self)


@dataclass
class BenchReport:
    """The full trend table plus the thresholds it was judged under."""

    rows: List[BenchRow] = field(default_factory=list)
    max_regression: float = DEFAULT_MAX_REGRESSION
    max_error: float = DEFAULT_MAX_ERROR
    missing: List[str] = field(default_factory=list)

    def regressions(self) -> List[BenchRow]:
        return [row for row in self.rows if row.verdict == "regression"]

    def to_dict(self) -> Dict[str, object]:
        return {
            "max_regression": self.max_regression,
            "max_error": self.max_error,
            "missing": list(self.missing),
            "rows": [row.to_dict() for row in self.rows],
            "regressions": len(self.regressions()),
        }

    def format_text(self) -> str:
        lines = ["benchmark history "
                 f"(gates: -{self.max_regression:.0%} simulated MIPS, "
                 f"{self.max_error:.0%} simpoint error)"]
        header = (f"  {'source':<10} {'metric':<38} {'value':>12} "
                  f"{'baseline':>12} {'delta':>8}  verdict")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for row in self.rows:
            baseline = "-" if row.baseline is None else f"{row.baseline:g}"
            delta = "-" if row.delta is None else f"{row.delta:+.1%}"
            note = f"  ({row.note})" if row.note else ""
            lines.append(f"  {row.source:<10} {row.metric:<38} "
                         f"{row.value:>12g} {baseline:>12} {delta:>8}"
                         f"  {row.verdict}{note}")
        for name in self.missing:
            lines.append(f"  (no {name} record committed)")
        bad = self.regressions()
        lines.append(f"  verdict: "
                     + (f"{len(bad)} regression(s)" if bad else "ok"))
        return "\n".join(lines)


def _load(path: Path) -> Optional[Dict[str, object]]:
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


def _mips_row(source: str, metric: str, value: float,
              baseline: Optional[float], max_regression: float) -> BenchRow:
    """Higher-is-better row under the relative regression gate."""
    row = BenchRow(source=source, metric=metric, value=value,
                   baseline=baseline)
    if baseline is None or baseline <= 0:
        row.verdict = "info"
        return row
    row.delta = (value - baseline) / baseline
    if row.delta < -max_regression:
        row.verdict = "regression"
        row.note = f"below -{max_regression:.0%} gate"
    elif row.delta > max_regression:
        row.verdict = "improved"
        row.note = "consider re-baselining"
    else:
        row.verdict = "ok"
    return row


def _hotloop_row(metric: str, value: float, reference: Optional[float],
                 rates: tuple, max_regression: float) -> BenchRow:
    """Gate one hot-loop MIPS figure; with host calibration rates for
    both the record and the baseline, gate it normalized (renamed
    ``*normalized_mips``)."""
    rate, base_rate = rates
    if rate and base_rate and reference is not None:
        return _mips_row("hotloop",
                         metric.replace("simulated_mips", "normalized_mips"),
                         value / (rate / 1e6),
                         float(reference) / (base_rate / 1e6),
                         max_regression)
    return _mips_row("hotloop", metric, value, reference, max_regression)


def collect(record_dir: Union[str, Path] = ".",
            baseline_path: Optional[Union[str, Path]] = None,
            max_regression: float = DEFAULT_MAX_REGRESSION,
            max_error: float = DEFAULT_MAX_ERROR) -> BenchReport:
    """Parse the committed ``BENCH_*.json`` records under ``record_dir``
    (plus the pinned hot-loop baseline) into a judged trend table."""
    record_dir = Path(record_dir)
    if baseline_path is None:
        baseline_path = record_dir / HOTLOOP_BASELINE
    report = BenchReport(max_regression=max_regression,
                         max_error=max_error)

    baseline = _load(Path(baseline_path)) or {}
    base_by_workload = {entry.get("workload"): entry
                        for entry in baseline.get("workloads", [])
                        if isinstance(entry, dict)}

    hotloop = _load(record_dir / HOTLOOP_RECORD)
    if hotloop is None:
        report.missing.append(HOTLOOP_RECORD)
    else:
        rates = (hotloop.get("calibration_ops_per_s"),
                 baseline.get("calibration_ops_per_s"))
        report.rows.append(_hotloop_row(
            "aggregate_simulated_mips",
            float(hotloop.get("aggregate_simulated_mips", 0.0)),
            baseline.get("aggregate_simulated_mips"), rates,
            max_regression))
        for entry in hotloop.get("workloads", []):
            if not isinstance(entry, dict):
                continue
            name = entry.get("workload", "?")
            base = base_by_workload.get(name, {})
            report.rows.append(_hotloop_row(
                f"{name}.simulated_mips",
                float(entry.get("simulated_mips", 0.0)),
                base.get("simulated_mips"), rates, max_regression))
        telemetry = hotloop.get("telemetry")
        if isinstance(telemetry, dict) \
                and "overhead_fraction" in telemetry:
            report.rows.append(BenchRow(
                source="hotloop", metric="telemetry.overhead_fraction",
                value=float(telemetry["overhead_fraction"]),
                verdict="info", note="enabled-path cost, not gated"))

    simpoint = _load(record_dir / SIMPOINT_RECORD)
    if simpoint is None:
        report.missing.append(SIMPOINT_RECORD)
    else:
        sampled = simpoint.get("simpoint", {})
        worst = float(sampled.get("worst_error", 0.0))
        row = BenchRow(source="simpoint", metric="worst_error", value=worst,
                       baseline=max_error)
        if worst > max_error:
            row.verdict = "regression"
            row.note = f"above {max_error:.0%} accuracy gate"
        else:
            row.verdict = "ok"
        report.rows.append(row)
        if "detailed_sim_speedup" in sampled:
            report.rows.append(BenchRow(
                source="simpoint", metric="detailed_sim_speedup",
                value=float(sampled["detailed_sim_speedup"]),
                verdict="info", note="replay vs full detailed sim"))
        if "coverage" in sampled:
            report.rows.append(BenchRow(
                source="simpoint", metric="coverage",
                value=float(sampled["coverage"]), verdict="info"))

    return report
