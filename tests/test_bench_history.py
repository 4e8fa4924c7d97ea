"""Tests for the perf-regression trend table (``repro bench history``).

The tracker reads the committed ``BENCH_*.json`` records + the pinned
hot-loop baseline and judges each quantity: relative gate on simulated
MIPS (higher is better), absolute gate on SimPoint worst-case error,
informational rows for everything without a baseline contract.
"""

import json

from repro.analysis.benchtrack import (
    DEFAULT_MAX_ERROR,
    DEFAULT_MAX_REGRESSION,
    HOTLOOP_BASELINE,
    HOTLOOP_RECORD,
    SIMPOINT_RECORD,
    BenchRow,
    collect,
    _mips_row,
)


def write_records(tmp_path, *, mips=0.10, base_mips=0.10,
                  worst_error=0.02, overhead=0.5):
    hotloop = {
        "version": "1", "scale": 1,
        "aggregate_simulated_mips": mips,
        "workloads": [
            {"workload": "mcf", "simulated_mips": mips},
            {"workload": "deepsjeng", "simulated_mips": mips * 1.2},
        ],
        "telemetry": {"overhead_fraction": overhead},
    }
    (tmp_path / HOTLOOP_RECORD).write_text(json.dumps(hotloop))
    simpoint = {
        "version": "1", "cell": "lbm/insecure",
        "simpoint": {"points": 4, "intervals": 20,
                     "coverage": 1.0, "worst_error": worst_error,
                     "detailed_sim_speedup": 1.3},
    }
    (tmp_path / SIMPOINT_RECORD).write_text(json.dumps(simpoint))
    baseline_path = tmp_path / HOTLOOP_BASELINE
    baseline_path.parent.mkdir(parents=True, exist_ok=True)
    baseline_path.write_text(json.dumps({
        "aggregate_simulated_mips": base_mips,
        "workloads": [
            {"workload": "mcf", "simulated_mips": base_mips},
            {"workload": "deepsjeng", "simulated_mips": base_mips * 1.2},
        ],
    }))
    return tmp_path


class TestMipsRow:
    def test_within_gate_is_ok(self):
        row = _mips_row("hotloop", "m", 0.09, 0.10, 0.30)
        assert row.verdict == "ok"
        assert row.delta == (0.09 - 0.10) / 0.10

    def test_below_gate_is_regression(self):
        row = _mips_row("hotloop", "m", 0.06, 0.10, 0.30)
        assert row.verdict == "regression"
        assert "gate" in row.note

    def test_above_gate_is_improved(self):
        row = _mips_row("hotloop", "m", 0.20, 0.10, 0.30)
        assert row.verdict == "improved"
        assert "re-baselining" in row.note

    def test_no_baseline_is_info(self):
        assert _mips_row("hotloop", "m", 0.1, None, 0.3).verdict == "info"
        assert _mips_row("hotloop", "m", 0.1, 0.0, 0.3).verdict == "info"


class TestCollect:
    def test_all_green(self, tmp_path):
        write_records(tmp_path)
        report = collect(record_dir=tmp_path)
        assert report.missing == []
        assert report.regressions() == []
        metrics = {row.metric for row in report.rows}
        assert {"aggregate_simulated_mips", "mcf.simulated_mips",
                "telemetry.overhead_fraction", "worst_error",
                "detailed_sim_speedup", "coverage"} <= metrics
        assert "verdict: ok" in report.format_text()

    def test_throughput_regression_trips(self, tmp_path):
        write_records(tmp_path, mips=0.05, base_mips=0.10)
        report = collect(record_dir=tmp_path)
        bad = report.regressions()
        assert {row.metric for row in bad} \
            == {"aggregate_simulated_mips", "mcf.simulated_mips",
                "deepsjeng.simulated_mips"}
        assert "regression(s)" in report.format_text()

    def test_simpoint_error_gated_absolutely(self, tmp_path):
        write_records(tmp_path, worst_error=0.25)
        report = collect(record_dir=tmp_path)
        bad = report.regressions()
        assert [row.metric for row in bad] == ["worst_error"]
        assert bad[0].baseline == DEFAULT_MAX_ERROR
        # A looser gate clears it.
        loose = collect(record_dir=tmp_path, max_error=0.5)
        assert loose.regressions() == []

    def test_missing_records_reported_not_fatal(self, tmp_path):
        report = collect(record_dir=tmp_path)
        assert set(report.missing) == {HOTLOOP_RECORD, SIMPOINT_RECORD}
        assert report.rows == []
        assert "no BENCH_hotloop.json record" in report.format_text()

    def test_corrupt_record_treated_as_missing(self, tmp_path):
        write_records(tmp_path)
        (tmp_path / HOTLOOP_RECORD).write_text("{not json")
        report = collect(record_dir=tmp_path)
        assert HOTLOOP_RECORD in report.missing
        # The simpoint rows still appear.
        assert any(row.source == "simpoint" for row in report.rows)

    def test_calibrated_records_gate_normalized_throughput(self, tmp_path):
        """With a calibration rate on both sides, a host that is half as
        fast (or half as free) halves MIPS and calibration alike: no
        regression.  Half the MIPS at the same calibration rate trips."""
        write_records(tmp_path, mips=0.05, base_mips=0.10)
        for path, rate in ((tmp_path / HOTLOOP_RECORD, 10e6),
                           (tmp_path / HOTLOOP_BASELINE, 20e6)):
            document = json.loads(path.read_text())
            document["calibration_ops_per_s"] = rate
            path.write_text(json.dumps(document))
        report = collect(record_dir=tmp_path)
        assert report.regressions() == []
        rows = {row.metric: row for row in report.rows}
        assert rows["aggregate_normalized_mips"].value == 0.005
        assert rows["mcf.normalized_mips"].verdict == "ok"
        assert "aggregate_simulated_mips" not in rows

        document = json.loads((tmp_path / HOTLOOP_RECORD).read_text())
        document["calibration_ops_per_s"] = 20e6
        (tmp_path / HOTLOOP_RECORD).write_text(json.dumps(document))
        bad = collect(record_dir=tmp_path).regressions()
        assert {row.metric for row in bad} \
            == {"aggregate_normalized_mips", "mcf.normalized_mips",
                "deepsjeng.normalized_mips"}

    def test_explicit_baseline_path(self, tmp_path):
        write_records(tmp_path, mips=0.10, base_mips=0.10)
        other = tmp_path / "other_baseline.json"
        other.write_text(json.dumps(
            {"aggregate_simulated_mips": 0.50, "workloads": []}))
        report = collect(record_dir=tmp_path, baseline_path=other)
        aggregate = [row for row in report.rows
                     if row.metric == "aggregate_simulated_mips"][0]
        assert aggregate.verdict == "regression"

    def test_to_dict_json_serialisable(self, tmp_path):
        write_records(tmp_path)
        document = json.loads(json.dumps(
            collect(record_dir=tmp_path).to_dict()))
        assert document["regressions"] == 0
        assert document["max_regression"] == DEFAULT_MAX_REGRESSION
        assert all("verdict" in row for row in document["rows"])

    def test_repo_records_are_green(self):
        """The committed records themselves must pass the gates — this
        is exactly what CI's ``repro bench history --check`` enforces."""
        report = collect(record_dir=".")
        assert report.missing == []
        assert report.regressions() == []


class TestFormatting:
    def test_row_dict(self):
        row = BenchRow(source="s", metric="m", value=1.0)
        assert row.to_dict()["verdict"] == "info"
