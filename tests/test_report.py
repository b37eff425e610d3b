"""Report math is recomputable by hand from the raw dump."""

import csv

import pytest

from ofprobe import netsim
from ofprobe.report import (
    ErrorReport,
    MismatchedTargets,
    build_report,
    cdf_points,
    percentile,
    report_from_topology,
    task_estimates,
    truth_map,
)
from helpers import VirtualStack, make_topology


def entry(tgt, rtt_cs, probes):
    return {"tgt": tgt, "rtt_cs_us": rtt_cs, "probes": probes}


def test_task_estimates_correct_and_clamp():
    e = entry("192.0.2.1", 10_000.0, [
        [1000, 33_000, "192.0.2.1"],   # 32 ms raw minus 10 ms control
        [2000, None, None],
        [3000, 9000, "192.0.2.1"],     # would go negative, clamps to 0
    ])
    assert task_estimates(e) == [22_000.0, None, 0.0]


def test_task_estimates_with_null_control_rtt():
    e = entry("192.0.2.1", None, [[0, 500, "192.0.2.1"]])
    assert task_estimates(e) == [500.0]


def test_build_report_rows_and_errors():
    dump = {
        "3": entry("192.0.2.1", 0.0, [[0, 21_000, "192.0.2.1"],
                                      [0, 23_000, "192.0.2.1"]]),
        "1": entry("192.0.2.2", 0.0, [[0, 55_000, "192.0.2.2"]]),
        "2": entry("192.0.2.3", 0.0, [[0, None, None]]),
    }
    truth = {"192.0.2.1": 20_000.0, "192.0.2.2": 50_000.0,
             "192.0.2.3": 10_000.0}
    report = build_report(dump, truth)
    # rows follow task id order; the fully unanswered task is only counted
    assert [r.target for r in report.rows] == ["192.0.2.2", "192.0.2.1"]
    assert report.unanswered_targets == 1
    row = report.rows[1]
    assert row.est_us == 21_000.0
    assert row.est_mean_us == 22_000.0
    assert row.abs_error_us == 2000.0
    assert row.rel_error == pytest.approx(0.1)


def test_build_report_rejects_unknown_targets():
    dump = {"1": entry("203.0.113.77", 0.0, [[0, 100, "203.0.113.77"]])}
    with pytest.raises(MismatchedTargets):
        build_report(dump, {"192.0.2.1": 1.0})


def test_percentile_linear_interpolation():
    values = [10, 20, 30, 40]
    assert percentile(values, 0) == 10
    assert percentile(values, 100) == 40
    assert percentile(values, 50) == 25.0
    assert percentile(values, 90) == pytest.approx(37.0)
    assert percentile([7], 95) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


def test_cdf_points_cover_unit_interval():
    points = cdf_points([30, 10, 20])
    assert points == [(10, pytest.approx(1 / 3)),
                      (20, pytest.approx(2 / 3)),
                      (30, pytest.approx(1.0))]


def test_percentile_summary_keys():
    report = build_report(
        {"1": entry("192.0.2.1", 0.0, [[0, 11_000, "192.0.2.1"]])},
        {"192.0.2.1": 10_000.0})
    summary = report.percentile_summary()
    assert set(summary) == {50, 90, 95, 99}
    assert summary[50]["abs_error_us"] == 1000.0
    assert summary[50]["rel_error"] == pytest.approx(0.1)


def test_csv_round_trip_preserves_floats(tmp_path):
    truth = {"192.0.2.1": 20_000.0}
    dump = {"1": entry("192.0.2.1", 7313.0,
                       [[100, 27_717, "192.0.2.1"], [200, None, None]])}
    report = build_report(dump, truth)
    path = tmp_path / "report.csv"
    report.write_csv(path)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == ErrorReport.FIELDS
    assert len(rows) == 1
    row = report.rows[0]
    for field, cell in zip(ErrorReport.FIELDS, rows[0]):
        value = getattr(row, field)
        assert cell == (value if field == "target" else repr(value))


def test_report_from_live_dump():
    topo = make_topology()
    topo.targets["192.0.2.1"] = netsim.TargetSpec(base_rtt_us=20_000)
    topo.targets["192.0.2.2"] = netsim.TargetSpec(base_rtt_us=80_000)
    stack = VirtualStack(topo)
    stack.run_ping("192.0.2.1", 1)
    stack.run_ping("192.0.2.2", 1)
    report = report_from_topology(stack.engine.dump_ping(), topo)
    assert truth_map(topo) == {"192.0.2.1": 20_000.0, "192.0.2.2": 80_000.0}
    assert [r.target for r in report.rows] == ["192.0.2.1", "192.0.2.2"]
    # constant-delay topology: the residual is exactly the switch processing
    for row in report.rows:
        assert row.abs_error_us == 2500.0
