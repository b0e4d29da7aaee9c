"""Report building, file emission and round-trip loading."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import SCENARIO_DIR, make_scenario, toy_doc
from vppopt.orchestrator import (
    ThresholdEntry,
    run,
    sweep_profile_costs,
    through,
)
from vppopt.report import (
    NOCOORD_NOTE,
    _write_csv,
    build_report,
    emit_report,
    emit_thresholds,
)
from vppopt.scenario import load_scenario


def load_trade_csv(path: Path) -> dict[str, list[float]]:
    """Read dam.csv / idm_<k>.csv into column lists keyed by header."""
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        cols: dict[str, list[float]] = {name: [] for name in reader.fieldnames or []}
        for row in reader:
            for name, value in row.items():
                cols[name].append(float(value))
    return cols


def load_long_csv(path: Path) -> dict[str, list[float]]:
    """Read a (period, id, value) file into per-id series."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        series: dict[str, list[tuple[int, float]]] = {}
        for period, ident, value in reader:
            series.setdefault(ident, []).append((int(float(period)), float(value)))
    return {ident: [v for _, v in sorted(points)] for ident, points in series.items()}


def load_thresholds_csv(path: Path) -> list[ThresholdEntry]:
    out = []
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(ThresholdEntry(
                demand_id=row["demandId"], profile_id=row["profileId"],
                status=row["status"],
                threshold=float(row["thresholdEUR"]) if row["thresholdEUR"] else None,
                resolution=float(row["resolutionEUR"])))
    return out


def _failing_at_dam():
    """The toy with a line too weak for the wind's minimum output."""
    doc = toy_doc()
    doc["network"]["lines"][0]["flowLimit"] = 1.0
    doc["ndres"][0]["pMin"] = [4.0, 6.0, 5.0]
    return make_scenario(doc)


def column(report, name: str, j: int) -> list:
    """Column ``j`` of the table ``name`` as the report lays it out."""
    return [row[j] for row in report.tables[name][1]]


def series_of(report, name: str, ident: str) -> list[float]:
    """One id's value column of a long (period, id, value) table."""
    return [value for _, i, value in report.tables[name][1] if i == ident]


class TestBuildReport:
    def test_series_and_bookkeeping(self, toy):
        result = run(toy)
        report = build_report(toy, result)
        profit = report.documents["profit.json"]
        assert profit["mode"] == "vpp"
        assert column(report, "dam.csv", 0) == [1, 2, 3]
        assert len(column(report, "dam.csv", 1)) == 3
        assert [name for name in report.tables if name.startswith("idm_")] == ["idm_1.csv"]
        assert np.allclose(
            column(report, "idm_1.csv", 2),
            np.array(column(report, "dam.csv", 1)) + np.array(column(report, "idm_1.csv", 1)),
            atol=1e-12)
        assert set(column(report, "dispatch.csv", 1)) == {"gen", "wind"}
        assert "storage.csv" not in report.tables
        assert set(column(report, "demand.csv", 1)) == {"load"}
        assert {d: doc["selected"] for d, doc in report.documents["profiles.json"].items()} \
            == {"load": "flat"}
        assert profit["failure"] is None
        assert report.verifier_summary() == []
        assert all(not problems
                   for problems in report.documents["verify.json"]["checks"].values())

    def test_profits_carry_both_views(self, toy):
        result = run(toy)
        report = build_report(toy, result)
        profit = report.documents["profit.json"]
        assert abs(profit["sessions"]["dam"] - 853.0) <= 1e-6
        assert abs(profit["total"] - 863.0) <= 1e-6
        for key, value in profit["sessions"].items():
            assert abs(profit["recomputed"][key] - value) <= 1e-6

    def test_failed_run_reports_the_failure(self):
        s = _failing_at_dam()
        report = build_report(s, run(s))
        assert report.documents["profit.json"]["failure"] == "dam"
        assert "dam.csv" not in report.tables
        assert report.documents["profit.json"]["sessions"] == {}
        assert report.documents["verify.json"]["sessions"][0]["status"] == "infeasible"


class TestEmitAndLoad:
    def test_file_set_for_a_full_run(self, toy, tmp_path):
        report = build_report(toy, run(toy))
        written = {p.name for p in emit_report(report, tmp_path)}
        assert written == {"dam.csv", "idm_1.csv", "dispatch.csv", "demand.csv",
                           "profit.json", "profiles.json", "verify.json"}
        # no storage unit in the toy, so no storage.csv
        assert not (tmp_path / "storage.csv").exists()

    def test_day_ahead_only_run_emits_no_session_files(self, toy, tmp_path):
        report = build_report(toy, run(through(toy, "dam")))
        written = {p.name for p in emit_report(report, tmp_path)}
        assert "dam.csv" in written and "profit.json" in written
        assert not any(name.startswith("idm_") for name in written)

    def test_trade_csv_round_trips_at_six_decimals(self, toy, tmp_path):
        result = run(toy)
        emit_report(build_report(toy, result), tmp_path)
        ledger = result.ledger
        dam = load_trade_csv(tmp_path / "dam.csv")
        assert dam["period"] == [1.0, 2.0, 3.0]
        assert np.allclose(dam["tradedMW"], ledger.trades[0], atol=5e-7)
        idm = load_trade_csv(tmp_path / "idm_1.csv")
        assert np.allclose(idm["tradedMW"], ledger.trades[1], atol=5e-7)
        assert np.allclose(idm["cumulativeMW"],
                           [ledger.cumulative_trade(t) for t in (1, 2, 3)], atol=5e-7)

    def test_long_csvs_round_trip_per_asset(self, toy, tmp_path):
        result = run(toy)
        emit_report(build_report(toy, result), tmp_path)
        dispatch = load_long_csv(tmp_path / "dispatch.csv")
        assert set(dispatch) == {"gen", "wind"}
        assert np.allclose(dispatch["wind"], result.ledger.ndres_p["wind"], atol=5e-7)
        demand = load_long_csv(tmp_path / "demand.csv")
        assert np.allclose(demand["load"], result.ledger.demand_p["load"], atol=5e-7)

    def test_negative_zero_reads_as_zero(self, tmp_path):
        # HiGHS returns exact -0.0 for some settled values; a value that
        # prints as zero at 6 decimals carries no sign
        _write_csv(tmp_path / "z.csv", ["period", "tradedMW"],
                   [[1, -0.0], [2, -4e-13], [3, -6e-7], [4, 0.0]])
        assert (tmp_path / "z.csv").read_bytes() == (
            b"period,tradedMW\r\n1,0.000000\r\n2,0.000000\r\n"
            b"3,-0.000001\r\n4,0.000000\r\n")

    def test_profit_json_carries_full_precision(self, toy, tmp_path):
        result = run(toy)
        report = build_report(toy, result)
        emit_report(report, tmp_path)
        doc = json.loads((tmp_path / "profit.json").read_text())
        assert doc["scenario"] == "toy"
        assert doc["mode"] == "vpp"
        assert doc["failure"] is None
        # identical down to the bit: json stores the exact double
        assert doc["sessions"]["dam"] == result.profits["dam"]
        assert doc["total"] == report.documents["profit.json"]["total"]

    def test_profiles_and_verify_json(self, toy, tmp_path):
        result = run(toy)
        report = build_report(toy, result)
        emit_report(report, tmp_path)
        profiles = json.loads((tmp_path / "profiles.json").read_text())
        assert profiles == {"load": {"selected": "flat", "cost": 0.0}}
        verify_doc = json.loads((tmp_path / "verify.json").read_text())
        assert [sess["key"] for sess in verify_doc["sessions"]] == ["dam", "idm1"]
        assert all(sess["violations"] == [] for sess in verify_doc["sessions"])
        # per-session solver statistics, as the run recorded them
        for sess, res in zip(verify_doc["sessions"], result.sessions):
            assert (sess["nodes"], sess["lpIterations"], sess["absGap"]) == \
                (res.nodes, res.lp_iterations, res.abs_gap)
            assert (sess["nBinaries"], sess["nNonzeros"]) == (res.n_binaries, res.n_nonzeros)
            assert isinstance(sess["nodes"], int) and sess["nodes"] >= 0
            assert isinstance(sess["lpIterations"], int) and sess["lpIterations"] >= 0
            assert 0.0 <= sess["absGap"] <= 1e-6 * max(1.0, abs(sess["objective"]))
        assert verify_doc["summary"] == []
        assert set(verify_doc["checks"]) == {"demandContracts", "aggregateBalance",
                                             "storageConservation"}

    @pytest.mark.parametrize("mode, generation", [
        ("vpp", True), ("nocoord", True), ("nocoord", False)],
        ids=["vpp", "nocoord", "nocoord-demand-only"])
    def test_verify_json_session_schema(self, tmp_path, mode, generation):
        doc = toy_doc()
        if not generation:
            doc["dres"], doc["ndres"] = [], []
            for forecast in (doc["forecasts"]["dam"], *doc["forecasts"]["idm"]):
                forecast["ndresAvail"] = {}
        s = make_scenario(doc)
        result = run(s, mode)
        emit_report(build_report(s, result), tmp_path)
        sessions = json.loads((tmp_path / "verify.json").read_text())["sessions"]
        assert [sess["key"] for sess in sessions] == ["dam", "idm1"]
        for sess in sessions:
            assert list(sess) == ["key", "status", "objective", "violations", "runtimeS",
                                  "nVars", "nConstraints", "nBinaries", "nNonzeros",
                                  "nodes", "lpIterations", "absGap", "startObjective"]
            assert type(sess["runtimeS"]) is float and type(sess["absGap"]) is float
            for count in ("nVars", "nConstraints", "nBinaries", "nNonzeros", "nodes",
                          "lpIterations"):
                assert type(sess[count]) is int
            assert (sess["nVars"] > 0) == generation

    def test_clear_day_ahead_size_is_pinned(self, tmp_path):
        # counted as HiGHS receives the model, after the SOS-2 reformulation
        scenario = load_scenario(SCENARIO_DIR / "clear.json")
        result = run(through(scenario, "dam"))
        emit_report(build_report(scenario, result), tmp_path)
        (dam,) = json.loads((tmp_path / "verify.json").read_text())["sessions"]
        assert (dam["nVars"], dam["nConstraints"]) == (1425, 1397)
        assert (dam["nBinaries"], dam["nNonzeros"]) == (177, 4326)

    def test_emission_is_idempotent(self, toy, tmp_path):
        report = build_report(toy, run(toy))
        first = emit_report(report, tmp_path)
        second = emit_report(report, tmp_path)
        assert first == second
        assert json.loads((tmp_path / "profit.json").read_text())["total"] == \
            report.documents["profit.json"]["total"]

    def test_reused_directory_keeps_no_earlier_table(self, toy, tmp_path):
        emit_report(build_report(toy, run(toy)), tmp_path)
        (tmp_path / "notes.txt").write_text("kept")
        (tmp_path / "idm_1.csv.bak").write_text("kept")
        dam_only = build_report(toy, run(through(toy, "dam")))
        emit_report(dam_only, tmp_path)
        assert {p.name for p in tmp_path.iterdir()} == {
            "dam.csv", "dispatch.csv", "demand.csv", "profit.json", "profiles.json",
            "verify.json", "notes.txt", "idm_1.csv.bak"}
        s = _failing_at_dam()
        emit_report(build_report(s, run(s)), tmp_path)
        assert {p.name for p in tmp_path.iterdir()} == {
            "profit.json", "profiles.json", "verify.json", "notes.txt", "idm_1.csv.bak"}

    def test_storage_file_appears_with_a_storage_unit(self, tmp_path):
        from test_stu import _stu_scenario

        s = _stu_scenario([5.0, 50.0], [100.0, 0.0])
        report = build_report(s, run(s))
        written = {p.name for p in emit_report(report, tmp_path)}
        assert "storage.csv" in written
        trace = load_long_csv(tmp_path / "storage.csv")
        assert np.allclose(trace["csp"], [100.0, 0.0], atol=5e-7)


class TestReportLayout:
    """The file set pinned: path order, CSV headers, top-level JSON key order."""

    FULL = ["dam.csv", "idm_1.csv", "dispatch.csv", "demand.csv",
            "profit.json", "profiles.json", "verify.json"]
    PROFIT_KEYS = ["scenario", "mode", "sessions", "recomputed", "total", "failure"]
    HEADERS = {
        "dam.csv": "period,tradedMW",
        "idm_1.csv": "period,tradedMW,cumulativeMW",
        "dispatch.csv": "period,assetId,MW",
        "storage.csv": "period,stuId,MWh_th",
        "demand.csv": "period,demandId,MW",
    }

    @pytest.mark.parametrize("case, paths, profit_keys, profile_keys", [
        ("vpp", FULL, PROFIT_KEYS, ["load"]),
        ("nocoord", FULL, PROFIT_KEYS + ["passiveDemandProfit", "note"], ["load"]),
        ("vpp-dam-infeasible", ["profit.json", "profiles.json", "verify.json"],
         PROFIT_KEYS, []),
    ], ids=["vpp", "nocoord", "vpp-dam-infeasible"])
    def test_layout(self, tmp_path, case, paths, profit_keys, profile_keys):
        if case == "vpp-dam-infeasible":
            s = _failing_at_dam()
            result = run(s)
            assert result.failure == "dam"
        else:
            s = make_scenario(toy_doc())
            result = run(s, case)
        written = emit_report(build_report(s, result), tmp_path)
        assert written == [tmp_path / name for name in paths]
        for path in written:
            if path.suffix == ".csv":
                header, _ = path.read_bytes().split(b"\r\n", 1)
                assert header.decode() == self.HEADERS[path.name]

        def keys(name):
            return list(json.loads((tmp_path / name).read_text()))

        assert keys("profit.json") == profit_keys
        assert keys("profiles.json") == profile_keys
        assert keys("verify.json") == ["sessions", "checks", "summary", "unproven"]


class TestNocoordReport:
    def test_baseline_report_is_labelled_and_passive(self, toy, tmp_path):
        report = build_report(toy, run(toy, "nocoord"))
        profit = report.documents["profit.json"]
        assert profit["mode"] == "nocoord"
        assert profit["note"] == NOCOORD_NOTE
        assert profit["passiveDemandProfit"] == {"load": -180.0}
        assert {d: doc["selected"] for d, doc in report.documents["profiles.json"].items()} \
            == {"load": "flat"}
        assert np.allclose(series_of(report, "demand.csv", "load"), [2.0, 2.0, 2.0])
        emit_report(report, tmp_path)
        doc = json.loads((tmp_path / "profit.json").read_text())
        assert doc["note"] == NOCOORD_NOTE
        assert doc["passiveDemandProfit"] == {"load": -180.0}

    def test_baseline_trade_nets_the_passive_load(self, toy):
        report = build_report(toy, run(toy, "nocoord"))
        # isolated unit at 10 MW, wind at availability, 2 MW bought back
        assert np.allclose(column(report, "dam.csv", 1), [12.0, 14.0, 13.0], atol=1e-6)


class TestThresholdFiles:
    def test_round_trip_including_missing_thresholds(self, tmp_path):
        entries = [
            ThresholdEntry("load", "shift", "threshold", 9.25, 0.5),
            ThresholdEntry("load", "late", "never", None, 0.5),
            ThresholdEntry("plant", "day", "above_max", None, 1.0),
        ]
        path = emit_thresholds(entries, tmp_path)
        assert path.name == "thresholds.csv"
        again = load_thresholds_csv(path)
        assert again == entries

    def test_sweep_output_lands_in_the_file(self, toy, tmp_path):
        entries = sweep_profile_costs(toy, "load", "shift")
        path = emit_thresholds(entries, tmp_path)
        (row,) = load_thresholds_csv(path)
        assert (row.demand_id, row.profile_id, row.status) == ("load", "shift", "never")
