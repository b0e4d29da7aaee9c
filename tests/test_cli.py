"""Command-line interface: subcommands, exit codes, emitted files."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SCENARIO_DIR, make_scenario, toy_doc
from test_scenario import MALFORMED, MALFORMED_IDS, _set_leaf, _stu_doc
from vppopt.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    main,
)
from vppopt.idm import LedgerState
from vppopt.orchestrator import check_demand_contracts
from vppopt.scenario import MAX_PERIODS, MAX_SESSIONS, OLD_LAYOUT

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(toy_doc()))
    return path


def _write(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _two_storage_doc() -> dict:
    """Two storage units that must end the day at least half full. Session
    1 leaves ``sb`` without sun, so ``sb`` fails there; session 2 leaves
    both without sun, so ``sa``, first in portfolio order, fails only
    there."""
    def unit(uid):
        return _stu_doc(id=uid, bus="b1", chargeMax_th=30.0, storageCap_th=100.0,
                        endAlphaLo=0.5, initialEnergy_th=10.0)

    def sun(sa, sb):
        return {"stuAvail_th": {"sa": sa, "sb": sb}}

    return {
        "name": "two-storage",
        "network": {"buses": ["b1"], "mainGridBuses": ["b1"], "tradeCap": {"b1": 100.0}},
        "dres": [], "ndres": [], "stu": [unit("sa"), unit("sb")], "demands": [],
        "calendar": {"T": 3, "dtHours": 1.0, "damPrices": [30.0, 20.0, 40.0],
                     "sessions": [{"tau": 1, "prices": [30.0, 20.0, 40.0]},
                                  {"tau": 2, "prices": [20.0, 40.0]}]},
        "forecasts": {"dam": sun([60.0] * 3, [60.0] * 3),
                      "idm": [sun([60.0] * 3, [0.0] * 3), sun([0.0] * 2, [0.0] * 2)]},
    }


class TestMainGridBuses:
    @pytest.mark.parametrize("network", [
        {"mainGridBuses": [], "tradeCap": {}},
        {"mainGridBuses": ["b1", "b1"]},
    ], ids=["none", "twice"])
    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["run", "--sessions", "dam"],
        ["sweep", "--demand", "industrial", "--profile", "night_shift", "--max", "1200"],
    ], ids=["validate", "run", "sweep"])
    def test_exit_2_before_any_solve(self, tmp_path, capsys, network, argv):
        doc = json.loads((SCENARIO_DIR / "clear.json").read_text())
        doc["network"].update(network)
        path = _write(tmp_path, doc)
        out = ["--out", str(tmp_path / "out")] if argv[0] != "validate" else []
        with pytest.raises(SystemExit) as err:
            main(argv + ["--scenario", str(path)] + out)
        assert err.value.code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"invalid scenario {path}:")
        assert not (tmp_path / "out").exists()


class TestParseSessions:
    """``--sessions`` takes one key of the day's sessions; any other value,
    the old list and range syntax included, exits 2 before any solve."""

    @staticmethod
    def _refused(path, tmp_path, capsys, value) -> str:
        out = tmp_path / "x"
        code = main(["run", "--scenario", str(path), "--sessions", value, "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("bad --sessions: ")
        return err

    def test_bad_range_rejected(self, toy_file, tmp_path, capsys):
        self._refused(toy_file, tmp_path, capsys, "dam..idm1")

    @pytest.mark.parametrize("token", ["idm1..idm", "idm1..idmx", "idm..idm2"])
    def test_range_bound_that_is_not_a_number_is_named(self, toy_file, tmp_path, capsys,
                                                       token):
        err = self._refused(toy_file, tmp_path, capsys, f"dam,{token}")
        assert repr(f"dam,{token}") in err

    def test_reversed_range_rejected(self, toy_file, tmp_path, capsys):
        self._refused(toy_file, tmp_path, capsys, "dam,idm3..idm1")

    def test_range_beyond_the_session_limit_rejected(self, tmp_path, capsys):
        for value in (f"idm{MAX_SESSIONS + 1}", f"idm1..idm{MAX_SESSIONS + 1}",
                      f"idm{10 ** 12}"):
            self._refused(SCENARIO_DIR / "clear.json", tmp_path, capsys, value)

    @pytest.mark.parametrize("text", ["", " ", ","])
    def test_empty_list_rejected(self, toy_file, tmp_path, capsys, text):
        self._refused(toy_file, tmp_path, capsys, text)


class TestValidate:
    def test_ok(self, toy_file, capsys):
        assert main(["validate", "--scenario", str(toy_file)]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_invalid_scenario_prints_diagnostics(self, tmp_path, capsys):
        doc = toy_doc()
        doc["demands"][0]["tolLo"] = 2.0
        path = _write(tmp_path, doc)
        with pytest.raises(SystemExit) as err:
            main(["validate", "--scenario", str(path)])
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "invalid scenario" in captured.err
        assert "tolerance_range" in captured.err

    @pytest.mark.parametrize("mutate, rule", [
        (lambda doc: doc["calendar"]["damPrices"].__setitem__(3, float("nan")), "finite"),
        (lambda doc: doc["forecasts"]["dam"]["ndresAvail"]["wind"].__setitem__(
            5, float("inf")), "finite"),
        (lambda doc: doc["forecasts"]["idm"].append(doc["forecasts"]["dam"]), "forecast_count"),
        (lambda doc: doc["calendar"]["sessions"][0].update(k=1), OLD_LAYOUT),
        (lambda doc: doc["forecasts"].update(idm=dict(enumerate(doc["forecasts"]["idm"], 1))),
         OLD_LAYOUT),
        (lambda doc: doc["calendar"].update(T=MAX_PERIODS + 1),
         f"calendar.T: {MAX_PERIODS + 1} periods exceed the limit of {MAX_PERIODS}"),
        # the end window asks for 1.1e8 MWh_th; charging at every chance
        # from 150, the store reaches 1066.3
        (lambda doc: doc["stu"][0].update(
            storageCap_th=[c * 1e6 for c in doc["stu"][0]["storageCap_th"]]),
         "[csp] storage_unreachable: the store reaches at most 1066.3 MWh_th by the last "
         "period, below the end window's 1.1e+08 (endAlphaLo x the last cap)"),
    ] + [(lambda doc, leaf=leaf, value=value: _set_leaf(doc, leaf, value), message)
         for leaf, value, message in MALFORMED],
        ids=["nan-price", "inf-wind", "unknown-session", "old-layout-k",
             "old-layout-idm-object", "too-many-periods", "storage-unreachable"]
        + MALFORMED_IDS)
    def test_rejected_before_any_solve(self, tmp_path, capsys, mutate, rule):
        doc = json.loads((SCENARIO_DIR / "clear.json").read_text())
        mutate(doc)
        path = _write(tmp_path, doc)
        for argv in (["validate"], ["run", "--out", str(tmp_path / "r")]):
            with pytest.raises(SystemExit) as err:
                main(argv + ["--scenario", str(path)])
            assert err.value.code == EXIT_USAGE
            assert rule in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_colliding_profile_selectors_exit_2(self, tmp_path, capsys):
        """Demand ``a`` with profile ``b/c`` and demand ``a/b`` with profile
        ``c`` would share the day-ahead selector ``a/b/c``."""
        doc = toy_doc()
        first, second = doc["demands"][0], toy_doc()["demands"][0]
        first["id"], first["profiles"][0]["id"] = "a", "b/c"
        second["id"], second["profiles"][0]["id"] = "a/b", "c"
        doc["demands"].append(second)
        path = _write(tmp_path, doc)
        for argv in (["validate"], ["run", "--out", str(tmp_path / "r")],
                     ["run", "--mode", "nocoord", "--out", str(tmp_path / "r")]):
            with pytest.raises(SystemExit) as err:
                main(argv + ["--scenario", str(path)])
            assert err.value.code == EXIT_USAGE
            assert capsys.readouterr().err.splitlines()[1:] == [
                "  [a,a/b] selector_collision: demand 'a' profile 'b/c' and demand 'a/b' "
                "profile 'c' share the day-ahead selector 'a/b/c'"]
        assert not (tmp_path / "r").exists()

    def test_missing_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["validate", "--scenario", str(tmp_path / "nope.json")])
        assert err.value.code == EXIT_USAGE
        assert "cannot load scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        b"\xff\xfe{}",  # a UTF-16 byte-order mark
        b"[" * 100_000 + b"]" * 100_000,  # deeper than the JSON decoder recurses
    ], ids=["not_utf8", "too_deep"])
    def test_undecodable_file_exits_2(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(SystemExit) as err:
            main(["validate", "--scenario", str(path)])
        assert err.value.code == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"cannot load scenario {path}: ")

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["calendar"].update(T=10**12, damPrices=30.0),
         "calendar.T: 1000000000000 periods exceed the limit"),
        (lambda doc: doc["calendar"]["sessions"][0].update(tau=-10**12, prices=30.0),
         "tau_range"),
    ], ids=["T", "tau"])
    def test_huge_window_exits_2_without_allocating_it(self, tmp_path, edit, message):
        # a scalar broadcast over 10**12 periods would ask for 8 TB; the
        # child runs under a 2 GiB address-space cap, so that fails loudly
        doc = json.loads((SCENARIO_DIR / "clear.json").read_text())
        edit(doc)
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                "from vppopt.cli import main\n"
                "sys.exit(main(['validate', '--scenario', sys.argv[1]]))")
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code, str(_write(tmp_path, doc))],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert message in proc.stderr


class TestRun:
    def test_full_run_writes_the_report(self, toy_file, tmp_path, capsys):
        out = tmp_path / "report"
        code = main(["run", "--scenario", str(toy_file), "--out", str(out)])
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "dam: optimal objective=853.00" in captured
        assert "idm1: optimal" in captured
        assert "total profit: 863.00" in captured
        for name in ("dam.csv", "idm_1.csv", "profit.json", "verify.json"):
            assert (out / name).exists()

    def test_summary_lines_carry_the_search_statistics(self, toy_file, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["run", "--scenario", str(toy_file), "--out", str(out)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        for sess in json.loads((out / "verify.json").read_text())["sessions"]:
            line = next(x for x in lines if x.startswith(f"{sess['key']}: optimal objective="))
            assert f", {sess['nodes']} nodes, {sess['lpIterations']} LP iterations, " \
                   f"absGap {sess['absGap']:.2g}, 0 violations)" in line

    def test_default_report_directory_uses_the_scenario_stem(
            self, toy_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--scenario", str(toy_file)]) == EXIT_OK
        assert (tmp_path / "toy-vpp-report" / "profit.json").exists()

    def test_session_subset(self, toy_file, tmp_path, capsys):
        out = tmp_path / "damonly"
        code = main(["run", "--scenario", str(toy_file),
                     "--sessions", "dam", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "dam.csv").exists()
        assert not (out / "idm_1.csv").exists()
        sessions = json.loads((out / "verify.json").read_text())["sessions"]
        assert [sess["key"] for sess in sessions] == ["dam"]

    def test_bad_session_prefix(self, toy_file, tmp_path, capsys):
        """A key the day does not have; the message lists the ones it has."""
        code = main(["run", "--scenario", str(toy_file), "--sessions", "idm2",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "bad --sessions: no session 'idm2'; the day's sessions are dam, idm1\n")

    def test_bad_session_range(self, toy_file, tmp_path, capsys):
        """The old prefix-list syntax names a list, not a session."""
        code = main(["run", "--scenario", str(toy_file), "--sessions", "dam,idm1",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert "bad --sessions: no session 'dam,idm1'" in capsys.readouterr().err

    @pytest.mark.parametrize("sessions", ["dam,idm2..idm1", ""])
    def test_reversed_or_empty_sessions_exit_2_before_any_solve(
            self, toy_file, tmp_path, capsys, sessions):
        out = tmp_path / "x"
        code = main(["run", "--scenario", str(toy_file), "--sessions", sessions,
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("bad --sessions: ")
        assert not out.exists()

    def test_dump_model(self, toy_file, tmp_path, capsys):
        lp = tmp_path / "day.lp"
        code = main(["run", "--scenario", str(toy_file), "--sessions", "dam",
                     "--out", str(tmp_path / "r"), "--dump-model", str(lp)])
        assert code == EXIT_OK
        text = lp.read_text()
        assert text.startswith("\\ dam[toy]")
        assert "Maximize" in text and "Binary" in text

    def test_nocoord_mode(self, toy_file, tmp_path, capsys):
        out = tmp_path / "solo"
        code = main(["run", "--scenario", str(toy_file), "--mode", "nocoord",
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "profit.json").read_text())
        assert doc["mode"] == "nocoord"
        assert "note" in doc

    def test_nocoord_writes_the_vpp_file_set(self, tmp_path):
        """A session prefix writes the files of the sessions that ran, in
        both modes."""
        doc = toy_doc()
        doc["calendar"]["sessions"].append({"tau": 2, "prices": [25.0, 35.0]})
        doc["forecasts"]["idm"].append({"ndresAvail": {"wind": [6.0, 5.0]},
                                        "stuAvail_th": {}})
        path = _write(tmp_path, doc)
        written = {}
        for mode in ("vpp", "nocoord"):
            out = tmp_path / mode
            code = main(["run", "--scenario", str(path), "--mode", mode,
                         "--sessions", "idm1", "--out", str(out)])
            assert code == EXIT_OK
            written[mode] = sorted(p.name for p in out.iterdir())
        assert written["nocoord"] == written["vpp"]
        assert "idm_1.csv" in written["nocoord"] and "idm_2.csv" not in written["nocoord"]

    def test_nocoord_checks_the_passive_default_profile(self, tmp_path, capsys):
        """A passive demand stays on its default profile. A default that
        breaks the demand's ramp limit is refused before any solve; a
        ledger that holds the demand on it anyway is a contract finding."""
        doc = toy_doc()
        doc["demands"][0]["profiles"][0]["power"] = [1.0, 3.0, 2.0]
        doc["demands"][0]["rampUp"] = 1.0
        path = _write(tmp_path, doc)
        with pytest.raises(SystemExit) as err:
            main(["run", "--scenario", str(path), "--mode", "nocoord",
                  "--out", str(tmp_path / "solo")])
        assert err.value.code == EXIT_USAGE
        assert "profile_ramp" in capsys.readouterr().err
        s = make_scenario(doc)
        default = s.demands[0].default_profile()
        ledger = LedgerState(
            trades=((0.0,) * 3,),
            selected_profiles={"load": default.id}, demand_p={"load": default.power},
            dres_p={}, dres_u={}, ndres_p={}, stu_series={})
        assert check_demand_contracts(s, ledger) == [
            "load: period 2 ramp-up 2.000000 exceeds 1.000000"]

    def test_an_optimum_of_zero_reads_zero(self, tmp_path, capsys):
        """An islanded toy whose wind must run: nothing to sell and nothing
        to pay, so every optimum is exactly zero and reads ``0.00`` and
        ``0.0``, never with a minus sign. Under ``nocoord`` the wind farm
        alone cannot place its minimum output, and the empty total is a
        float too."""
        doc = toy_doc()
        doc["network"]["tradeCap"] = {"b1": 0.0}
        doc["ndres"][0]["pMin"] = 1.0
        path = _write(tmp_path, doc)
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "r")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "dam: optimal objective=0.00 " in out and "-0.00" not in out
        profit = json.loads((tmp_path / "r" / "profit.json").read_text())
        assert profit["sessions"] == profit["recomputed"] == {"dam": 0.0, "idm1": 0.0}
        assert all(math.copysign(1.0, v) == 1.0 for v in profit["sessions"].values())
        assert main(["run", "--scenario", str(path), "--mode", "nocoord",
                     "--out", str(tmp_path / "solo")]) == EXIT_INFEASIBLE
        assert '"total": 0.0,' in (tmp_path / "solo" / "profit.json").read_text()

    def test_infeasible_session_exits_3(self, tmp_path, capsys):
        doc = toy_doc()
        doc["network"]["tradeCap"] = {"b1": 0.0}
        doc["dres"][0]["pMin"] = 3.0
        doc["demands"][0]["tolLo"] = 0.0
        doc["demands"][0]["tolHi"] = 0.0
        doc["forecasts"]["idm"][0]["ndresAvail"]["wind"] = [0.0, 0.0, 0.0]
        path = _write(tmp_path, doc)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "r")])
        assert code == EXIT_INFEASIBLE
        assert "run stopped at idm1" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["vpp", "nocoord"])
    def test_both_modes_stop_at_the_first_failed_session(self, tmp_path, capsys, mode):
        out = tmp_path / "r"
        code = main(["run", "--scenario", str(_write(tmp_path, _two_storage_doc())),
                     "--mode", mode, "--out", str(out)])
        assert code == EXIT_INFEASIBLE
        assert "run stopped at idm1: infeasible" in capsys.readouterr().err
        assert json.loads((out / "profit.json").read_text())["failure"] == "idm1"
        sessions = json.loads((out / "verify.json").read_text())["sessions"]
        assert [sess["key"] for sess in sessions] == ["dam", "idm1"]

    def test_no_asset_solves_past_the_portfolio_stop(self, monkeypatch):
        # sb fails idm1, so sa stops there too although it could go on
        from vppopt import orchestrator

        solved = []
        solve = orchestrator.solve

        def recorded(model, options, start):
            sol = solve(model, options, start)
            solved.append((model.name, sol.status))
            return sol

        monkeypatch.setattr(orchestrator, "solve", recorded)
        result = orchestrator.run(make_scenario(_two_storage_doc()), "nocoord")
        assert result.failure == "idm1"
        assert len(solved) == 4
        # each asset's solves in the order it made them
        assert [s for s in solved if s[0].endswith(":sa]")] == [
            ("dam[two-storage:sa]", "optimal"), ("idm1[two-storage:sa]", "optimal")]
        assert [s for s in solved if s[0].endswith(":sb]")] == [
            ("dam[two-storage:sb]", "optimal"), ("idm1[two-storage:sb]", "infeasible")]

    def test_infeasible_day_ahead_exits_3(self, tmp_path, capsys):
        doc = toy_doc()
        doc["network"]["lines"][0]["flowLimit"] = 1.0
        doc["ndres"][0]["pMin"] = [4.0, 6.0, 5.0]
        path = _write(tmp_path, doc)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "r")])
        assert code == EXIT_INFEASIBLE
        assert "run stopped at dam" in capsys.readouterr().err

    def test_storage_loop_that_cannot_idle_exits_3(self, tmp_path, capsys):
        # with both loop minimums positive the unit must charge or
        # discharge in every period; at night it cannot charge, so it
        # discharges, and the block must run on that heat all night
        doc = json.loads((SCENARIO_DIR / "clear.json").read_text())
        doc["stu"][0].update(chargeMin_th=1.0, dischargeMin_th=10.0)
        code = main(["run", "--scenario", str(_write(tmp_path, doc)),
                     "--sessions", "dam", "--out", str(tmp_path / "r")])
        assert code == EXIT_INFEASIBLE
        assert "run stopped at dam: infeasible" in capsys.readouterr().err

    def test_purchase_caps_leave_a_load_only_day_ahead_infeasible(self, tmp_path, capsys):
        # the trade_lo rows cap each period's purchase at the smallest
        # profile power there: 1 MW in period 1 (shift) and 2 MW in
        # period 3 (flat), so with nothing to generate neither profile can
        # be bought; the baseline buys the default outside any model
        doc = toy_doc()
        doc["dres"], doc["ndres"] = [], []
        for forecast in (doc["forecasts"]["dam"], *doc["forecasts"]["idm"]):
            forecast["ndresAvail"] = {}
        path = str(_write(tmp_path, doc))
        assert main(["validate", "--scenario", path]) == 0
        code = main(["run", "--scenario", path, "--out", str(tmp_path / "vpp")])
        assert code == EXIT_INFEASIBLE
        assert "run stopped at dam: infeasible" in capsys.readouterr().err
        assert main(["run", "--mode", "nocoord", "--scenario", path,
                     "--out", str(tmp_path / "nocoord")]) == 0

    def test_time_limit_without_incumbent_exits_4(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(SCENARIO_DIR / "clear.json"),
                     "--sessions", "dam", "--time-limit", "1e-9",
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out.startswith("dam: time_limit objective=- ")
        assert "run stopped at dam: time_limit" in captured.err

    @pytest.mark.parametrize("mode, gap", [("vpp", "12"), ("nocoord", "25")])
    def test_unproven_sessions_are_listed_and_the_run_still_succeeds(
            self, toy_file, tmp_path, capsys, monkeypatch, mode, gap):
        from vppopt import orchestrator

        solve_session = orchestrator._solve_session

        def unproven_idm1(model, options, key, start):  # as if the time limit cut it short
            sol, result = solve_session(model, options, key, start)
            if key == "idm1":
                sol = dataclasses.replace(sol, status="feasible")
                result = dataclasses.replace(result, status="feasible", abs_gap=12.5)
            return sol, result

        out = tmp_path / "r"
        args = ["run", "--scenario", str(toy_file), "--mode", mode, "--out", str(out)]
        assert main(args) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert not any(line.startswith("unproven") for line in lines)
        assert json.loads((out / "verify.json").read_text())["unproven"] == []

        monkeypatch.setattr(orchestrator, "_solve_session", unproven_idm1)
        assert main(args) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("total profit: "))
        assert lines[at + 1] == (f"unproven: 1 of 2 sessions ended feasible, "
                                 f"worst absGap {gap}; see verify.json")
        doc = json.loads((out / "verify.json").read_text())
        assert (doc["unproven"], doc["summary"]) == (["idm1"], [])

    def test_solver_failure_exits_4(self, toy_file, tmp_path, capsys, monkeypatch):
        from vppopt import cli
        from vppopt.orchestrator import RunResult, SessionResult

        broken = RunResult(
            mode="vpp",
            sessions=(SessionResult(key="dam", status="error", objective=None,
                                    violations=(), runtime_s=0.0, n_vars=0,
                                    n_constraints=0),),
            ledger_history=(), recomputed_profits={})
        monkeypatch.setattr(cli, "run", lambda s, mode, options: broken)
        code = main(["run", "--scenario", str(toy_file), "--out", str(tmp_path / "r")])
        assert code == EXIT_SOLVER
        assert "run stopped at dam: error" in capsys.readouterr().err

    def test_profit_drift_exits_4(self, toy_file, tmp_path, capsys, monkeypatch):
        from vppopt import orchestrator

        recompute = orchestrator.recompute_profits

        def shifted(s, history):
            out = recompute(s, history)
            out["idm1"] += 1.0
            return out

        monkeypatch.setattr(orchestrator, "recompute_profits", shifted)
        code = main(["run", "--scenario", str(toy_file), "--out", str(tmp_path / "r")])
        assert code == EXIT_SOLVER
        assert "recomputed profits drift 1.000e+00 EUR" in capsys.readouterr().err

    def test_unknown_mode_is_a_usage_error(self, toy_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--scenario", str(toy_file), "--mode", "solo"])
        assert err.value.code == EXIT_USAGE

    def test_demand_only_nocoord_run_lists_every_session(self, tmp_path, capsys):
        doc = toy_doc()
        doc["dres"], doc["ndres"] = [], []
        for forecast in (doc["forecasts"]["dam"], *doc["forecasts"]["idm"]):
            forecast["ndresAvail"] = {}
        out = tmp_path / "r"
        code = main(["run", "--scenario", str(_write(tmp_path, doc)), "--mode", "nocoord",
                     "--out", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        profits = json.loads((out / "profit.json").read_text())["sessions"]
        sessions = json.loads((out / "verify.json").read_text())["sessions"]
        assert [sess["key"] for sess in sessions] == list(profits) == ["dam", "idm1"]
        for sess in sessions:
            assert sess["status"] == "optimal"
            assert sess["objective"] == profits[sess["key"]]
            assert sess["nVars"] == sess["nodes"] == sess["lpIterations"] == 0
            assert sess["absGap"] == 0.0
            assert f"{sess['key']}: optimal objective={profits[sess['key']]:.2f}" in stdout


class TestSweep:
    def test_threshold_search_writes_the_file(self, tmp_path, capsys):
        doc = toy_doc()
        doc["calendar"]["damPrices"] = [40.0, 20.0, 30.0]
        doc["calendar"]["sessions"][0]["prices"] = [40.0, 20.0, 30.0]
        path = _write(tmp_path, doc)
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", str(path), "--demand", "load",
                     "--profile", "shift", "--max", "100", "--out", str(out)])
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "threshold" in captured
        rows = (out / "thresholds.csv").read_text().strip().splitlines()
        assert rows[0] == "demandId,profileId,status,thresholdEUR,resolutionEUR"
        assert rows[1].startswith("load,shift,threshold,")

    def test_readme_sweep_writes_the_pinned_file(self, tmp_path, capsys):
        # the README's sweep of the clear day, byte for byte
        out = tmp_path / "clear-sweep"
        code = main(["sweep", "--scenario", str(SCENARIO_DIR / "clear.json"),
                     "--demand", "industrial", "--profile", "night_shift", "--max", "1200",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "thresholds.csv").read_bytes() == (
            b"demandId,profileId,status,thresholdEUR,resolutionEUR\r\n"
            b"industrial,night_shift,threshold,180.175000,1.000000\r\n")

    def test_worthless_profile_reports_never(self, toy_file, tmp_path, capsys):
        code = main(["sweep", "--scenario", str(toy_file), "--demand", "load",
                     "--profile", "shift", "--max", "50",
                     "--out", str(tmp_path / "sweep")])
        assert code == EXIT_OK
        assert "never" in capsys.readouterr().out
        line = (tmp_path / "sweep" / "thresholds.csv").read_text().splitlines()[1]
        assert line == "load,shift,never,,1.000000"

    def test_unknown_profile_is_a_usage_error(self, toy_file, tmp_path, capsys):
        code = main(["sweep", "--scenario", str(toy_file), "--demand", "load",
                     "--profile", "ghost", "--max", "10",
                     "--out", str(tmp_path / "sweep")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            "no non-default profile matches demand=load profile=ghost\n"

    def test_held_solve_with_a_violation_exits_4(self, toy_file, tmp_path, capsys,
                                                 monkeypatch):
        from vppopt import orchestrator
        from vppopt.milp import Violation

        monkeypatch.setattr(orchestrator, "verify",
                            lambda model, sol: [Violation("constraint", "bal.b1.t1", 0.5)])
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", str(toy_file), "--demand", "load",
                     "--profile", "shift", "--max", "50", "--out", str(out)])
        assert code == EXIT_SOLVER
        assert capsys.readouterr().err == (
            "sweep failed: day-ahead solve has 1 violations, the first "
            "constraint bal.b1.t1: residual 5.000e-01\n")
        assert not (out / "thresholds.csv").exists()

    def test_unproven_held_solve_exits_4(self, toy_file, tmp_path, capsys, monkeypatch):
        # an incumbent short of optimality gives no exact break-even
        from vppopt import orchestrator

        solve = orchestrator.solve
        monkeypatch.setattr(
            orchestrator, "solve", lambda model, options, start: dataclasses.replace(
                solve(model, options, start), status="feasible", message="Time limit reached"))
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", str(toy_file), "--demand", "load",
                     "--profile", "shift", "--max", "50", "--out", str(out)])
        assert code == EXIT_SOLVER
        assert capsys.readouterr().err == \
            "sweep failed: day-ahead solve failed: feasible Time limit reached\n"
        assert not (out / "thresholds.csv").exists()


SWEEP = ["sweep", "--demand", "load", "--profile", "shift"]


class TestFlagValues:
    @pytest.mark.parametrize("argv", [
        SWEEP + ["--max", "10", "--step", "0"],
        SWEEP + ["--max", "10", "--step", "-1"],
        SWEEP + ["--max", "10", "--step", "nan"],
        SWEEP + ["--max", "-5"],
        ["run", "--gap", "-1"],
        ["run", "--time-limit", "0"],
    ], ids=["step-zero", "step-negative", "step-nan", "max-negative", "gap-negative",
            "time-limit-zero"])
    def test_nonsensical_value_exits_2(self, toy_file, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(argv + ["--scenario", str(toy_file), "--out", str(out)])
        assert err.value.code == EXIT_USAGE
        flag = argv[-2]
        assert f"argument {flag}: expected a finite number" in capsys.readouterr().err
        assert not out.exists()


class TestUnwritableOutput:
    @pytest.fixture
    def no_solve(self, monkeypatch):
        from vppopt import cli

        def fail(*args, **kwargs):
            raise AssertionError("solved before checking the output path")

        monkeypatch.setattr(cli, "run", fail)
        monkeypatch.setattr(cli, "sweep_profile_costs", fail)

    @pytest.mark.parametrize("argv", [
        lambda occupied, tmp: ["run", "--sessions", "dam", "--out", occupied],
        lambda occupied, tmp: SWEEP + ["--max", "10", "--out", occupied],
        lambda occupied, tmp: ["run", "--out", str(tmp / "r"),
                               "--dump-model", str(tmp / "missing" / "m.lp")],
    ], ids=["run-out-is-a-file", "sweep-out-is-a-file", "dump-model-dir-missing"])
    def test_exits_2_before_any_solve(self, toy_file, tmp_path, capsys, no_solve, argv):
        occupied = tmp_path / "occupied"
        occupied.write_text("")
        with pytest.raises(SystemExit) as err:
            main(argv(str(occupied), tmp_path) + ["--scenario", str(toy_file)])
        assert err.value.code == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cannot write output: ")


class TestModelBuildErrors:
    """Scenarios that pass validation but build a model with a non-finite
    number, or one that HiGHS refuses, exit 2 with one stderr line."""

    def _run(self, path, tmp_path, capsys, argv):
        assert main(["validate", "--scenario", str(path)]) == EXIT_OK
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(argv + ["--scenario", str(path), "--out", str(tmp_path / "r")])
        assert err.value.code == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cannot build model: ")
        return lines[0]

    def test_infinite_right_hand_side(self, tmp_path, capsys):
        doc = toy_doc()
        doc["calendar"]["dtHours"] = 2.0
        doc["demands"][0]["rampUp"] = 1.5e308  # times dtHours overflows
        path = _write(tmp_path, doc)
        line = self._run(path, tmp_path, capsys, ["run", "--sessions", "idm1"])
        assert "dem_rampup.load" in line and "non-finite rhs inf" in line

    def test_infinite_objective_coefficient(self, tmp_path, capsys):
        doc = toy_doc()
        doc["calendar"]["dtHours"] = 2.0
        doc["dres"][0]["variableCost"] = 1e308  # times dtHours overflows
        path = _write(tmp_path, doc)
        line = self._run(path, tmp_path, capsys, ["run", "--sessions", "dam"])
        assert "objective has non-finite coefficient -inf on dres_p.gen.t1" in line

    @pytest.mark.parametrize("argv", [
        ["run", "--sessions", "dam"],
        ["run", "--sessions", "dam", "--mode", "nocoord"],
        ["sweep", "--demand", "industrial", "--profile", "early_shift", "--max", "10"],
    ], ids=["run", "nocoord", "sweep"])
    def test_infinite_coefficient(self, tmp_path, capsys, argv):
        doc = json.loads((SCENARIO_DIR / "clear.json").read_text())
        doc["calendar"]["dtHours"] = 2.0
        doc["stu"][0]["dischargeEff"] = 1e-308  # dt / dischargeEff overflows
        path = _write(tmp_path, doc)
        line = self._run(path, tmp_path, capsys, argv)
        assert "stu_ebal.csp" in line and "non-finite coefficient inf" in line

    def test_coefficient_highs_refuses(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "clear.json").read_text())
        l1 = next(line for line in doc["network"]["lines"] if line["id"] == "l1")
        l1["susceptance"] = 1e16  # finite, so the file validates
        path = _write(tmp_path, doc)
        line = self._run(path, tmp_path, capsys, ["run", "--sessions", "dam"])
        assert line == "cannot build model: HiGHS refused the model (largest |coefficient| 1e+16)"


class TestReportDirectory:
    """A command that exits before writing anything leaves no empty report
    directory behind, but never removes one that was there already."""

    def _overflowing(self, tmp_path):
        doc = toy_doc()
        doc["calendar"]["dtHours"] = 2.0
        doc["dres"][0]["variableCost"] = 1e308  # times dtHours overflows
        return _write(tmp_path, doc)

    def test_build_error_removes_the_directory_it_made(self, tmp_path, capsys):
        out = tmp_path / "r"
        with pytest.raises(SystemExit) as err:
            main(["run", "--scenario", str(self._overflowing(tmp_path)), "--out", str(out),
                  "--dump-model", str(tmp_path / "m.lp")])
        assert err.value.code == EXIT_USAGE
        assert "cannot build model: " in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "m.lp").exists()

    def test_build_error_keeps_an_existing_directory(self, tmp_path, capsys):
        out = tmp_path / "r"
        out.mkdir()
        with pytest.raises(SystemExit) as err:
            main(["run", "--scenario", str(self._overflowing(tmp_path)), "--out", str(out)])
        assert err.value.code == EXIT_USAGE
        assert out.is_dir()

    def test_missing_parents_go_too(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", str(self._overflowing(tmp_path)),
                  "--out", str(tmp_path / "a" / "b" / "r")])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["case.json"]

    def test_unknown_sweep_demand(self, toy_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", str(toy_file), "--demand", "ghost",
                     "--profile", "shift", "--max", "10", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "ghost" in capsys.readouterr().err
        assert not out.exists()


class TestConsoleScript:
    def test_installed_entry_point(self, toy_file):
        # the child finds vppopt where this suite does, installed or not
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "vppopt.cli", "validate",
                               "--scenario", str(toy_file)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "ok" in proc.stdout


class TestClosedStdout:
    """A reader that closes stdout early (``vppopt run ... | head -1``)
    costs the command its remaining stdout lines and nothing else: the
    same exit code, the same stderr, and no traceback."""

    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    @pytest.mark.parametrize("command, code, err_line", [
        (["validate"], EXIT_OK, None),
        (["run", "--sessions", "dam"], EXIT_OK, None),
        (["run", "--sessions", "dam", "--time-limit", "1e-9"], EXIT_SOLVER,
         "run stopped at dam: time_limit"),
    ], ids=["validate", "run-dam", "run-dam-time-limit"])
    def test_exit_code_and_stderr_survive(self, tmp_path, buffering, command, code,
                                          err_line):
        argv = [*command, "--scenario", str(SCENARIO_DIR / "clear.json")]
        if command[0] == "run":
            argv += ["--out", str(tmp_path / "r")]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               "PYTHONUNBUFFERED": "1" if buffering == "unbuffered" else ""}
        proc = subprocess.Popen([sys.executable, "-m", "vppopt.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=env)
        proc.stdout.close()  # long before the child's first print
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == code
        assert "Traceback" not in err and "BrokenPipeError" not in err
        assert err_line is None or err_line in err.splitlines()
        if command == ["run", "--sessions", "dam"]:
            assert (tmp_path / "r" / "verify.json").is_file()
