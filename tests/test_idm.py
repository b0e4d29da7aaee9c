"""Intraday sessions: adjustments, receding window, ledger bookkeeping."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import SCENARIO_DIR, TOY_DAM_OBJECTIVE, make_scenario, row, series, toy_doc
from vppopt.dam import DEM_P, DEM_U, DRES_P, DRES_U, NDRES_P, assemble_dam
from vppopt.idm import (
    DRES_DP,
    IDM_TRADE,
    apply_idm,
    assemble_idm,
    ledger_from_dam,
)
from vppopt.milp import BINARY, Solution, dump_lp, solve, verify
from vppopt.orchestrator import run
from vppopt.scenario import load_scenario

T3 = (1, 2, 3)


def _dam_ledger(s):
    model, reg = assemble_dam(s)
    sol = solve(model)
    assert sol.status == "optimal"
    return ledger_from_dam(s, reg, sol)


def _cumulative_trades(ledger):
    return [ledger.cumulative_trade(t) for t in range(1, len(ledger.trades[0]) + 1)]


def _registered(reg, role, entity, t):
    try:
        reg.id(role, entity, t)
    except KeyError:
        return False
    return True


def _solved_session(s, ledger, k):
    model, reg = assemble_idm(s, ledger, k)
    sol = solve(model)
    assert sol.status == "optimal"
    assert verify(model, sol) == []
    return model, reg, sol


class TestSessionAdjustments:
    def test_no_news_no_flexibility_means_no_trades(self, toy_zero_tol):
        # session prices and forecasts repeat the day-ahead information
        # and the band is collapsed: nothing is left to re-optimize
        ledger = _dam_ledger(toy_zero_tol)
        _, reg, sol = _solved_session(toy_zero_tol, ledger, 1)
        assert abs(sol.objective) <= 1e-6
        trades = series(reg, sol.values, IDM_TRADE, "vpp", T3)
        assert np.allclose(trades, 0.0, atol=1e-6)

    def test_band_arbitrage_on_the_price_spread(self, toy):
        """A 25% band around the flat 2 MW profile lets the demand buy
        half a megawatt at 20 and hand it back at 40: exactly +10."""
        ledger = _dam_ledger(toy)
        _, reg, sol = _solved_session(toy, ledger, 1)
        assert abs(sol.objective - 10.0) <= 1e-6
        dem = series(reg, sol.values, DEM_P, "load", T3)
        assert np.allclose(dem, [2.0, 2.5, 1.5], atol=1e-6)
        trades = series(reg, sol.values, IDM_TRADE, "vpp", T3)
        assert np.allclose(trades, [0.0, -0.5, 0.5], atol=1e-6)

    def test_wind_shortfall_is_bought_back(self, toy_zero_tol):
        # the session sees 1 MW of wind in period 2 instead of 6; with a
        # rigid demand and the unit already maxed, 5 MW are repurchased
        # at the session price of 20: objective exactly -100
        doc = toy_doc()
        doc["demands"][0]["tolLo"] = 0.0
        doc["demands"][0]["tolHi"] = 0.0
        doc["forecasts"]["idm"][0]["ndresAvail"]["wind"] = [4.0, 1.0, 5.0]
        s = make_scenario(doc)
        ledger = _dam_ledger(s)
        _, reg, sol = _solved_session(s, ledger, 1)
        assert abs(sol.objective - (-100.0)) <= 1e-6
        trades = series(reg, sol.values, IDM_TRADE, "vpp", T3)
        assert np.allclose(trades, [0.0, -5.0, 0.0], atol=1e-6)
        after = apply_idm(ledger, s, reg, sol)
        assert len(after.trades) == 2
        assert np.allclose(after.trades[1], [0.0, -5.0, 0.0], atol=1e-6)
        assert np.allclose(_cumulative_trades(after), [12.0, 9.0, 13.0],
                           atol=1e-6)
        wind = series(reg, sol.values, NDRES_P, "wind", T3)
        assert np.allclose(wind, [4.0, 1.0, 5.0], atol=1e-6)

    def test_infeasible_session_is_reported_as_such(self):
        # islanded portfolio: the day-ahead plan covers the load with
        # wind, but the session forecast removes it and the dispatchable
        # unit cannot run as low as the load with nowhere to export
        doc = toy_doc()
        doc["network"]["tradeCap"] = {"b1": 0.0}
        doc["dres"][0]["pMin"] = 3.0
        doc["demands"][0]["tolLo"] = 0.0
        doc["demands"][0]["tolHi"] = 0.0
        doc["forecasts"]["idm"][0]["ndresAvail"]["wind"] = [0.0, 0.0, 0.0]
        s = make_scenario(doc)
        ledger = _dam_ledger(s)
        model, _ = assemble_idm(s, ledger, 1)
        assert solve(model).status == "infeasible"


class TestRecedingWindow:
    def _two_session_scenario(self):
        doc = toy_doc()
        doc["calendar"]["sessions"].append(
            {"tau": 2, "prices": [20.0, 40.0]})
        doc["forecasts"]["idm"].append({
            "ndresAvail": {"wind": [6.0, 5.0]}, "stuAvail_th": {}})
        return make_scenario(doc)

    def test_settled_periods_have_no_variables(self):
        s = self._two_session_scenario()
        ledger = _dam_ledger(s)
        _, reg = assemble_idm(s, ledger, 2)
        assert not _registered(reg, IDM_TRADE, "vpp", 1)
        assert not _registered(reg, DEM_P, "load", 1)
        assert not _registered(reg, DRES_P, "gen", 1)
        assert _registered(reg, IDM_TRADE, "vpp", 2)

    def test_ramps_stitch_to_the_settled_schedule(self):
        s = self._two_session_scenario()
        ledger = _dam_ledger(s)
        model, reg = assemble_idm(s, ledger, 2)
        coeffs, sense, rhs, _ = row(model, "dem_rampup.load.t2")
        assert coeffs == {reg.id(DEM_P, "load", 2): 1.0}
        assert sense == "<="
        assert rhs == 2.0 + 10.0  # settled draw plus one period of ramp
        _, sense_dn, rhs_dn, _ = row(model, "dem_rampdn.load.t2")
        assert sense_dn == ">="
        assert rhs_dn == 2.0 - 10.0

    def test_minimum_energy_nets_out_consumed_periods(self):
        s = self._two_session_scenario()
        ledger = _dam_ledger(s)
        model, reg = assemble_idm(s, ledger, 2)
        coeffs, sense, rhs, _ = row(model, "dem_minenergy.load")
        assert sense == ">="
        assert rhs == 6.0 - 2.0  # 2 MWh already consumed in period 1
        assert set(coeffs) == {reg.id(DEM_P, "load", 2), reg.id(DEM_P, "load", 3)}

    def test_cumulative_position_anchors_the_session(self):
        s = self._two_session_scenario()
        ledger = _dam_ledger(s)
        model, _ = assemble_idm(s, ledger, 2)
        _, sense, rhs, _ = row(model, "idm_cum_def.t3")
        assert sense == "=="
        assert rhs == ledger.cumulative_trade(3)

    def test_dispatch_delta_measured_from_previous_plan(self):
        s = self._two_session_scenario()
        ledger = _dam_ledger(s)
        model, reg = assemble_idm(s, ledger, 2)
        coeffs, sense, rhs, _ = row(model, "dres_delta.gen.t2")
        assert sense == "=="
        assert rhs == -ledger.schedules[DRES_P, "gen"][1]
        assert coeffs[reg.id(DRES_DP, "gen", 2)] == 1.0
        assert coeffs[reg.id(DRES_P, "gen", 2)] == -1.0


class TestLedger:
    def test_seeded_from_day_ahead(self, toy):
        ledger = _dam_ledger(toy)
        assert len(ledger.trades) == 1
        assert np.allclose(ledger.trades[0], [12.0, 14.0, 13.0], atol=1e-6)
        assert ledger.selected_profiles == {"load": "flat"}
        assert ledger.schedules[DRES_U, "gen"] == (1, 1, 1)
        assert _cumulative_trades(ledger) == list(ledger.trades[0])

    def test_objectives_add_up_across_sessions(self, toy):
        result = run(toy)
        assert result.profits == {
            r.key: r.objective for r in result.sessions}
        assert abs(result.profits["dam"] - TOY_DAM_OBJECTIVE) <= 1e-6
        assert abs(result.total_profit - sum(r.objective for r in result.sessions)) <= 1e-9
        after = result.ledger
        assert len(after.trades) == 2
        assert np.allclose(
            _cumulative_trades(after),
            np.array(after.trades[0]) + np.array(after.trades[1]),
            atol=1e-12)

    def test_sessions_never_touch_settled_periods(self):
        doc = toy_doc()
        doc["calendar"]["sessions"].append(
            {"tau": 2, "prices": [20.0, 40.0]})
        doc["forecasts"]["idm"].append({
            "ndresAvail": {"wind": [6.0, 5.0]}, "stuAvail_th": {}})
        s = make_scenario(doc)
        ledger = _dam_ledger(s)
        _, reg, sol = _solved_session(s, ledger, 1)
        ledger = apply_idm(ledger, s, reg, sol)
        _, reg, sol = _solved_session(s, ledger, 2)
        after = apply_idm(ledger, s, reg, sol)
        assert len(after.trades) == 3
        assert after.trades[2][0] == 0.0
        for key in ((DEM_P, "load"), (DRES_P, "gen"), (NDRES_P, "wind")):
            assert after.schedules[key][0] == ledger.schedules[key][0]

    def test_requires_an_assignment(self, toy):
        model, reg = assemble_dam(toy)
        with pytest.raises(ValueError, match="no assignment"):
            ledger_from_dam(toy, reg, Solution(status="infeasible"))
        ledger = _dam_ledger(toy)
        with pytest.raises(ValueError, match="no assignment"):
            apply_idm(ledger, toy, reg, Solution(status="infeasible"))

    def test_rejects_ambiguous_profile_selection(self, toy):
        model, reg = assemble_dam(toy)
        sol = solve(model)
        x = list(sol.values)
        x[reg.id(DEM_U, "load/flat")] = 0.0
        x[reg.id(DEM_U, "load/shift")] = 0.0
        broken = dataclasses.replace(sol, values=tuple(x))
        with pytest.raises(ValueError, match="selected 0 profiles"):
            ledger_from_dam(toy, reg, broken)


class TestFormulationPin:
    """The assembled models of the shipped days, pinned.

    A refactor of the stage builders must leave every model unchanged:
    the day-ahead and every session's LP text byte for byte, and each
    clear-day session's size. Session models are assembled on the ledger
    of the day-ahead model's zero assignment with every demand on its
    default profile, so they do not depend on solver values.
    """

    DAM_LP_SHA256 = {
        "clear": "f17b9f1d84c12d6b2f7a3e41766ad28e586ce027658246d51f58300744ac559c",
        "cloudy": "07eb79b4c5fdce675ec574eb0862b21113b73e824265a93c412e6c6e401a88ee",
    }
    IDM_LP_SHA256 = {
        "clear": {
            1: "48cc5cbe2b176f3730bc06d641e969968a2201e682fe829067fa22d47ab1ae82",
            2: "49d8f17b408d06b1ef9f39dd73d6380c9666a046f84e14ab790da17fe9e4f45e",
            3: "992bed6105df7d3e320635c96664b66bb5f5b652da39e99b18cb4233333b7f29",
            4: "ccb639bce7041988c2729312249d834c62dcb58fdce3e465f9243e2f3bd095f4",
            5: "557c376db60fb38718763d14c00f7a625c61361e1bb14db2e4841335bc7224b3",
            6: "9f4b14ca33fafed4d2f685f2e77ab15caed62623209beeb93117cdd47173fdda",
            7: "f9045224e1f7de7b2a0c274098bcb408e1a134a10eda07e9910102d0ff354bdc",
        },
        "cloudy": {
            1: "2d1a26b6863819acc507bac5bed3240096bfb433f1b28c67da2a2e48f0fd0fc2",
            2: "35b2236e943c281f65d2150dc84237ada99dcf92a47236e05d43208e49b1e212",
            3: "42d8d3dda4c099f1e1024b37152cf47639ade0d3b520965788b256a28e65872a",
            4: "f7b0cfd367a417083199075c9e693beb1cf05dd29824ca5661df67938e9b6a54",
            5: "7383bc7bbe4680905ed00c83764b1f3ba284d4bb58a15a285c7ed296f11b3dde",
            6: "ad5359dab1e2da137641063a678abbfdf4b3298d6f29cfc1a35813848dd241be",
            7: "f52cde85dab9e8b4d8b80f7558dcf7b8ac3832c22132dfc8e875695a4772898a",
        },
    }
    # (n_vars, n_constraints, binaries) per clear-day session
    CLEAR_SESSION_SIZES = {
        1: (1464, 1463, 96),
        2: (1464, 1463, 96),
        3: (1220, 1225, 80),
        4: (1037, 1042, 68),
        5: (793, 798, 52),
        6: (549, 554, 36),
        7: (244, 249, 16),
    }

    @staticmethod
    def _shipped(name):
        return load_scenario(SCENARIO_DIR / f"{name}.json")

    @staticmethod
    def _default_ledger(s):
        model, reg = assemble_dam(s)
        x = np.zeros(model.n_vars)
        for d in s.demands:
            x[reg.id(DEM_U, f"{d.id}/{d.default_profile().id}")] = 1.0
        return ledger_from_dam(s, reg, Solution("feasible", 0.0, x))

    @pytest.mark.parametrize("name", ["clear", "cloudy"])
    def test_day_ahead_lp_text(self, name):
        model, _ = assemble_dam(self._shipped(name))
        digest = hashlib.sha256(dump_lp(model).encode()).hexdigest()
        assert digest == self.DAM_LP_SHA256[name]

    @pytest.mark.parametrize("name", ["clear", "cloudy"])
    def test_intraday_lp_text(self, name):
        s = self._shipped(name)
        ledger = self._default_ledger(s)
        digests = {}
        for k in range(1, len(s.calendar.sessions) + 1):
            model, _ = assemble_idm(s, ledger, k)
            digests[k] = hashlib.sha256(dump_lp(model).encode()).hexdigest()
        assert digests == self.IDM_LP_SHA256[name]

    def test_clear_session_sizes(self):
        s = self._shipped("clear")
        ledger = self._default_ledger(s)
        sizes = {}
        for k in range(1, len(s.calendar.sessions) + 1):
            model, _ = assemble_idm(s, ledger, k)
            binaries = model.kind.count(BINARY)
            sizes[k] = (model.n_vars, model.n_constraints, binaries)
        assert sizes == self.CLEAR_SESSION_SIZES
