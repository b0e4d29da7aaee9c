"""Intraday sessions: adjustments, receding window, ledger bookkeeping."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import SCENARIO_DIR, make_scenario, series, toy_doc
from vppopt.dam import DEM_P, DEM_U, DRES_P, NDRES_P, assemble_dam
from vppopt.idm import (
    DRES_DP,
    IDM_TRADE,
    apply_idm,
    assemble_idm,
    ledger_from_dam,
)
from vppopt.milp import BINARY, Solution, dump_lp, solve, verify
from vppopt.scenario import load_scenario

T3 = (1, 2, 3)


def _dam_ledger(s):
    model, reg = assemble_dam(s)
    sol = solve(model)
    assert sol.status == "optimal"
    return ledger_from_dam(s, reg, sol)


def _cumulative_trades(ledger):
    return [ledger.cumulative_trade(t) for t in range(1, len(ledger.dam_trade) + 1)]


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


def _row(model, name):
    for r in range(model.n_constraints):
        if model.constraint_name(r) == name:
            return model.constraints[r]
    raise AssertionError(f"no constraint named {name}")


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
        doc["forecasts"]["idm"]["1"]["ndresAvail"]["wind"] = [4.0, 1.0, 5.0]
        s = make_scenario(doc)
        ledger = _dam_ledger(s)
        _, reg, sol = _solved_session(s, ledger, 1)
        assert abs(sol.objective - (-100.0)) <= 1e-6
        trades = series(reg, sol.values, IDM_TRADE, "vpp", T3)
        assert np.allclose(trades, [0.0, -5.0, 0.0], atol=1e-6)
        after = apply_idm(ledger, s, 1, reg, sol)
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
        doc["forecasts"]["idm"]["1"]["ndresAvail"]["wind"] = [0.0, 0.0, 0.0]
        s = make_scenario(doc)
        ledger = _dam_ledger(s)
        model, _ = assemble_idm(s, ledger, 1)
        assert solve(model).status == "infeasible"


class TestRecedingWindow:
    def _two_session_scenario(self):
        doc = toy_doc()
        doc["calendar"]["sessions"].append(
            {"k": 2, "tau": 2, "prices": [20.0, 40.0]})
        doc["forecasts"]["idm"]["2"] = {
            "ndresAvail": {"wind": [6.0, 5.0]}, "stuAvail_th": {}}
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
        coeffs, sense, rhs, _ = _row(model, "dem_rampup.load.t2")
        assert coeffs == {reg.id(DEM_P, "load", 2): 1.0}
        assert sense == "<="
        assert rhs == 2.0 + 10.0  # settled draw plus one period of ramp
        _, sense_dn, rhs_dn, _ = _row(model, "dem_rampdn.load.t2")
        assert sense_dn == ">="
        assert rhs_dn == 2.0 - 10.0

    def test_minimum_energy_nets_out_consumed_periods(self):
        s = self._two_session_scenario()
        ledger = _dam_ledger(s)
        model, reg = assemble_idm(s, ledger, 2)
        coeffs, sense, rhs, _ = _row(model, "dem_minenergy.load")
        assert sense == ">="
        assert rhs == 6.0 - 2.0  # 2 MWh already consumed in period 1
        assert set(coeffs) == {reg.id(DEM_P, "load", 2), reg.id(DEM_P, "load", 3)}

    def test_cumulative_position_anchors_the_session(self):
        s = self._two_session_scenario()
        ledger = _dam_ledger(s)
        model, _ = assemble_idm(s, ledger, 2)
        _, sense, rhs, _ = _row(model, "idm_cum_def.t3")
        assert sense == "=="
        assert rhs == ledger.cumulative_trade(3)

    def test_dispatch_delta_measured_from_previous_plan(self):
        s = self._two_session_scenario()
        ledger = _dam_ledger(s)
        model, reg = assemble_idm(s, ledger, 2)
        coeffs, sense, rhs, _ = _row(model, "dres_delta.gen.t2")
        assert sense == "=="
        assert rhs == -ledger.dres_p["gen"][1]
        assert coeffs[reg.id(DRES_DP, "gen", 2)] == 1.0
        assert coeffs[reg.id(DRES_P, "gen", 2)] == -1.0


class TestLedger:
    def test_seeded_from_day_ahead(self, toy):
        ledger = _dam_ledger(toy)
        assert np.allclose(ledger.dam_trade, [12.0, 14.0, 13.0], atol=1e-6)
        assert ledger.idm_trades == {}
        assert ledger.selected_profiles == {"load": "flat"}
        assert ledger.dres_u["gen"] == (1, 1, 1)
        assert set(ledger.objectives) == {"dam"}
        assert abs(sum(ledger.objectives.values()) - 853.0) <= 1e-6

    def test_objectives_add_up_across_sessions(self, toy):
        ledger = _dam_ledger(toy)
        _, reg, sol = _solved_session(toy, ledger, 1)
        after = apply_idm(ledger, toy, 1, reg, sol)
        assert set(after.objectives) == {"dam", "idm1"}
        assert abs(sum(after.objectives.values())
                   - (ledger.objectives["dam"] + sol.objective)) <= 1e-9
        assert np.allclose(
            _cumulative_trades(after),
            np.array(after.dam_trade) + np.array(after.idm_trades[1]),
            atol=1e-12)

    def test_sessions_never_touch_settled_periods(self):
        doc = toy_doc()
        doc["calendar"]["sessions"].append(
            {"k": 2, "tau": 2, "prices": [20.0, 40.0]})
        doc["forecasts"]["idm"]["2"] = {
            "ndresAvail": {"wind": [6.0, 5.0]}, "stuAvail_th": {}}
        s = make_scenario(doc)
        ledger = _dam_ledger(s)
        _, reg, sol = _solved_session(s, ledger, 2)
        after = apply_idm(ledger, s, 2, reg, sol)
        assert after.idm_trades[2][0] == 0.0
        assert after.demand_p["load"][0] == ledger.demand_p["load"][0]
        assert after.dres_p["gen"][0] == ledger.dres_p["gen"][0]
        assert after.ndres_p["wind"][0] == ledger.ndres_p["wind"][0]

    def test_requires_an_assignment(self, toy):
        model, reg = assemble_dam(toy)
        with pytest.raises(ValueError, match="no assignment"):
            ledger_from_dam(toy, reg, Solution(status="infeasible"))
        ledger = _dam_ledger(toy)
        with pytest.raises(ValueError, match="no assignment"):
            apply_idm(ledger, toy, 1, reg, Solution(status="infeasible"))

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
        "clear": "92d871e8ac2158e21c528031168b2354be073b63c4e6db2779b885677e1e0575",
        "cloudy": "d3639d5ebaf6103aebbe90aae95d9b595d56edb8a29797fa8c14c349592f42f4",
    }
    IDM_LP_SHA256 = {
        "clear": {
            1: "aee30a819028c564609e33e261e2a35b75c683269e888817c7a6984e8f4948c1",
            2: "dca832bc49ca052f81cad05a3401e62d9e9f6d7d837166132755f27369e5760b",
            3: "f0df6ba31186026cd1e4bb727a929d222ef5aff19c37bfa1bcebe17aa6c9f764",
            4: "910aff9eccd3c0a7babc412de98d4243293b925f0264352f91c28dcac9e8c88e",
            5: "3cc5ce09c985f45d32578fd7dddde05689e14229b30eca22a87e4c7c8897747b",
            6: "41b3f065c8a60c793ae2996df30e61a0da090f5eef9b3b6b9af9f56196941deb",
            7: "27362dcf22dffba7085044d5615e6a2d95c72ed566ec91b3b6de284966ecaca3",
        },
        "cloudy": {
            1: "43cade02f1cc0e4197b744bc5f6d6c94003abecd771bd0dd831c410d38ad207b",
            2: "6df879b020b30a2c9ac1c57ce9fd9da9edafa78eeddb5fbb90cfb2d998e8e14a",
            3: "01de70fe0b2e74b588b68af44c45d25348273bf52ffcf5971fd09617acac0937",
            4: "d0e3d83f0ee1df8e90f064869a0b2ecd59fc1da649f0702fe3b9ab7ae8cb670d",
            5: "8d5b42ff4f66d7007f354696dd0545c4abe61d5bf61ccbe844d6d704d00029c1",
            6: "0fa9724d5470f5701e19a72959fbbed5b98132a4d7f2dacaf30092cb75fd5fa0",
            7: "5d9998f214922c7141f9f1dc85ff3bf3049e7a4d08ba43ec15d63b6ebf7a6c2b",
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
        for sess in s.calendar.sessions:
            model, _ = assemble_idm(s, ledger, sess.k)
            digests[sess.k] = hashlib.sha256(dump_lp(model).encode()).hexdigest()
        assert digests == self.IDM_LP_SHA256[name]

    def test_clear_session_sizes(self):
        s = self._shipped("clear")
        ledger = self._default_ledger(s)
        sizes = {}
        for sess in s.calendar.sessions:
            model, _ = assemble_idm(s, ledger, sess.k)
            binaries = model.kind.count(BINARY)
            sizes[sess.k] = (model.n_vars, model.n_constraints, binaries)
        assert sizes == self.CLEAR_SESSION_SIZES
