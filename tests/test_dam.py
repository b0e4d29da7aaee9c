"""Day-ahead model: objective, trade bounds, network physics, commitment."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import (
    TOY_DAM_OBJECTIVE,
    enumerate_dam_optimum,
    make_scenario,
    row,
    series,
    toy_doc,
)
from vppopt.dam import (
    ANGLE,
    DEM_U,
    DRES_C0,
    DRES_C1,
    DRES_P,
    DRES_U,
    FLOW,
    TRADE_BUS,
    TRADE_DAM,
    assemble_dam,
    reference_bus,
    trade_lower_bounds,
    trade_upper_bound,
)
from vppopt.milp import solve, verify
from vppopt.synth import random_seller_scenario

T3 = (1, 2, 3)


def _solved(s):
    model, reg = assemble_dam(s)
    sol = solve(model)
    assert sol.status == "optimal"
    assert verify(model, sol) == []
    return model, reg, sol


class TestToyDayAhead:
    """Two-bus toy with one dispatchable unit, one wind plant, one demand.

    Hand tally at prices (30, 20, 40): wind sells 4/6/5 MW for 440; the
    unit runs full out all day for (20+10+30)*10 minus the 7 startup,
    593; the flat profile consumes 2 MW worth 180 of forgone sales.
    Total 853.
    """

    def test_objective_matches_hand_tally(self, toy):
        _, _, sol = _solved(toy)
        assert abs(sol.objective - TOY_DAM_OBJECTIVE) <= 1e-6

    def test_flat_profile_chosen(self, toy):
        _, reg, sol = _solved(toy)
        assert sol.values[reg.id(DEM_U, "load/flat")] > 0.5
        assert sol.values[reg.id(DEM_U, "load/shift")] < 0.5

    def test_traded_power_by_period(self, toy):
        _, reg, sol = _solved(toy)
        trade = series(reg, sol.values, TRADE_DAM, "vpp", T3)
        assert np.allclose(trade, [12.0, 14.0, 13.0], atol=1e-6)

    def test_startup_cost_charged_once(self, toy):
        _, reg, sol = _solved(toy)
        c1 = series(reg, sol.values, DRES_C1, "gen", T3)
        c0 = series(reg, sol.values, DRES_C0, "gen", T3)
        assert np.allclose(c1, [7.0, 0.0, 0.0], atol=1e-6)
        assert np.allclose(c0, 0.0, atol=1e-6)

    def test_initially_committed_unit_skips_the_startup(self):
        doc = toy_doc()
        doc["dres"][0]["initialCommitment"] = "on"
        _, _, sol = _solved(make_scenario(doc))
        assert abs(sol.objective - (TOY_DAM_OBJECTIVE + 7.0)) <= 1e-6


class TestBruteForceEnumeration:
    """Exhaustive reference on a one-bus horizon of three periods.

    All 2^3 commitment patterns of the single dispatchable unit, crossed
    with both demand profiles, each solved as a residual LP; the best of
    the 16 must equal the branch-and-bound answer.
    """

    def _doc(self, late_power=(2.0, 3.0, 4.0)):
        return {
            "name": "brute",
            "network": {"buses": ["b1"], "mainGridBuses": ["b1"],
                        "lines": [], "tradeCap": {"b1": 100.0}},
            "dres": [{"id": "gen", "bus": "b1", "pMin": 2.0, "pMax": 8.0,
                      "variableCost": 12.0, "startupCost": 5.0,
                      "shutdownCost": 4.0, "initialCommitment": "off"}],
            "ndres": [], "stu": [],
            "demands": [{"id": "load", "bus": "b1", "profiles": [
                {"id": "steady", "power": [3.0, 3.0, 3.0], "cost": 0.0,
                 "default": True},
                {"id": "late", "power": list(late_power), "cost": 6.0,
                 "default": False},
            ], "minEnergy": 8.0, "tolLo": 0.2, "tolHi": 0.2,
                "rampDown": 50.0, "rampUp": 50.0}],
            "calendar": {"T": 3, "dtHours": 1.0,
                         "damPrices": [30.0, 5.0, 45.0], "sessions": []},
            "forecasts": {"dam": {"ndresAvail": {}, "stuAvail_th": {}},
                          "idm": []},
        }

    def test_solver_meets_the_enumeration(self):
        s = make_scenario(self._doc())
        _, _, sol = _solved(s)
        assert abs(sol.objective - enumerate_dam_optimum(s)) <= 1e-6

    def test_solver_meets_the_enumeration_with_binding_purchase_caps(self):
        # a late profile drawing less in period 2 caps purchases there
        # and knocks out every pattern that idles the unit mid-day
        s = make_scenario(self._doc(late_power=(2.0, 2.0, 5.0)))
        _, _, sol = _solved(s)
        assert abs(sol.objective - enumerate_dam_optimum(s)) <= 1e-6

    def test_hand_tally_of_the_best_pattern(self):
        # on-off-on with the steady profile: (150-96-5) - (15+4) + (225-96-5)
        s = make_scenario(self._doc())
        _, _, sol = _solved(s)
        assert abs(sol.objective - 154.0) <= 1e-6


class TestTradeBounds:
    def test_bus_trade_capped_by_published_capacity(self, toy):
        model, reg, _ = _solved(toy)
        var = reg.id(TRADE_BUS, "b1", 1)
        lb, ub = model.lb[var], model.ub[var]
        assert (lb, ub) == (-50.0, 50.0)

    def test_sale_cap_row(self, toy):
        model, _ = assemble_dam(toy)
        coeffs, sense, rhs, _ = row(model, "trade_hi.t1")
        assert sense == "<="
        assert rhs == 10.0 + 4.0  # unit rating plus wind availability

    def test_purchase_cap_rows_per_profile_position(self, toy):
        model, _ = assemble_dam(toy)
        _, sense0, rhs0, _ = row(model, "trade_lo.p0.t3")
        _, sense1, rhs1, _ = row(model, "trade_lo.p1.t3")
        assert sense0 == sense1 == ">="
        assert rhs0 == -2.0  # flat profile draws 2 MW in period 3
        assert rhs1 == -3.0  # shifted profile draws 3 MW there

    def test_bound_helpers_cover_storage_and_missing_positions(self, toy):
        assert trade_upper_bound(toy, {"wind": 6.0}) == 16.0
        assert trade_lower_bounds(toy, 1) == [(0, -2.0), (1, -1.0)]

    def test_purchase_caps_hold_for_every_position_at_once(self):
        # the published caps are relaxation bounds: each profile position
        # yields one, and all of them bind regardless of the chosen
        # profile. Forcing the unit off mid-day makes the steady profile
        # need 3 MW of imports, but the other profile's 2 MW draw caps
        # purchases, so the pattern is infeasible rather than expensive.
        doc = TestBruteForceEnumeration()._doc(late_power=(2.0, 2.0, 5.0))
        s = make_scenario(doc)
        model, reg = assemble_dam(s)
        model.set_bounds(reg.id(DRES_U, "gen", 2), lb=0.0, ub=0.0)
        model.set_bounds(reg.id(DEM_U, "load/steady"), lb=1.0, ub=1.0)
        model.set_bounds(reg.id(DEM_U, "load/late"), lb=0.0, ub=0.0)
        assert solve(model).status == "infeasible"


class TestNetworkPhysics:
    def test_reference_angle_pinned(self, toy):
        model, reg, _ = _solved(toy)
        assert reference_bus(toy) == "b1"
        var = reg.id(ANGLE, "b1", 2)
        assert (model.lb[var], model.ub[var]) == (0.0, 0.0)

    def test_flow_follows_angle_difference(self, toy):
        _, reg, sol = _solved(toy)
        x = sol.values
        for t in T3:
            f = x[reg.id(FLOW, "l1", t)]
            gap = x[reg.id(ANGLE, "b1", t)] - x[reg.id(ANGLE, "b2", t)]
            assert abs(f - 10.0 * gap) <= 1e-9

    def test_flow_carries_the_remote_surplus(self, toy):
        _, reg, sol = _solved(toy)
        flows = series(reg, sol.values, FLOW, "l1", T3)
        # all generation sits at b2, so the line runs at minus the export
        assert np.allclose(flows, [-12.0, -14.0, -13.0], atol=1e-6)

    def test_binding_flow_limit_cuts_the_objective(self):
        doc = toy_doc()
        doc["network"]["lines"][0]["flowLimit"] = 8.0
        _, reg, sol = _solved(make_scenario(doc))
        flows = series(reg, sol.values, FLOW, "l1", T3)
        assert np.allclose(np.abs(flows), 8.0, atol=1e-6)
        assert sol.objective < TOY_DAM_OBJECTIVE

    def test_forced_output_behind_tight_line_is_infeasible(self):
        doc = toy_doc()
        doc["network"]["lines"][0]["flowLimit"] = 1.0
        doc["ndres"][0]["pMin"] = [4.0, 6.0, 5.0]  # wind may not curtail
        doc["dres"][0]["initialCommitment"] = "off"
        model, _ = assemble_dam(make_scenario(doc))
        assert solve(model).status == "infeasible"

    def test_missing_main_grid_bus_rejected(self):
        doc = toy_doc()
        doc["network"]["mainGridBuses"] = []
        doc["network"]["tradeCap"] = {}
        with pytest.raises(ValueError, match="main-grid"):
            reference_bus(make_scenario(doc))


class TestProfileEconomics:
    def test_cheaper_profile_wins_when_free(self):
        doc = toy_doc()
        doc["calendar"]["damPrices"] = [40.0, 20.0, 30.0]
        doc["calendar"]["sessions"][0]["prices"] = [40.0, 20.0, 30.0]
        # shifted consumption is now worth 170 against 180 flat
        _, reg, sol = _solved(make_scenario(doc))
        assert sol.values[reg.id(DEM_U, "load/shift")] > 0.5

    def test_switch_fee_tips_the_choice(self):
        doc = toy_doc()
        doc["calendar"]["damPrices"] = [40.0, 20.0, 30.0]
        doc["calendar"]["sessions"][0]["prices"] = [40.0, 20.0, 30.0]
        doc["demands"][0]["profiles"][1]["cost"] = 15.0
        base = _solved(make_scenario(doc))[2]
        doc["demands"][0]["profiles"][1]["cost"] = 4.0
        _, reg, cheap = _solved(make_scenario(doc))
        assert cheap.values[reg.id(DEM_U, "load/shift")] > 0.5
        # the 10 gained on sales nets against the 4 fee
        assert abs(cheap.objective - (base.objective + 6.0)) <= 1e-6

    def test_exactly_one_profile_selected(self, toy):
        model, _ = assemble_dam(toy)
        coeffs, sense, rhs, _ = row(model, "dem_one.load")
        assert sense == "==" and rhs == 1.0
        assert len(coeffs) == 2


class TestDegenerateScenarios:
    def test_empty_portfolio_trades_nothing(self):
        doc = toy_doc()
        doc["dres"] = []
        doc["ndres"] = []
        doc["demands"] = []
        doc["forecasts"] = {"dam": {"ndresAvail": {}, "stuAvail_th": {}},
                            "idm": [{"ndresAvail": {}, "stuAvail_th": {}}]}
        _, reg, sol = _solved(make_scenario(doc))
        assert abs(sol.objective) <= 1e-9
        assert np.allclose(series(reg, sol.values, TRADE_DAM, "vpp", T3), 0.0,
                           atol=1e-9)


class TestRegistry:
    def test_keys_name_fresh_columns_once(self, toy):
        model, reg = assemble_dam(toy)
        n = model.n_vars
        with pytest.raises(KeyError, match="already registered"):
            reg.new(model, DRES_P, "gen", 1)
        assert model.n_vars == n  # a refused key adds no column
        var = reg.new(model, DRES_P, "gen", 4, lb=1.0, ub=2.0)
        assert (var, reg.id(DRES_P, "gen", 4)) == (n, n)
        assert ((model.lb[var], model.ub[var]) == (1.0, 2.0)
                and model.var_name(var) == "dres_p.gen.t4")


class TestPriceMonotonicity:
    def test_uniform_price_lift_never_hurts_a_seller(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            s = random_seller_scenario(rng)
            base = solve(assemble_dam(s)[0])
            lifted_cal = dataclasses.replace(
                s.calendar,
                dam_prices=tuple(p + 10.0 for p in s.calendar.dam_prices))
            lifted = solve(assemble_dam(dataclasses.replace(s, calendar=lifted_cal))[0])
            assert base.status == lifted.status == "optimal"
            assert lifted.objective >= base.objective - 1e-9
