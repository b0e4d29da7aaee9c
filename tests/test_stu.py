"""Solar-thermal unit: conversion curve, storage dynamics, power block."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import SCENARIO_DIR, eval_pb_oracle, make_scenario, row, series
from vppopt.dam import assemble_dam
from vppopt.milp import BINARY, CONTINUOUS, reformulate_sos2_as_binary, solve, verify
from vppopt.scenario import load_scenario
from vppopt.stu import (
    CHG,
    DIS,
    ENERGY,
    PB_ON,
    PB_START,
    POWER,
    PPB,
    PSF,
    PbCurve,
    pb_curve,
)
from vppopt.synth import random_stu_scenario

PERIODS_2 = (1, 2)


def _stu_scenario(prices, avail, **overrides):
    """One-bus scenario holding a single solar-thermal unit."""
    unit = {
        "id": "csp", "bus": "b1",
        "pbMin_th": 20.0, "pbMax_th": 100.0,
        "pbBreak1_th": 40.0, "pbBreak2_th": 70.0,
        "eta1": 0.25, "eta2": 0.30, "eta3": 0.35, "eta4": 0.40,
        "startupLossFactor": 0.0,
        "chargeMin_th": 0.0, "chargeMax_th": 100.0,
        "dischargeMin_th": 0.0, "dischargeMax_th": 100.0,
        "chargeEff": 1.0, "dischargeEff": 1.0,
        "storageCap_th": 200.0, "storageFloor_th": 0.0,
        "endAlphaLo": 0.0, "endAlphaHi": 1.0,
        "initialEnergy_th": 0.0,
        "electricalMin": 0.0, "electricalMax": 100.0,
        "initialPbStatus": "on",
    }
    unit.update(overrides)
    doc = {
        "name": "stu-lab",
        "network": {"buses": ["b1"], "mainGridBuses": ["b1"],
                    "lines": [], "tradeCap": {"b1": 1000.0}},
        "dres": [], "ndres": [], "stu": [unit], "demands": [],
        "calendar": {"T": len(prices), "dtHours": 1.0,
                     "damPrices": list(prices), "sessions": []},
        "forecasts": {"dam": {"ndresAvail": {},
                              "stuAvail_th": {"csp": list(avail)}},
                      "idm": []},
    }
    return make_scenario(doc)


def _solved(s):
    model, reg = assemble_dam(s)
    sol = solve(model)
    assert sol.status == "optimal"
    assert verify(model, sol) == []
    return model, reg, sol


class TestConversionCurve:
    def test_segment_factors_met_at_grid_points(self):
        curve = pb_curve(load_scenario(SCENARIO_DIR / "clear.json").stu[0])
        assert curve.breakpoints == (0.0, 25.0, 62.5, 93.75, 125.0)
        assert curve.values == (0.0, 6.25, 19.375, 33.75, 50.0)

    def test_oracle_interpolates_between_grid_points(self):
        curve = pb_curve(_stu_scenario([10.0], [50.0]).stu[0])
        assert curve.values == (0.0, 5.0, 12.0, 24.5, 40.0)
        assert np.isclose(eval_pb_oracle(curve, 30.0), 5.0 + 0.5 * 7.0)
        assert eval_pb_oracle(curve, 0.0) == 0.0
        assert np.isclose(eval_pb_oracle(curve, 100.0), 40.0)

    def test_oracle_rejects_out_of_range_input(self):
        curve = pb_curve(_stu_scenario([10.0], [50.0]).stu[0])
        with pytest.raises(ValueError, match="outside"):
            eval_pb_oracle(curve, -1.0)
        with pytest.raises(ValueError, match="outside"):
            eval_pb_oracle(curve, 100.5)

    def test_curve_invariants_enforced(self):
        with pytest.raises(ValueError, match="align"):
            PbCurve((0.0, 1.0), (0.0,))
        with pytest.raises(ValueError, match="origin"):
            PbCurve((1.0, 2.0), (1.0, 2.0))
        with pytest.raises(ValueError, match="non-decreasing"):
            PbCurve((0.0, 2.0, 1.0), (0.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="non-decreasing"):
            PbCurve((0.0, 1.0, 2.0), (0.0, 2.0, 1.0))


class TestHandSolvedDispatch:
    """Two periods, field output 100 then 0, price 5 then 50.

    Conversion improves with block load (0.25 up to 0.40 at full input),
    so banking the whole cheap-hour field output and burning it at full
    load in the expensive hour beats any split: 100 th -> 40 MW at 50,
    i.e. an objective of 2000.
    """

    def test_objective_and_dispatch(self):
        s = _stu_scenario([5.0, 50.0], [100.0, 0.0])
        model, reg, sol = _solved(s)
        assert abs(sol.objective - 2000.0) <= 1e-6

        x = sol.values
        psf = series(reg, x, PSF, "csp", PERIODS_2)
        chg = series(reg, x, CHG, "csp", PERIODS_2)
        dis = series(reg, x, DIS, "csp", PERIODS_2)
        p = series(reg, x, POWER, "csp", PERIODS_2)
        assert np.allclose(psf, [100.0, 0.0], atol=1e-6)
        assert np.allclose(chg, [100.0, 0.0], atol=1e-6)
        assert np.allclose(dis, [0.0, 100.0], atol=1e-6)
        assert np.allclose(p, [0.0, 40.0], atol=1e-6)

    def test_storage_trace(self):
        s = _stu_scenario([5.0, 50.0], [100.0, 0.0])
        _, reg, sol = _solved(s)
        e = series(reg, sol.values, ENERGY, "csp", PERIODS_2)
        assert np.allclose(e, [100.0, 0.0], atol=1e-6)

    def test_flat_prices_prefer_immediate_full_load(self):
        # with no price spread the block should run straight off the field
        # whenever it can reach full load, avoiding the round trip
        s = _stu_scenario([40.0, 40.0], [100.0, 100.0],
                          chargeEff=0.9, dischargeEff=0.9)
        _, reg, sol = _solved(s)
        assert abs(sol.objective - 2 * 40.0 * 40.0) <= 1e-6
        chg = series(reg, sol.values, CHG, "csp", PERIODS_2)
        assert np.allclose(chg, 0.0, atol=1e-6)


class TestStorageDynamics:
    def test_balance_telescopes_to_initial_fill(self):
        s = _stu_scenario([5.0, 50.0, 30.0], [100.0, 40.0, 0.0],
                          chargeEff=0.9, dischargeEff=0.8,
                          initialEnergy_th=60.0)
        _, reg, sol = _solved(s)
        x = sol.values
        periods = range(1, 4)
        e = series(reg, x, ENERGY, "csp", periods)
        chg = series(reg, x, CHG, "csp", periods)
        dis = series(reg, x, DIS, "csp", periods)
        prev = 60.0
        for t in range(3):
            expected = prev + 0.9 * chg[t] - dis[t] / 0.8
            assert abs(e[t] - expected) <= 1e-9
            prev = e[t]

    def test_charging_needs_field_output(self):
        # nothing arrives from the field in period 1, so the loop cannot
        # charge even though the battery of the day sits nearly empty
        s = _stu_scenario([10.0, 10.0], [0.0, 80.0], initialEnergy_th=20.0)
        _, reg, sol = _solved(s)
        chg = series(reg, sol.values, CHG, "csp", PERIODS_2)
        assert chg[0] <= 1e-9

    def test_charge_and_discharge_exclude_each_other(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            s = random_stu_scenario(rng)
            _, reg, sol = _solved(s)
            a = s.stu[0]
            periods = range(1, s.n_periods + 1)
            chg = series(reg, sol.values, CHG, a.id, periods)
            dis = series(reg, sol.values, DIS, a.id, periods)
            assert np.all(np.minimum(chg, dis) <= 1e-6)

    def test_startup_burns_thermal_input(self):
        s = _stu_scenario([50.0, 50.0], [100.0, 100.0],
                          startupLossFactor=0.2, initialPbStatus="off")
        _, reg, sol = _solved(s)
        x = sol.values
        u = series(reg, x, PB_ON, "csp", PERIODS_2)
        v1 = series(reg, x, PB_START, "csp", PERIODS_2)
        # the indicator marks exactly the off-to-on edge
        prev = 0.0
        for t in range(2):
            assert abs(v1[t] - max(u[t] - prev, 0.0)) <= 1e-6
            prev = u[t]
        psf = np.asarray(series(reg, x, PSF, "csp", PERIODS_2))
        chg = np.asarray(series(reg, x, CHG, "csp", PERIODS_2))
        dis = np.asarray(series(reg, x, DIS, "csp", PERIODS_2))
        ppb = np.asarray(series(reg, x, PPB, "csp", PERIODS_2))
        loss = 0.2 * 100.0 * np.asarray(v1)
        assert np.allclose(ppb, psf + dis - chg - loss, atol=1e-6)
        assert v1[0] >= 0.5  # running is worth the one-off loss here

    def test_end_of_day_fill_window(self):
        s = _stu_scenario([100.0, 100.0], [0.0, 0.0],
                          initialEnergy_th=150.0, endAlphaLo=0.5)
        _, reg, sol = _solved(s)
        e = series(reg, sol.values, ENERGY, "csp", PERIODS_2)
        assert e[-1] >= 0.5 * 200.0 - 1e-6
        assert e[-1] <= 200.0 + 1e-6
        # half the stored heat stays reserved, the rest is sold
        dis = series(reg, sol.values, DIS, "csp", PERIODS_2)
        assert np.isclose(np.sum(dis), 50.0, atol=1e-6)


class TestConversionAtOptimum:
    def test_power_matches_oracle_when_committed(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            s = random_stu_scenario(rng)
            _, reg, sol = _solved(s)
            a = s.stu[0]
            curve = pb_curve(a)
            x = sol.values
            for t in range(1, s.n_periods + 1):
                on = x[reg.id(PB_ON, a.id, t)] > 0.5
                ppb = x[reg.id(PPB, a.id, t)]
                p = x[reg.id(POWER, a.id, t)]
                if on:
                    assert a.pb_min - 1e-6 <= ppb <= a.pb_max + 1e-6
                    assert abs(p - eval_pb_oracle(curve, ppb)) <= 1e-6
                else:
                    assert abs(ppb) <= 1e-6
                    assert abs(p) <= 1e-6


class TestModelStructure:
    def test_per_period_row_families(self):
        s = _stu_scenario([5.0, 50.0], [100.0, 0.0])
        model, _ = assemble_dam(s)
        names = {model.constraint_name(r) for r in range(model.n_constraints)}
        for family in ("chg_avail", "chg_cap", "chg_min", "dis_cap", "dis_min",
                       "pb_input", "ebal",
                       "start_lo", "start_prev", "start_on",
                       "conv_in", "conv_out", "conv_sum"):
            assert f"stu_{family}.csp.t1" in names
            assert f"stu_{family}.csp.t2" in names
        # the operating window follows from the weights summing to the
        # commitment, so it has no rows of its own
        for family in ("pb_hi", "pb_lo", "conv_origin"):
            assert not any(n.startswith(f"stu_{family}.") for n in names)
        assert "stu_end_lo.csp" in names
        assert "stu_end_hi.csp" in names
        assert any(n == "stu_sos2.csp.t1" for _, n in model.sos2_sets)

    def test_clear_day_segment_binaries(self):
        # three segment binaries per power-block period; a segment from
        # the origin would make it four, 201 binaries in all
        model, _ = assemble_dam(load_scenario(SCENARIO_DIR / "clear.json"))
        reformulated = reformulate_sos2_as_binary(model)
        binaries = reformulated.kind.count(BINARY)
        assert binaries == 177


class TestReachableHeat:
    """The conversion breakpoints are clipped at the most heat that can
    reach the block: the field's availability plus the discharge rating."""

    def test_block_held_off_below_its_minimum_load(self):
        # period 2: 5 from the field plus at most 10 from storage is below
        # pbMin = 20, so the block cannot run; at a price of 50, a build
        # that clipped the breakpoints but dropped the bound would run it
        # at 15 MW_th
        s = _stu_scenario([5.0, 50.0], [100.0, 5.0], dischargeMax_th=10.0)
        model, reg, sol = _solved(s)
        assert model.ub[reg.id(PB_ON, "csp", 1)] == 1.0
        assert model.ub[reg.id(PB_ON, "csp", 2)] == 0.0
        x = sol.values
        for role in (PB_ON, PPB, POWER):
            assert abs(x[reg.id(role, "csp", 2)]) <= 1e-9, role

    def test_breakpoints_clipped_onto_the_curve(self):
        # period 1: cap = 25 + 30 = 55 lies between the breaks at 40 and 70;
        # period 2: cap = 80 + 30 > pbMax, so the full curve stays
        s = _stu_scenario([10.0, 10.0], [25.0, 80.0], dischargeMax_th=30.0)
        model, reg = assemble_dam(s)
        curve = pb_curve(s.stu[0])
        w = [reg.id(f"stu_w{i}", "csp", 1) for i in range(1, 5)]
        conv_in, *_ = row(model, "stu_conv_in.csp.t1")
        conv_out, *_ = row(model, "stu_conv_out.csp.t1")
        clipped = [conv_in[wi] for wi in w]
        assert clipped == [20.0, 40.0, 55.0, 55.0]
        for wi, b in zip(w, clipped):
            assert abs(conv_out[wi] - eval_pb_oracle(curve, b)) <= 1e-9
        w = [reg.id(f"stu_w{i}", "csp", 2) for i in range(1, 5)]
        conv_in, *_ = row(model, "stu_conv_in.csp.t2")
        conv_out, *_ = row(model, "stu_conv_out.csp.t2")
        assert [conv_in[wi] for wi in w] == list(curve.breakpoints[1:])
        assert [conv_out[wi] for wi in w] == list(curve.values[1:])

    def test_clear_day_ahead_root_gap(self):
        # with every integrality relaxed and the SOS-2 sets dropped the
        # clear day-ahead lies 469 EUR above its optimum; it was 1,228 EUR
        # with the full curve offered in every period
        model, _ = assemble_dam(load_scenario(SCENARIO_DIR / "clear.json"))
        model.kind = [CONTINUOUS] * model.n_vars
        model.sos2_sets = []
        relaxed = solve(model)
        assert relaxed.status == "optimal"
        gap = relaxed.objective - TestOptimaPinned.SHIPPED["clear"]
        assert 0.0 <= gap <= 600.0


class TestOptimaPinned:
    """Day-ahead optima recorded with the origin weight still modelled.

    Dropping it removes no physical schedule, so no optimum may move.
    """

    SHIPPED = {"clear": 32197.799660000004, "cloudy": 18416.406600000002}
    RANDOM_SEED = 31
    RANDOM = (6458.455310737327, 7158.701559014535, 5207.212046999999,
              10856.530890395738, 4925.110112705896, 10272.388578449045,
              9765.315143121552, 13195.870931342643, 8221.455192344096,
              4332.845240101674)

    @pytest.mark.parametrize("name", ["clear", "cloudy"])
    def test_shipped_day_ahead(self, name):
        _, _, sol = _solved(load_scenario(SCENARIO_DIR / f"{name}.json"))
        expected = self.SHIPPED[name]
        assert abs(sol.objective - expected) <= 1e-6 * abs(expected)

    def test_random_units(self):
        rng = np.random.default_rng(self.RANDOM_SEED)
        for expected in self.RANDOM:
            _, _, sol = _solved(random_stu_scenario(rng))
            assert abs(sol.objective - expected) <= 1e-6 * abs(expected)
