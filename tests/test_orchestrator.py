"""Pipeline: sequential runs, baseline aggregation, sweep, checkers."""

from __future__ import annotations

import dataclasses
import gc
import os
import threading
import time
import weakref

import numpy as np
import pytest

from conftest import SCENARIO_DIR, make_scenario, toy_doc
from vppopt.idm import LedgerState
from vppopt.orchestrator import (
    RunResult,
    SessionResult,
    check_aggregate_balance,
    check_demand_contracts,
    check_storage_conservation,
    chosen_profiles,
    passive_demand_profit,
    run,
    session_keys,
    single_asset_scenario,
    sweep_profile_costs,
    through,
)
from vppopt.scenario import load_scenario
from vppopt.stu import CHG, DIS, ENERGY
from vppopt.synth import random_seller_scenario, random_stu_scenario


def _priced_doc(prices=(40.0, 20.0, 30.0)):
    """Toy variant whose price shape makes the shifted profile save 10."""
    doc = toy_doc()
    doc["calendar"]["damPrices"] = list(prices)
    doc["calendar"]["sessions"][0]["prices"] = list(prices)
    return doc


def _pool_threads(n_assets: int) -> int:
    """Threads besides the caller that a baseline run of ``n_assets``
    generation assets may start: one per further core, at least one."""
    return max(min(os.cpu_count() or 1, n_assets) - 1, 1)


def _windy_toy(n_winds: int):
    """The toy with ``n_winds`` identical wind farms (``wind``, ``wind2``,
    ...): a baseline run walks ``gen`` first, then the farms in order."""
    doc = toy_doc()
    for i in range(2, n_winds + 1):
        doc["ndres"].append({"id": f"wind{i}", "bus": "b2", "pMin": 0.0})
        for forecast in [doc["forecasts"]["dam"], *doc["forecasts"]["idm"]]:
            forecast["ndresAvail"][f"wind{i}"] = list(forecast["ndresAvail"]["wind"])
    return make_scenario(doc)


def _asset(model_name: str) -> str:
    """The asset of a baseline run's model, named ``<session>[<day>:<asset>]``."""
    return model_name.rsplit(":", 1)[1].rstrip("]")


def _record_solves(monkeypatch, before=lambda model_name: None):
    """Patch the orchestrator's ``solve`` to note the thread and the model
    name of each call, then call ``before(model_name)`` and solve; the
    list of ``(thread, model_name)`` it appends to."""
    from vppopt import orchestrator

    seen = []
    solve = orchestrator.solve

    def recording_solve(model, options, start):
        seen.append((threading.current_thread(), model.name))  # not its ident: reused
        before(model.name)
        return solve(model, options, start)

    monkeypatch.setattr(orchestrator, "solve", recording_solve)
    return seen


def _untimed(result):
    """A run's sessions without their solve times, its ledgers and profits."""
    return ([dataclasses.replace(r, runtime_s=0.0) for r in result.sessions],
            result.ledger_history, result.recomputed_profits)


class TestConcurrently:
    """A baseline run steps its assets, and a sweep solves its held models,
    at the same time; the outcome is the sequential one."""

    def test_results_come_back_in_task_order(self, monkeypatch):
        s = _windy_toy(3)
        plain = run(s, "nocoord")
        pauses = {"gen": 0.15, "wind": 0.1, "wind2": 0.05, "wind3": 0.0}

        def stagger(name):  # the later an asset comes, the sooner its day-ahead is done
            if name.startswith("dam["):
                time.sleep(pauses[_asset(name)])

        seen = _record_solves(monkeypatch, stagger)
        assert _untimed(run(s, "nocoord")) == _untimed(plain)
        # the caller steps the first asset
        assert {t for t, name in seen if _asset(name) == "gen"} == {threading.current_thread()}

    def test_earliest_failing_task_raises_even_when_a_later_one_fails_first(
            self, monkeypatch):
        def fail(name):
            if _asset(name) == "gen":
                time.sleep(0.2)
                raise RuntimeError("earliest")
            raise RuntimeError("later")

        _record_solves(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="^earliest$"):
            run(_windy_toy(2), "nocoord")

    def test_a_single_task_runs_on_the_calling_thread(self, toy, monkeypatch):
        before = set(threading.enumerate())
        alive = []
        seen = _record_solves(monkeypatch, lambda name: alive.append(set(threading.enumerate())))
        assert run(single_asset_scenario(toy, "gen"), "nocoord").ok
        assert {t for t, _ in seen} == {threading.current_thread()}
        assert alive and all(threads == before for threads in alive)

    def test_no_tasks(self, monkeypatch):
        doc = toy_doc()
        doc["dres"] = []
        doc["ndres"] = []
        doc["forecasts"]["dam"]["ndresAvail"] = {}
        doc["forecasts"]["idm"][0]["ndresAvail"] = {}
        doc["demands"][0]["profiles"].pop()  # only the default profile is left
        s = make_scenario(doc)
        before = set(threading.enumerate())
        seen = _record_solves(monkeypatch)
        assert run(s, "nocoord").ok  # no generation asset to walk
        assert sweep_profile_costs(s) == []  # no profile to contest
        assert seen == []
        assert set(threading.enumerate()) == before

    def test_threads_stay_within_the_cores(self, monkeypatch):
        alive = []

        def hold(name):  # keeps each step busy, so they overlap
            alive.append(threading.active_count())
            time.sleep(0.02)

        before = threading.active_count()
        _record_solves(monkeypatch, hold)
        assert run(_windy_toy(4), "nocoord").ok
        assert len(alive) == 10
        assert max(alive) <= before + _pool_threads(5)
        assert threading.active_count() == before  # nothing outlives the run

    def test_a_task_that_raises_any_exception_hands_it_to_the_caller(self, monkeypatch):
        def leave(name):
            if _asset(name) == "gen":
                time.sleep(0.2)  # keeps the caller busy while a pool thread raises
            else:
                raise SystemExit(3)

        before = set(threading.enumerate())
        _record_solves(monkeypatch, leave)
        with pytest.raises(SystemExit) as info:
            run(_windy_toy(2), "nocoord")
        assert info.value.code == 3
        assert set(threading.enumerate()) == before


class TestWorkerPool:
    """The threads of a baseline run or a sweep live for the span of the call."""

    def test_threads_are_joined_when_the_block_raises(self, monkeypatch):
        def fail(name):  # after a day-ahead served by the pool
            if name.startswith("idm1[") and _asset(name) == "wind2":
                raise KeyError("out")

        before = set(threading.enumerate())
        seen = _record_solves(monkeypatch, fail)
        with pytest.raises(KeyError):
            run(_windy_toy(3), "nocoord")
        assert len({t for t, _ in seen}) > 1
        assert set(threading.enumerate()) == before

    def test_results_are_freed_with_the_pool_without_a_gc_pass(self, toy):
        gc.disable()
        try:
            result = run(toy, "nocoord")
            refs = [weakref.ref(r) for r in (result, *result.sessions, *result.ledger_history)]
            del result
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_nocoord_run_keeps_its_threads_for_every_session(self, monkeypatch):
        s = load_scenario(SCENARIO_DIR / "clear.json")
        assert len(s.dres + s.ndres + s.stu) == 5
        before = set(threading.enumerate())
        solvers = _record_solves(monkeypatch)
        result = run(s, "nocoord")
        assert result.ok and len(result.sessions) == 8
        assert len(solvers) == 40
        caller = threading.current_thread()
        # the solar-thermal unit's HiGHS working set stays in the main
        # thread's memory arena: on a new thread it adds about 4.4 MB
        assert {t for t, name in solvers if _asset(name) == "csp"} == {caller}
        others = {t for t, _ in solvers} - {caller}
        assert 1 <= len(others) <= _pool_threads(5)
        assert set(threading.enumerate()) == before

    def test_sweep_runs_its_held_solves_on_the_pool(self, monkeypatch):
        s = load_scenario(SCENARIO_DIR / "clear.json")
        before = set(threading.enumerate())
        solvers = _record_solves(monkeypatch)
        entries = sweep_profile_costs(s)
        assert len(entries) == 6
        assert len(solvers) == 9  # one per distinct held model
        solving = {t for t, _ in solvers}
        # the calling thread waits while the pool's threads solve
        assert threading.current_thread() not in solving
        assert 1 <= len(solving) <= min(os.cpu_count() or 1, 9)
        assert set(threading.enumerate()) == before


class TestVppRun:
    def test_full_day_on_the_toy(self, toy):
        result = run(toy)
        assert result.ok
        assert [r.key for r in result.sessions] == ["dam", "idm1"]
        assert all(r.status == "optimal" for r in result.sessions)
        assert all(r.violations == () for r in result.sessions)
        # day-ahead 853 plus the 10 of intraday band arbitrage
        assert abs(result.total_profit - 863.0) <= 1e-6
        assert result.max_recompute_drift() <= 1e-6
        assert len(result.ledger_history) == 2
        assert result.ledger is result.ledger_history[-1]

    def test_session_prefix_selects_a_subset(self, toy):
        result = run(through(toy, "dam"))
        assert result.ok
        assert [r.key for r in result.sessions] == ["dam"]
        assert set(result.profits) == {"dam"}
        assert abs(result.profits["dam"] - 853.0) <= 1e-6

    def test_through_cuts_the_calendar_after_its_key(self, toy):
        assert session_keys(toy) == ["dam", "idm1"]
        assert through(toy, "idm1") == toy
        dam_only = through(toy, "dam")
        assert session_keys(dam_only) == ["dam"]
        assert (dam_only.calendar.sessions, dam_only.idm_forecasts) == ((), ())
        for key in ("idm2", "", "dam,idm1"):
            with pytest.raises(ValueError, match="the day's sessions are dam, idm1"):
                through(toy, key)

    def test_failed_day_ahead_stops_the_run(self):
        doc = toy_doc()
        doc["network"]["lines"][0]["flowLimit"] = 1.0
        doc["ndres"][0]["pMin"] = [4.0, 6.0, 5.0]
        result = run(make_scenario(doc))
        assert not result.ok
        assert result.failure == "dam"
        assert result.ledger is None
        assert result.total_profit == 0.0

    def test_failed_session_is_named_and_prior_work_kept(self):
        doc = toy_doc()
        doc["network"]["tradeCap"] = {"b1": 0.0}
        doc["dres"][0]["pMin"] = 3.0
        doc["demands"][0]["tolLo"] = 0.0
        doc["demands"][0]["tolHi"] = 0.0
        doc["forecasts"]["idm"][0]["ndresAvail"]["wind"] = [0.0, 0.0, 0.0]
        result = run(make_scenario(doc))
        assert not result.ok
        assert result.failure == "idm1"
        assert result.sessions[-1].status == "infeasible"
        assert result.ledger is not None  # the day-ahead stage survived
        assert "dam" in result.profits

    def test_result_is_read_from_the_session_walk(self):
        ledger = LedgerState(trades=((1.0,),), selected_profiles={}, demand_p={},
                             dres_p={}, dres_u={}, ndres_p={}, stu_series={})
        result = RunResult(
            mode="vpp",
            sessions=(SessionResult("dam", "optimal", 12.5, ()),
                      SessionResult("idm1", "infeasible", None, ())),
            ledger_history=(ledger,), recomputed_profits={"dam": 12.25})
        assert result.failure == "idm1"
        assert not result.ok
        assert result.ledger is ledger
        assert result.profits == {"dam": 12.5}
        assert result.total_profit == 12.5
        assert result.max_recompute_drift() == 0.25
        done = dataclasses.replace(result, sessions=result.sessions[:1])
        assert (done.failure, done.ok) == (None, True)

    def test_mode_dispatch(self, toy):
        assert run(toy).mode == "vpp"
        assert run(toy, "nocoord").mode == "nocoord"
        with pytest.raises(ValueError, match="unknown mode"):
            run(toy, "solo")


class TestSingleAsset:
    def test_isolation_drops_everything_else(self, toy):
        sub = single_asset_scenario(toy, "wind")
        assert sub.network.buses == ("b2",)
        assert sub.network.main_grid_buses == ("b2",)
        assert sub.network.lines == ()
        assert sub.network.trade_cap == {"b2": 50.0}
        assert sub.dres == ()
        assert [a.id for a in sub.ndres] == ["wind"]
        assert sub.demands == ()
        assert set(sub.dam_forecast.ndres_avail) == {"wind"}
        assert set(sub.idm_forecasts[0].ndres_avail) == {"wind"}

    def test_only_generation_assets_can_be_isolated(self, toy):
        with pytest.raises(KeyError, match="not a generation asset"):
            single_asset_scenario(toy, "load")
        with pytest.raises(KeyError, match="not a generation asset"):
            single_asset_scenario(toy, "ghost")

    def test_one_asset_portfolio_gains_nothing_from_coordination(self):
        doc = toy_doc()
        doc["dres"] = []
        doc["demands"] = []
        s = make_scenario(doc)
        vpp = run(s)
        solo = run(s, "nocoord")
        assert vpp.ok and solo.ok
        assert abs(vpp.total_profit - solo.total_profit) <= 1e-9


def _isolated_runs(s):
    """Each generation asset's run on its own, in portfolio order: the
    walks a no-coordination run folds."""
    return [run(single_asset_scenario(s, a.id)) for a in s.dres + s.ndres + s.stu]


class TestNoCoordination:
    def test_aggregate_is_the_sum_of_isolated_runs(self, toy):
        result = run(toy, "nocoord")
        assert result.ok
        assert result.mode == "nocoord"
        assert [passive_demand_profit(toy, d) for d in toy.demands] == [-180.0]
        alone = _isolated_runs(toy)
        assert [r.ok for r in alone] == [True, True]
        assert list(result.profits) == ["dam", "idm1"]
        for key, profit in result.profits.items():
            expected = sum(r.profits[key] for r in alone)
            if key == "dam":
                expected -= 180.0
            assert abs(profit - expected) <= 1e-9, key
        # the unit earns 593 alone, wind 440, the passive load pays 180
        assert abs(result.profits["dam"] - 853.0) <= 1e-6

    def test_coordination_is_worth_the_band(self, toy):
        vpp = run(toy)
        solo = run(toy, "nocoord")
        assert vpp.total_profit >= solo.total_profit - 1e-9
        assert abs((vpp.total_profit - solo.total_profit) - 10.0) <= 1e-6

    def test_merged_session_bookkeeping(self, toy):
        result = run(toy, "nocoord")
        dam = result.sessions[0]
        assert dam.key == "dam"
        assert dam.status == "optimal"
        alone = _isolated_runs(toy)
        assert dam.n_vars == sum(r.sessions[0].n_vars for r in alone)
        for size in ("n_binaries", "n_nonzeros"):
            parts = [getattr(r.sessions[0], size) for r in alone]
            assert getattr(dam, size) == sum(parts) > 0, size
        assert abs(dam.objective - result.profits["dam"]) <= 1e-9

    def test_history_is_the_aggregate_ledger_per_session(self, toy):
        result = run(toy, "nocoord")
        assert result.ledger is result.ledger_history[-1]
        assert [len(led.trades) for led in result.ledger_history] == [1, 2]
        assert result.profits == {
            r.key: r.objective for r in result.sessions}
        assert result.max_recompute_drift() <= 1e-9
        ledger = result.ledger
        assert ledger.selected_profiles == {"load": "flat"}
        assert ledger.demand_p == {"load": (2.0, 2.0, 2.0)}
        assert set(ledger.dres_p) == {"gen"} and set(ledger.ndres_p) == {"wind"}
        alone = _isolated_runs(toy)
        for t in range(1, 4):
            assert abs(ledger.cumulative_trade(t) - sum(
                r.ledger.cumulative_trade(t) for r in alone) + 2.0) <= 1e-9

    def test_failed_part_gives_the_merged_status(self, toy, monkeypatch):
        # the unit (first in portfolio order) fails the day-ahead stage,
        # the wind farm ends it with an incumbent short of optimality
        from vppopt import orchestrator
        from vppopt.milp import Solution

        solve_session = orchestrator._solve_session

        def solve_with_statuses(model, options, key, start):
            sol, result = solve_session(model, options, key, start)
            if model.name == "dam[toy:gen]":
                return Solution(status="infeasible"), dataclasses.replace(
                    result, status="infeasible", objective=None)
            return sol, dataclasses.replace(result, status="feasible")

        monkeypatch.setattr(orchestrator, "_solve_session", solve_with_statuses)
        result = run(toy, "nocoord")
        assert result.failure == "dam"
        assert [(r.key, r.status, r.objective) for r in result.sessions] == \
            [("dam", "infeasible", None)]
        assert result.ledger_history == ()

    def test_demand_only_portfolio_keeps_its_profits(self, monkeypatch):
        from vppopt import orchestrator

        doc = toy_doc()
        doc["dres"] = []
        doc["ndres"] = []
        doc["forecasts"]["dam"]["ndresAvail"] = {}
        doc["forecasts"]["idm"][0]["ndresAvail"] = {}
        s = make_scenario(doc)
        solved = []
        monkeypatch.setattr(orchestrator, "solve", lambda model, *args: solved.append(model))
        result = run(s, "nocoord")
        assert result.ok and solved == []
        assert result.profits == {"dam": -180.0, "idm1": 0.0}
        assert result.recomputed_profits == {"dam": -180.0, "idm1": 0.0}
        assert result.ledger.trades == ((-2.0, -2.0, -2.0), (0.0, 0.0, 0.0))
        assert [r.objective for r in result.sessions] == [-180.0, 0.0]

    def test_passive_demand_pays_day_ahead_prices(self, toy):
        d = toy.demands[0]
        assert passive_demand_profit(toy, d) == -(2 * 30.0 + 2 * 20.0 + 2 * 40.0)


class TestRecompute:
    def test_initial_commitment_changes_the_startup_booking(self):
        doc = toy_doc()
        doc["dres"][0]["initialCommitment"] = "on"
        result = run(make_scenario(doc))
        assert abs(result.profits["dam"] - 860.0) <= 1e-6
        assert result.max_recompute_drift() <= 1e-6


class TestRandomPortfolios:
    def test_synth_portfolios_run_clean_in_both_modes(self):
        # stdout is not checked: one of these HiGHS solves logs a debug line
        problems = []
        for seed in range(20):
            for draw in (random_seller_scenario, random_stu_scenario):
                s = draw(np.random.default_rng(seed))
                for mode in ("vpp", "nocoord"):
                    result = run(s, mode)
                    where = f"{draw.__name__}({seed}) {mode}"
                    if not result.ok:
                        problems.append(f"{where}: stopped at {result.failure}")
                        continue
                    problems += [f"{where} {sess.key}: {sess.violations[:3]}"
                                 for sess in result.sessions if sess.violations]
                    drift = result.max_recompute_drift()
                    if drift > 1e-6:
                        problems.append(f"{where}: recomputed profit drift {drift:.3e}")
                    for check in (check_demand_contracts, check_aggregate_balance,
                                  check_storage_conservation):
                        problems += [f"{where} {check.__name__}: {finding}"
                                     for finding in check(s, result.ledger)]
        assert problems == []


class TestCheckers:
    def test_clean_run_passes_all_checkers(self, toy):
        result = run(toy)
        assert check_demand_contracts(toy, result.ledger) == []
        assert check_aggregate_balance(toy, result.ledger) == []
        assert check_storage_conservation(toy, result.ledger) == []

    def test_band_violation_is_reported(self, toy):
        ledger = run(toy).ledger
        bad = dataclasses.replace(
            ledger, demand_p={"load": (2.0, 4.0, 1.5)})  # 4 > 2 * 1.25
        messages = check_demand_contracts(toy, bad)
        assert any("outside band" in m for m in messages)

    def test_ramp_violation_is_reported(self, toy):
        doc = toy_doc()
        doc["demands"][0]["rampUp"] = 0.4
        doc["demands"][0]["rampDown"] = 0.4
        s = make_scenario(doc)  # its shifted profile breaks profile_ramp
        ledger = run(toy).ledger
        bad = dataclasses.replace(
            ledger, demand_p={"load": (1.5, 2.5, 1.5)})  # steps of 1 > 0.4
        messages = check_demand_contracts(s, bad)
        assert any("ramp-up" in m for m in messages)
        assert any("ramp-down" in m for m in messages)

    def test_energy_floor_violation_is_reported(self, toy):
        ledger = run(toy).ledger
        bad = dataclasses.replace(
            ledger, demand_p={"load": (1.5, 1.5, 1.5)})  # 4.5 MWh < 6
        messages = check_demand_contracts(toy, bad)
        assert any("below minimum" in m for m in messages)

    def test_imbalance_is_reported(self, toy):
        ledger = run(toy).ledger
        bad = dataclasses.replace(
            ledger, ndres_p={"wind": (4.0, 6.0, 4.0)})  # 1 MW vanishes at t3
        messages = check_aggregate_balance(toy, bad)
        assert len(messages) == 1
        assert "period 3" in messages[0]

    def test_storage_drift_is_reported(self):
        from test_stu import _stu_scenario

        s = _stu_scenario([5.0, 50.0], [100.0, 0.0])
        ledger = run(s).ledger
        assert check_storage_conservation(s, ledger) == []
        series = dict(ledger.stu_series["csp"])
        series[ENERGY] = (100.0, 15.0)  # 15 MWh appear from nowhere
        bad = dataclasses.replace(ledger, stu_series={"csp": series})
        messages = check_storage_conservation(s, bad)
        assert any("telescoped" in m for m in messages)

    def test_end_window_violation_is_reported(self):
        from test_stu import _stu_scenario

        s = _stu_scenario([5.0, 50.0], [100.0, 0.0], endAlphaLo=0.3)
        ledger = run(s).ledger
        series = dict(ledger.stu_series["csp"])
        # telescoping consistent, but the final fill undershoots 0.3*200
        series[CHG] = (50.0, 0.0)
        series[ENERGY] = (50.0, 50.0 - series[DIS][1])
        bad = dataclasses.replace(ledger, stu_series={"csp": series})
        messages = check_storage_conservation(s, bad)
        assert any("outside window" in m for m in messages)


class TestSweep:
    def test_threshold_found_for_a_profitable_challenger(self):
        s = make_scenario(_priced_doc())
        (entry,) = sweep_profile_costs(s, "load", "shift", max_cost=100.0)
        assert entry.status == "threshold"
        # the shifted profile saves exactly 10 of purchase value
        assert 10.0 - entry.resolution <= entry.threshold <= 10.0

    def test_threshold_does_not_depend_on_the_current_payment(self):
        doc = _priced_doc()
        doc["demands"][0]["profiles"][1]["cost"] = 25.0  # above the 10 it saves
        (entry,) = sweep_profile_costs(make_scenario(doc), "load", "shift", max_cost=100.0)
        (free,) = sweep_profile_costs(make_scenario(_priced_doc()), "load", "shift",
                                      max_cost=100.0)
        assert entry.status == "threshold"
        assert entry.threshold == pytest.approx(free.threshold, abs=1e-9)

    def test_choice_flips_around_the_threshold(self):
        s = make_scenario(_priced_doc())
        (entry,) = sweep_profile_costs(s, "load", "shift", max_cost=100.0)
        doc = _priced_doc()
        doc["demands"][0]["profiles"][1]["cost"] = entry.threshold
        assert chosen_profiles(make_scenario(doc))[0]["load"] == "shift"
        doc["demands"][0]["profiles"][1]["cost"] = entry.threshold + 1.0
        assert chosen_profiles(make_scenario(doc))[0]["load"] == "flat"

    def test_worthless_challenger_is_never_picked(self, toy):
        # at toy prices the shift costs 10 more than the flat profile
        (entry,) = sweep_profile_costs(toy, "load", "shift")
        assert entry.status == "never"
        assert entry.threshold is None

    def test_cap_below_the_threshold_reports_above_max(self):
        s = make_scenario(_priced_doc())
        (entry,) = sweep_profile_costs(s, "load", "shift", max_cost=5.0)
        assert entry.status == "above_max"

    def test_unknown_pair_rejected(self, toy):
        with pytest.raises(KeyError, match="no non-default profile"):
            sweep_profile_costs(toy, "load", "nothere")
        with pytest.raises(ValueError, match="resolution"):
            sweep_profile_costs(toy, resolution=0.0)

    def test_cost_grid_records_choices_and_objectives(self):
        free_chosen, free_objective = chosen_profiles(make_scenario(_priced_doc()))
        doc = _priced_doc()
        doc["demands"][0]["profiles"][1]["cost"] = 50.0
        taxed_chosen, taxed_objective = chosen_profiles(make_scenario(doc))
        assert free_chosen == {"load": "shift"}
        assert taxed_chosen == {"load": "flat"}
        assert abs(free_objective - 853.0) <= 1e-6
        assert abs(taxed_objective - 843.0) <= 1e-6

    def test_held_solves_keep_the_other_profiles_purchase_caps(self):
        """A third profile of the demand stays in the contest's model: its
        0.5 MW in period 3 caps the purchase there (``trade_lower_bounds``),
        which makes the challenger worth 4.5 more than with the third
        profile dropped (a threshold of 27.5)."""
        doc = _priced_doc((40.0, 20.0, 5.0))
        for fc in (doc["forecasts"]["dam"], doc["forecasts"]["idm"][0]):
            fc["ndresAvail"]["wind"] = [4.0, 6.0, 0.0]
        doc["demands"][0]["profiles"].append(
            {"id": "light", "power": [2.0, 2.0, 0.5], "cost": 0.0})
        doc["demands"][0]["minEnergy"] = 4.5
        (entry,) = sweep_profile_costs(make_scenario(doc), "load", "shift", max_cost=100.0)
        assert entry.status == "threshold"
        assert entry.threshold == pytest.approx(32.0, abs=1e-6)
        # the flip, in the same model with "light" priced out of the contest
        doc["demands"][0]["profiles"][2]["cost"] = 1000.0
        for cost, want in ((entry.threshold, "shift"), (entry.threshold + 1.0, "flat")):
            doc["demands"][0]["profiles"][1]["cost"] = cost
            assert chosen_profiles(make_scenario(doc))[0]["load"] == want

    def test_each_distinct_held_model_is_solved_once(self, monkeypatch):
        """Each of the cloudy day's 3 demands has 2 challengers, so 6 pairs
        hold 9 distinct selectors: a demand's default-held solve serves both
        of its pairs. Every break-even stays where 12 solves put it."""
        from vppopt import orchestrator

        held = []

        def counted(s, selector=None):
            held.append(selector)
            return day_ahead(s, selector)

        day_ahead = orchestrator._day_ahead
        monkeypatch.setattr(orchestrator, "_day_ahead", counted)
        entries = sweep_profile_costs(load_scenario(SCENARIO_DIR / "cloudy.json"),
                                      max_cost=1200.0)
        assert len(held) == len(set(held)) == 9
        # in the order of the demands and their profiles in cloudy.json
        pinned = [503.2, 202.45, 905.65, 343.0, 593.05, 140.8]
        assert [e.status for e in entries] == ["threshold"] * 6
        assert [e.threshold for e in entries] == pytest.approx(pinned, abs=1e-6)

    def test_probe_with_a_violation_is_surfaced(self, toy, monkeypatch):
        from vppopt import orchestrator
        from vppopt.milp import Violation

        monkeypatch.setattr(orchestrator, "verify",
                            lambda model, sol: [Violation("bound", "x3", 1.0)])
        with pytest.raises(RuntimeError, match="1 violations, the first bound x3"):
            chosen_profiles(toy)

    def test_failed_probe_is_surfaced(self):
        doc = toy_doc()
        doc["network"]["lines"][0]["flowLimit"] = 1.0
        doc["ndres"][0]["pMin"] = [4.0, 6.0, 5.0]
        with pytest.raises(RuntimeError, match="day-ahead solve failed"):
            chosen_profiles(make_scenario(doc))
