"""End-to-end acceptance gates on the shipped study days and randomized
instances.

Twenty checks, one test each: clean and fast solves of both shipped
days, their pinned total profits, day-ahead and whole-run search counts,
whole-run HiGHS run counts, intraday solves that start from the plan
they correct and refuse one that no longer fits, a day cut after a
session that runs as the whole day's first sessions (one case per
mode), agreement of the day-ahead optimizer with exhaustive
enumeration, conversion-curve fidelity and agreement of the two SOS-2
routes, storage bookkeeping, demand contracts, the value of
coordination, sharp profile-payment thresholds, inert no-news sessions,
price monotonicity, results that concurrent solves leave as sequential
ones gave them, clean day-ahead runs of both days on a half-hour grid
(one case per day), and hourly day-ahead optima that stay feasible, at
the same profit, on a finer grid (six small days).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import re
import time

import numpy as np
import pytest
from scipy.optimize._highspy._core import _Highs

from casestudy import equal_information_variant, refine
from conftest import (
    SCENARIO_DIR,
    Sos2EnumerationAdapter,
    enumerate_dam_optimum,
    eval_pb_oracle,
    make_scenario,
    on_two_threads,
    recompute_objective,
    record_highs_runs,
    toy_doc,
)
from vppopt.dam import DEM_P, DRES_C0, DRES_C1, DRES_P, DRES_V, DRES_W, NDRES_P, assemble_dam
from vppopt.idm import SCHEDULE_ROLES
from vppopt.milp import Solution, SolveOptions, solve, verify
from vppopt.orchestrator import (
    check_aggregate_balance,
    check_demand_contracts,
    check_storage_conservation,
    chosen_profiles,
    run,
    sweep_profile_costs,
    through,
)
from vppopt.report import build_report
from vppopt.scenario import (
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from vppopt.stu import CHG, DIS, ENERGY, PB_ON, PB_START, POWER, PPB, UPLUS, pb_curve
from vppopt.synth import (
    random_piecewise_model,
    random_seller_scenario,
    random_stu_scenario,
)

RUNTIME_BUDGET_S = 10.0  # full day-ahead-plus-intraday run, per shipped day
# total profit in EUR of each shipped day, coordinated and with every asset alone
SHIPPED_TOTALS = {"clear": {"vpp": 35057.069660, "nocoord": 30473.354660},
                  "cloudy": {"vpp": 7032.207469, "nocoord": 1851.802469}}
# (B&B nodes, simplex iterations) of each shipped day-ahead solve; they
# repeat exactly on one HiGHS build
DAY_AHEAD_COUNTS = {"clear": (3, 891), "cloudy": (11, 1570)}
# the same counts summed over every session of each shipped run
RUN_COUNTS = {"clear": {"vpp": (42, 4832), "nocoord": (18, 2174)},
              "cloudy": {"vpp": (42, 5498), "nocoord": (28, 3363)}}
# (MIP runs, LP runs) of HiGHS over each shipped run: a started session
# whose MIP keeps its plan runs the start LP and the MIP, one that moves
# off it a polish LP too
HIGHS_RUNS = {"clear": {"vpp": (8, 8), "nocoord": (24, 40)},
              "cloudy": {"vpp": (8, 11), "nocoord": (24, 44)}}
COUNTS_HIGHS_VERSION = "1.12.0"


@contextlib.contextmanager
def _highs_runs(into: dict, key: tuple[str, str]):
    """Count the HiGHS runs made inside the block, MIP and LP apart, into
    ``into[key]``."""
    with pytest.MonkeyPatch.context() as patch:
        runs = record_highs_runs(patch)
        yield
    into[key] = (sum(runs), len(runs) - sum(runs))


@pytest.fixture(scope="module")
def highs_runs():
    """HiGHS runs per (day, mode), counted by ``study`` and ``baselines``."""
    return {}


@pytest.fixture(scope="module")
def study(highs_runs):
    """Both shipped days solved in coordinated mode, with wall times."""
    out = {}
    for name in ("clear", "cloudy"):
        s = load_scenario(SCENARIO_DIR / f"{name}.json")
        with _highs_runs(highs_runs, (name, "vpp")):
            t0 = time.perf_counter()
            result = run(s, "vpp")
            out[name] = (s, result, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def baselines(highs_runs):
    """Both shipped days with every asset bidding alone."""
    out = {}
    for name in ("clear", "cloudy"):
        with _highs_runs(highs_runs, (name, "nocoord")):
            out[name] = run(load_scenario(SCENARIO_DIR / f"{name}.json"), "nocoord")
    return out


@pytest.fixture(scope="module")
def thresholds(study):
    """Payment thresholds of every non-default profile of the clear day."""
    return sweep_profile_costs(study["clear"][0], max_cost=1200.0, resolution=1.0)


def _tiny_doc(prices: tuple[float, ...], initial: str) -> dict:
    """One bus, one plant, one two-profile demand over three periods --
    small enough to enumerate every commitment pattern and profile choice."""
    return {
        "name": "tiny",
        "network": {"buses": ["b1"], "mainGridBuses": ["b1"], "lines": [],
                    "tradeCap": {"b1": 100.0}},
        "dres": [{"id": "gen", "bus": "b1", "pMin": 2.0, "pMax": 8.0,
                  "variableCost": 12.0, "startupCost": 5.0, "shutdownCost": 4.0,
                  "initialCommitment": initial}],
        "ndres": [], "stu": [],
        "demands": [{"id": "load", "bus": "b1", "profiles": [
            {"id": "steady", "power": [3.0, 3.0, 3.0], "cost": 0.0, "default": True},
            {"id": "late", "power": [2.0, 3.0, 4.0], "cost": 6.0}],
            "minEnergy": 8.0, "tolLo": 0.2, "tolHi": 0.2,
            "rampDown": 10.0, "rampUp": 10.0}],
        "calendar": {"T": 3, "dtHours": 1.0, "damPrices": list(prices),
                     "sessions": []},
        "forecasts": {"dam": {"ndresAvail": {}, "stuAvail_th": {}}, "idm": []},
    }


PRICED_OUT = 1e5  # EUR, a payment no profile on the shipped days is worth


def _priced_contest(s, demand_id: str, profile_id: str, cost: float):
    """One demand's default-versus-challenger contest, with the challenger
    at the given payment and the demand's other alternatives priced out,
    in the scenario's own day-ahead model (every profile and purchase cap
    stays); an independent re-check of the thresholds the sweep derives
    from its two held solves."""
    demands = []
    for d in s.demands:
        if d.id == demand_id:
            d = dataclasses.replace(d, profiles=tuple(
                p if p.default else
                dataclasses.replace(p, cost=cost if p.id == profile_id else PRICED_OUT)
                for p in d.profiles))
        demands.append(d)
    return dataclasses.replace(s, demands=tuple(demands))


def _untimed(result):
    """``result`` with every session's solve time zeroed."""
    return dataclasses.replace(result, sessions=tuple(
        dataclasses.replace(r, runtime_s=0.0) for r in result.sessions))


class TestSolveQuality:
    def test_shipped_days_solve_clean_within_budget(self, study):
        """Every session of both days is optimal with zero verified
        violations at 1e-6, inside the per-day runtime budget."""
        for name, (s, result, wall) in study.items():
            assert result.ok, f"{name}: run stopped at {result.failure}"
            assert len(result.sessions) == 1 + len(s.calendar.sessions)
            for sess in result.sessions:
                assert sess.status == "optimal", f"{name}/{sess.key}: {sess.status}"
                assert sess.violations == (), \
                    f"{name}/{sess.key}: {sess.violations[:3]}"
            assert wall < RUNTIME_BUDGET_S, f"{name}: {wall:.2f}s"

    def test_shipped_totals_are_pinned(self, study, baselines):
        """The total profits of both days in both modes stay at their
        recorded values to 1e-6 relative. The thermal storage has
        alternate optima, so a backend change can move a total while every
        session still verifies clean."""
        for name, want in SHIPPED_TOTALS.items():
            got = {"vpp": study[name][1].total_profit,
                   "nocoord": baselines[name].total_profit}
            for mode in want:
                assert got[mode] == pytest.approx(want[mode], rel=1e-6), f"{name}/{mode}"

    def test_session_profits_are_the_verified_objectives(self, study, baselines):
        """``profit.json`` reports each session's objective as
        ``verify.json`` records it, in both modes: there is one copy of
        the solver's objectives."""
        for name in ("clear", "cloudy"):
            for mode, result in (("vpp", study[name][1]), ("nocoord", baselines[name])):
                docs = build_report(study[name][0], result).documents
                assert docs["profit.json"]["sessions"] == {
                    x["key"]: x["objective"] for x in docs["verify.json"]["sessions"]
                }, f"{name}/{mode}"

    @pytest.mark.skipif(_Highs().version() != COUNTS_HIGHS_VERSION,
                        reason=f"search counts are pinned for HiGHS {COUNTS_HIGHS_VERSION}")
    def test_day_ahead_search_counts_are_pinned(self, study):
        """A change to the formulation or to the HiGHS options shows as a
        count diff before it shows in any timing."""
        for name, (nodes, iterations) in DAY_AHEAD_COUNTS.items():
            dam = study[name][1].sessions[0]
            assert (dam.nodes, dam.lp_iterations) == (nodes, iterations), name
            assert dam.abs_gap <= 1e-6 * abs(dam.objective), name

    @pytest.mark.skipif(_Highs().version() != COUNTS_HIGHS_VERSION,
                        reason=f"search counts are pinned for HiGHS {COUNTS_HIGHS_VERSION}")
    def test_run_search_counts_are_pinned(self, study, baselines):
        """The day-ahead pin per mode over whole runs: a change that moves
        only the intraday or the isolated-asset searches shows here."""
        for name, want in RUN_COUNTS.items():
            runs = {"vpp": study[name][1], "nocoord": baselines[name]}
            for mode, (nodes, iterations) in want.items():
                sessions = runs[mode].sessions
                got = (sum(x.nodes for x in sessions),
                       sum(x.lp_iterations for x in sessions))
                assert got == (nodes, iterations), f"{name}/{mode}"

    @pytest.mark.skipif(_Highs().version() != COUNTS_HIGHS_VERSION,
                        reason=f"search counts are pinned for HiGHS {COUNTS_HIGHS_VERSION}")
    def test_highs_run_counts_are_pinned(self, study, baselines, highs_runs):
        """A started session runs the polish LP only when its MIP moved
        off the kept plan. On the clear day every coordinated intraday
        session keeps it: 8 MIPs, 7 start LPs and the day-ahead's polish."""
        for name, want in HIGHS_RUNS.items():
            for mode, counts in want.items():
                assert highs_runs[name, mode] == counts, f"{name}/{mode}"

    @pytest.mark.skipif(_Highs().version() != COUNTS_HIGHS_VERSION,
                        reason=f"search counts are pinned for HiGHS {COUNTS_HIGHS_VERSION}")
    def test_plans_that_no_longer_fit_give_no_start(self, study):
        """On the cloudy day the plans of idm2 and idm3 do not fit the
        forecasts of the next session: fixing their commitments leaves no
        feasible LP. Those two solves get no start and search as a solve
        without one does."""
        sessions = {x.key: x for x in study["cloudy"][1].sessions}
        for key, counts in (("idm3", (1, 596)), ("idm4", (3, 640))):
            assert sessions[key].start_objective is None, key
            assert (sessions[key].nodes, sessions[key].lp_iterations) == counts, key

    def test_started_sessions_reach_at_least_their_start(self, study, baselines):
        """Each intraday session starts from the plan it corrects, and its
        optimum is never worth less than keeping that plan. The day-ahead
        has no start; on the clear day every coordinated intraday session
        starts."""
        for name in ("clear", "cloudy"):
            for mode, result in (("vpp", study[name][1]), ("nocoord", baselines[name])):
                assert result.sessions[0].start_objective is None, f"{name}/{mode}"
                for x in result.sessions[1:]:
                    if x.start_objective is not None:
                        slack = 1e-6 * max(1.0, abs(x.objective))
                        assert x.objective >= x.start_objective - slack, f"{name}/{mode}/{x.key}"
        clear = study["clear"][1].sessions
        assert [x.start_objective is not None for x in clear] == [False] + [True] * 7

    @pytest.mark.parametrize("mode", ["vpp", "nocoord"])
    def test_a_cut_calendar_runs_the_first_sessions(self, study, baselines, mode):
        """The clear day cut after idm2 runs as the first three sessions of
        the whole day: the same session records but for their solve times,
        and the same ledgers."""
        full = _untimed(study["clear"][1] if mode == "vpp" else baselines["clear"])
        cut = _untimed(run(through(study["clear"][0], "idm2"), mode))
        assert [r.key for r in cut.sessions] == ["dam", "idm1", "idm2"]
        assert cut.sessions == full.sessions[:3]
        assert cut.ledger_history == full.ledger_history[:3]

    def test_day_ahead_matches_exhaustive_enumeration(self):
        """Branch-and-bound agrees with brute force over every commitment
        pattern and profile choice to 1e-6."""
        for prices, initial in (((30.0, 5.0, 45.0), "off"),
                                ((12.0, 55.0, 8.0), "on"),
                                ((40.0, 41.0, 6.0), "off")):
            s = make_scenario(_tiny_doc(prices, initial))
            model, _ = assemble_dam(s)
            sol = solve(model)
            assert sol.status == "optimal"
            assert abs(sol.objective - enumerate_dam_optimum(s)) <= 1e-6

    def test_conversion_curve_holds_and_sos2_routes_agree(self):
        """On 50 solved storage-unit instances the electrical output sits
        on the thermal conversion curve to 1e-6 whenever the block runs;
        on 100 random curves the reformulation and segment-enumeration
        routes produce the same optimum to 1e-6."""
        rng = np.random.default_rng(20260814)
        units = [random_stu_scenario(rng) for _ in range(50)]

        def solve_unit(s):
            model, reg = assemble_dam(s)
            return reg, solve(model)

        for s, (reg, sol) in zip(units, on_two_threads(solve_unit, units)):
            assert sol.status == "optimal"
            curve = pb_curve(s.stu[0])
            for t in range(1, s.n_periods + 1):
                p = float(sol.values[reg.id(POWER, "unit", t)])
                if sol.values[reg.id(PB_ON, "unit", t)] > 0.5:
                    ppb = float(sol.values[reg.id(PPB, "unit", t)])
                    assert abs(p - eval_pb_oracle(curve, ppb)) <= 1e-6
                else:
                    assert abs(p) <= 1e-6

        rng = np.random.default_rng(7)
        exact = Sos2EnumerationAdapter()
        models = [random_piecewise_model(rng) for _ in range(100)]
        for a, b in on_two_threads(lambda m: (solve(m), exact.solve(m, SolveOptions())),
                                   models):
            assert a.status == "optimal" and b.status == "optimal"
            assert abs(a.objective - b.objective) <= 1e-6


class TestFinalSchedules:
    def test_storage_books_balance_into_end_window(self, study):
        """Settled storage trajectories obey the charge/discharge
        recurrence period by period and telescoped to 1e-6, and the final
        fill lands inside the contracted end window."""
        for name, (s, result, _) in study.items():
            for a in s.stu:
                e, chg, dis = (np.asarray(result.ledger.schedules[role, a.id])
                               for role in (ENERGY, CHG, DIS))
                step = a.charge_eff * chg * s.dt - dis * s.dt / a.discharge_eff
                prev = np.concatenate([[a.initial_energy], e[:-1]])
                assert np.max(np.abs(e - prev - step)) <= 1e-6, name
                assert abs(e[-1] - a.initial_energy - step.sum()) <= 1e-6, name
                cap_end = a.storage_cap[-1]
                assert a.end_alpha_lo * cap_end - 1e-6 <= e[-1] \
                    <= a.end_alpha_hi * cap_end + 1e-6, name
            assert check_storage_conservation(s, result.ledger) == []

    def test_both_modes_keep_the_same_schedules(self, study, baselines):
        """Every ledger of either mode keeps one series per asset and
        role of its group in SCHEDULE_ROLES, and no other: 3 demands, 2
        dispatchable and 2 non-dispatchable plants and the solar-thermal
        unit's 7 roles, with no charging or startup indicator."""
        for name, (s, result, _) in study.items():
            expected = {(role, a.id) for group, roles in SCHEDULE_ROLES.items()
                        for a in getattr(s, group) for role in roles}
            assert len(expected) == 3 + 2 * 2 + 2 + 7, name
            assert not {role for role, _ in expected} & {UPLUS, PB_START}, name
            for ledger in result.ledger_history + baselines[name].ledger_history:
                assert set(ledger.schedules) == expected, name

    def test_demand_contracts_hold(self, study):
        """Settled consumption stays inside each demand's tolerance band,
        ramp limits and energy floor, re-checked from the raw series."""
        for name, (s, result, _) in study.items():
            assert check_demand_contracts(s, result.ledger) == [], name
            assert check_aggregate_balance(s, result.ledger) == [], name
            for d in s.demands:
                energy = sum(result.ledger.schedules[DEM_P, d.id]) * s.dt
                assert energy >= d.min_energy - 1e-6, f"{name}/{d.id}"


class TestEconomics:
    def test_coordination_beats_isolated_operation(self, study, baselines):
        """The coordinated portfolio earns at least the sum of isolated
        asset runs on both days, and the advantage is relatively larger on
        the cloudy day."""
        gaps = {}
        for name in ("clear", "cloudy"):
            s, base = study[name][0], baselines[name]
            assert base.ok
            # the baseline's aggregate ledger passes the same checks as a VPP run
            assert check_demand_contracts(s, base.ledger) == [], name
            assert check_aggregate_balance(s, base.ledger) == [], name
            assert check_storage_conservation(s, base.ledger) == [], name
            assert base.max_recompute_drift() <= 1e-6, name
            vpp = study[name][1].total_profit
            solo = base.total_profit
            assert vpp >= solo - 1e-6, f"{name}: {vpp} < {solo}"
            gaps[name] = (vpp - solo) / abs(solo)
        assert gaps["cloudy"] > gaps["clear"]

    def test_profile_cost_thresholds_are_sharp(self, study, thresholds):
        """Every alternative consumption profile has a finite payment
        threshold; independent re-solves pick it at the threshold and at
        half of it, and drop it one unit above."""
        s = study["clear"][0]
        entries = thresholds
        non_default = sorted((d.id, p.id) for d in s.demands
                             for p in d.profiles if not p.default)
        assert sorted((e.demand_id, e.profile_id) for e in entries) == non_default
        for e in entries:
            assert e.status == "threshold", f"{e.demand_id}/{e.profile_id}: {e.status}"
            assert 0.0 < e.threshold < 1200.0
        probes = [(e, cost, want) for e in entries
                  for cost, want in ((e.threshold / 2.0, True),
                                     (e.threshold, True),
                                     (e.threshold + 1.0, False))]
        chosen = on_two_threads(chosen_profiles, [
            _priced_contest(s, e.demand_id, e.profile_id, cost) for e, cost, _ in probes])
        for (e, cost, want), (picks, _) in zip(probes, chosen):
            picked = picks[e.demand_id] == e.profile_id
            assert picked is want, \
                f"{e.demand_id}/{e.profile_id} at {cost:.3f}: picked={picked}"

    def test_no_news_sessions_change_nothing(self, study):
        """When every session repeats the day-ahead prices and forecasts,
        all intraday adjustments are zero and each session objective is 0
        to 1e-6."""
        names = ("clear", "cloudy")
        days = [equal_information_variant(study[name][0], zero_tolerance=True)
                for name in names]
        for name, s, result in zip(names, days, on_two_threads(run, days)):
            assert result.ok, f"{name}: run stopped at {result.failure}"
            for key, value in result.profits.items():
                if key != "dam":
                    assert abs(value) <= 1e-6, f"{name}/{key}: {value}"
            for prev, cur in zip(result.ledger_history, result.ledger_history[1:]):
                jump = max(abs(cur.cumulative_trade(t) - prev.cumulative_trade(t))
                           for t in range(1, s.n_periods + 1))
                assert jump <= 1e-6, name
                for key, series in prev.schedules.items():
                    if key[0] in (DRES_P, NDRES_P, DEM_P):
                        assert np.allclose(cur.schedules[key], series, atol=1e-6)

    def test_price_lift_never_lowers_day_ahead_profit(self):
        """Lifting all day-ahead prices by 10 EUR/MWh never lowers the
        day-ahead optimum of a net-selling portfolio (20 random draws)."""
        rng = np.random.default_rng(99)
        for _ in range(20):
            s = random_seller_scenario(rng)
            base_model, _ = assemble_dam(s)
            base = solve(base_model)
            cal = dataclasses.replace(
                s.calendar,
                dam_prices=tuple(p + 10.0 for p in s.calendar.dam_prices))
            lifted_model, _ = assemble_dam(dataclasses.replace(s, calendar=cal))
            lifted = solve(lifted_model)
            assert base.status == "optimal" and lifted.status == "optimal"
            assert lifted.objective >= base.objective - 1e-6


class _InTurn:
    """A stand-in for ``ThreadPoolExecutor`` that runs each task on the
    calling thread as it is submitted."""

    def __init__(self, max_workers: int) -> None:
        pass

    def __enter__(self) -> _InTurn:
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def submit(self, fn, *args) -> concurrent.futures.Future:
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


class TestConcurrentSolves:
    """Solving independent MILPs at the same time changes no result."""

    def test_nocoord_run_equals_its_sequential_run(self, study, baselines, monkeypatch):
        """The threaded baseline: sessions, ledger history and profits,
        everything but the solve times, as one thread solving the assets
        in turn gets them."""
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _InTurn)
        names = ("clear", "cloudy")
        for name, sequential in zip(names, on_two_threads(
                lambda s: run(s, "nocoord"), [study[name][0] for name in names])):
            assert sequential.ok and len(sequential.sessions) == 8, name
            assert _untimed(sequential) == _untimed(baselines[name]), name

    def test_clear_day_thresholds_are_pinned(self, thresholds):
        # in the order of the demands and their profiles in clear.json
        pinned = [450.4, 180.175, 807.475, 311.125, 524.2, 115.0]
        assert [e.threshold for e in thresholds] == pytest.approx(pinned, abs=1e-6)


class TestFinerGrid:
    """Day-ahead models on grids finer than one hour: the shipped days at
    half-hour periods, a model twice the size that branches more, and small
    days where the hourly optimum carries over to the finer grid."""

    @pytest.mark.parametrize("name", ["clear", "cloudy"])
    def test_half_hour_day_ahead_runs_clean(self, name):
        s = refine(load_scenario(SCENARIO_DIR / f"{name}.json"), 2)
        assert (s.n_periods, s.dt) == (48, 0.5)
        assert validate_scenario(s) == []
        result = run(through(s, "dam"))
        assert result.ok
        (dam,) = result.sessions
        assert (dam.status, dam.violations) == ("optimal", ())
        assert result.max_recompute_drift() <= 1e-6
        assert build_report(s, result).verifier_summary() == []

    # columns that hold an event or its cost: the hour's value goes on the
    # hour's first sub-period only
    ONCE_PER_HOUR = {DRES_V, DRES_W, DRES_C1, DRES_C0, PB_START}
    COLUMN = re.compile(r"^(?P<role>[^.]+)\.(?P<entity>.+?)(?:\.t(?P<t>\d+))?$")

    @classmethod
    def _embed(cls, s, reg, x, refined, refined_reg, f):
        """The hourly assignment ``x`` as an assignment of the refined model,
        column by column through the two registries."""
        out = []
        for j, name in enumerate(refined.var_names):
            role, entity, t = cls.COLUMN.match(name).group("role", "entity", "t")
            if t is None:
                assert refined_reg.id(role, entity) == j
                out.append(x[reg.id(role, entity)])
                continue
            t = int(t)
            assert refined_reg.id(role, entity, t) == j
            hour, sub = divmod(t - 1, f)
            value = x[reg.id(role, entity, hour + 1)]
            if role in cls.ONCE_PER_HOUR and sub:
                value = 0.0
            elif role == ENERGY:  # the storage level moves evenly through the hour
                before = (next(a for a in s.stu if a.id == entity).initial_energy
                          if hour == 0 else x[reg.id(role, entity, hour)])
                value = before + (sub + 1) / f * (value - before)
            out.append(value)
        return out

    @pytest.mark.parametrize("day, f", [
        ("toy", 2), ("toy", 3), ("stu0", 2), ("stu1", 2), ("stu2", 2), ("stu3", 2),
    ])
    def test_hourly_optimum_embeds_in_the_refined_day_ahead(self, day, f):
        """With no startup loss, the hourly day-ahead schedule, held through
        each hour, is feasible on the finer grid and earns the same: so the
        refined optimum is at least the hourly one."""
        if day == "toy":
            s = make_scenario(toy_doc())
        else:
            rng = np.random.default_rng(5)
            draws = [random_stu_scenario(rng) for _ in range(4)]
            s = draws[int(day[3:])]
        doc = scenario_to_dict(s)
        for unit in doc["stu"]:
            unit["startupLossFactor"] = 0.0
        s = scenario_from_dict(doc)
        hourly, reg = assemble_dam(s)
        sol = solve(hourly)
        assert sol.status == "optimal"
        refined, refined_reg = assemble_dam(refine(s, f))
        embedded = self._embed(s, reg, sol.values, refined, refined_reg, f)

        assert verify(refined, Solution("feasible", 0.0, tuple(embedded))) == []
        assert recompute_objective(refined, embedded) == pytest.approx(sol.objective,
                                                                       abs=1e-6)
        finer = solve(refined)
        assert finer.status == "optimal"
        assert finer.objective >= sol.objective - 1e-6
