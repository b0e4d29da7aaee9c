"""Shared scenario builders with hand-checkable optima.

The two-bus portfolio below is sized so the interesting quantities can be
verified with pencil and paper:

* day-ahead prices (30, 20, 40) all exceed the plant's 10 EUR/MWh variable
  cost, so the plant runs flat out in every period and pays one startup;
* wind availability (4, 6, 5) is sold in full;
* the flat consumption profile is cheaper to serve than the shifted one,
  so it wins at equal profile cost.

That puts the day-ahead optimum at 440 + 593 - 180 = 853 EUR.
"""

from __future__ import annotations

import copy
import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np
import pytest

from vppopt.milp import MilpModel, ScipyMilpAdapter, Solution, SolveOptions, solve
from vppopt.registry import VariableRegistry
from vppopt.scenario import Scenario, scenario_from_dict
from vppopt.stu import PbCurve

A = TypeVar("A")
T = TypeVar("T")

# the shipped study days, as the CLI and the benchmark read them
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

TOY_DOC = {
    "name": "toy",
    "network": {
        "buses": ["b1", "b2"],
        "mainGridBuses": ["b1"],
        "lines": [
            {"id": "l1", "from": "b1", "to": "b2", "susceptance": 10.0, "flowLimit": 100.0},
        ],
        "tradeCap": {"b1": 50.0},
    },
    "dres": [
        {"id": "gen", "bus": "b2", "pMin": 2.0, "pMax": 10.0, "variableCost": 10.0,
         "startupCost": 7.0, "shutdownCost": 3.0, "initialCommitment": "off"},
    ],
    "ndres": [
        {"id": "wind", "bus": "b2", "pMin": 0.0},
    ],
    "stu": [],
    "demands": [
        {"id": "load", "bus": "b2",
         "profiles": [
             {"id": "flat", "power": [2.0, 2.0, 2.0], "cost": 0.0, "default": True},
             {"id": "shift", "power": [1.0, 2.0, 3.0], "cost": 0.0},
         ],
         "minEnergy": 6.0, "tolLo": 0.25, "tolHi": 0.25,
         "rampDown": 10.0, "rampUp": 10.0},
    ],
    "calendar": {
        "T": 3, "dtHours": 1.0,
        "damPrices": [30.0, 20.0, 40.0],
        "sessions": [
            {"tau": 1, "prices": [30.0, 20.0, 40.0]},
        ],
    },
    "forecasts": {
        "dam": {"ndresAvail": {"wind": [4.0, 6.0, 5.0]}, "stuAvail_th": {}},
        "idm": [
            {"ndresAvail": {"wind": [4.0, 6.0, 5.0]}, "stuAvail_th": {}},
        ],
    },
}

TOY_DAM_OBJECTIVE = 853.0


def on_two_threads(fn: Callable[[A], T], items: Iterable[A]) -> list[T]:
    """``fn`` of each item, in item order, computed on two threads: HiGHS
    releases the GIL while it solves, so both cores work. It holds the
    pool class from import, so a test may swap out
    ``concurrent.futures.ThreadPoolExecutor`` and still use it."""
    with ThreadPoolExecutor(2) as pool:
        return list(pool.map(fn, items))


def toy_doc() -> dict:
    """A deep copy of the toy scenario document, safe to mutate."""
    return copy.deepcopy(TOY_DOC)


def make_scenario(doc: dict) -> Scenario:
    return scenario_from_dict(doc)


def series(reg: VariableRegistry, x, role: str, entity: str, periods) -> tuple[float, ...]:
    """Read a per-period series out of a solution assignment."""
    return tuple(x[reg.id(role, entity, t)] for t in periods)


def row(model: MilpModel, name: str) -> tuple[dict[int, float], str, float, str]:
    """The constraint named ``name``: its coefficients, sense, rhs and name."""
    for r in range(model.n_constraints):
        if model.constraint_name(r) == name:
            return model.constraints[r]
    raise AssertionError(f"no constraint named {name}")


@pytest.fixture
def toy() -> Scenario:
    return make_scenario(toy_doc())


@pytest.fixture
def toy_zero_tol() -> Scenario:
    """Toy variant whose demand band is collapsed to the chosen profile."""
    doc = toy_doc()
    doc["demands"][0]["tolLo"] = 0.0
    doc["demands"][0]["tolHi"] = 0.0
    return make_scenario(doc)


def enumerate_dam_optimum(s: Scenario) -> float:
    """Best day-ahead objective found by exhausting every commitment
    pattern and profile choice, solving the residual LP for each.

    Exponential in dispatchable-unit periods; meant for tiny scenarios
    as an independent reference for the branch-and-bound answer.
    """
    from vppopt.dam import DEM_U, DRES_U, assemble_dam

    model, reg = assemble_dam(s)
    slots = [(a.id, t) for a in s.dres for t in range(1, s.n_periods + 1)]
    profile_ids = [[p.id for p in d.profiles] for d in s.demands]
    best = None
    for pattern in itertools.product((0.0, 1.0), repeat=len(slots)):
        for chosen in itertools.product(*profile_ids):
            sub = copy.deepcopy(model)
            for (aid, t), val in zip(slots, pattern):
                sub.set_bounds(reg.id(DRES_U, aid, t), lb=val, ub=val)
            for d, pid in zip(s.demands, chosen):
                for p in d.profiles:
                    val = 1.0 if p.id == pid else 0.0
                    sub.set_bounds(reg.id(DEM_U, f"{d.id}/{p.id}"), lb=val, ub=val)
            sol = solve(sub)
            if sol.status == "optimal" and (best is None or sol.objective > best):
                best = sol.objective
    if best is None:
        raise AssertionError("every enumerated pattern was infeasible")
    return best


class Sos2EnumerationAdapter:
    """Exact SOS-2 handling by enumerating active segments.

    Each SOS-2 set allows exactly one adjacent pair of nonzero members;
    this oracle tries every combination of active pairs, zeroes out the
    remaining members through their upper bounds, solves the residual
    MILP and keeps the best outcome. Exponential in the number of sets,
    so it suits small models and serves as an independent reference for
    the reformulation route of ``vppopt.milp.solve``.
    """

    def __init__(self, combo_limit: int = 10000):
        self.combo_limit = combo_limit

    def solve(self, model: MilpModel, options: SolveOptions) -> Solution:
        model.validate()
        if not model.sos2_sets:
            return solve(model, options)
        for members, name in model.sos2_sets:
            for m in members:
                if model.lb[m] > 0:
                    raise ValueError(
                        f"SOS-2 set {name!r} member {m} has a positive lower bound; "
                        "members must admit zero")

        n_combos = math.prod(len(members) - 1 for members, _ in model.sos2_sets)
        if n_combos > self.combo_limit:
            raise ValueError(f"{n_combos} segment combinations exceed the enumeration limit")

        t0 = time.perf_counter()
        best: Solution | None = None
        any_limit = False
        any_error = False
        segment_choices = [range(len(members) - 1) for members, _ in model.sos2_sets]
        for combo in itertools.product(*segment_choices):
            sub = copy.deepcopy(model)
            sub.sos2_sets = []
            for (members, _), seg in zip(model.sos2_sets, combo):
                active = {members[seg], members[seg + 1]}
                for m in members:
                    if m not in active:
                        sub.set_bounds(m, ub=0.0)
            res = solve(sub, options)
            if res.status in ("optimal", "feasible"):
                if res.status == "feasible":
                    any_limit = True
                if best is None or res.objective > best.objective:
                    best = res
            elif res.status in ("unbounded", "error", "time_limit"):
                any_error = any_error or res.status != "unbounded"
                if res.status == "unbounded":
                    return replace(res, runtime_s=time.perf_counter() - t0)
        runtime = time.perf_counter() - t0
        if best is None:
            if any_error:
                return Solution(status="error", runtime_s=runtime,
                                message="all segment subproblems failed")
            return Solution(status="infeasible", runtime_s=runtime,
                            message="every segment combination is infeasible")
        status = "feasible" if any_limit else "optimal"
        return replace(best, status=status, runtime_s=runtime)


def eval_pb_oracle(curve: PbCurve, thermal_input: float) -> float:
    """Electrical output of a power block for a thermal input, by direct
    interpolation of its whole curve from the origin: the reference that
    solved models are cross-checked against."""
    if not 0 <= thermal_input <= curve.breakpoints[-1] + 1e-9:
        raise ValueError(
            f"thermal input {thermal_input} outside [0, {curve.breakpoints[-1]}]")
    return float(np.interp(thermal_input, curve.breakpoints, curve.values))


def record_highs_runs(patch: pytest.MonkeyPatch) -> list[bool]:
    """Patch the backend to record each HiGHS run it makes from now on:
    True for a MIP run, False for an LP run (the start and polish LPs)."""
    runs: list[bool] = []  # list.append is atomic, so threaded solves count too
    run_highs = ScipyMilpAdapter._run

    def recorded(low, lower, upper, integer, *rest):
        runs.append(any(integer))
        return run_highs(low, lower, upper, integer, *rest)

    patch.setattr(ScipyMilpAdapter, "_run", staticmethod(recorded))
    return runs


def recompute_objective(model: MilpModel, values: np.ndarray) -> float:
    """Objective value implied by an assignment, independent of the solver."""
    x = np.asarray(values, dtype=float)
    return float(sum(coef * x[v] for v, coef in model.obj.items()))
