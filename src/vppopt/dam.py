"""Day-ahead market formulation.

Assembles the full day-ahead MILP: profit objective over traded power,
dispatchable-plant operating costs and demand profile payments; nodal
balances with DC power flow; main-grid trade definition and its
relaxation bounds; unit commitment for dispatchable renewables;
availability bounds for non-dispatchable ones; profile selection for
demands; and the solar-thermal-unit block.

The variable block, the objective and the balance, flow,
non-dispatchable and solar-thermal builders take an explicit period
window: the day-ahead stage is the window that starts at period 1, and
the intraday formulation re-imposes the same builders on its receding
horizon.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from vppopt import stu as stu_mod
from vppopt.milp import MilpModel
from vppopt.registry import VariableRegistry
from vppopt.scenario import ForecastSet, Scenario

# registry roles
TRADE_BUS = "trade"      # per main-grid bus net export [MW]
TRADE_DAM = "dam_trade"  # total day-ahead traded power [MW]
ANGLE = "angle"          # bus voltage angle [rad]
FLOW = "flow"            # line flow, from-bus to to-bus [MW]
DRES_P = "dres_p"
DRES_U = "dres_u"
DRES_V = "dres_v"        # startup indicator
DRES_W = "dres_w"        # shutdown indicator
DRES_C1 = "dres_c1"      # startup cost carrier [EUR]
DRES_C0 = "dres_c0"      # shutdown cost carrier [EUR]
NDRES_P = "ndres_p"
DEM_P = "dem_p"
DEM_U = "dem_u"          # profile selector, entity "<demand>/<profile>"


def reference_bus(s: Scenario) -> str:
    """Angle reference: the lexicographically lowest main-grid bus."""
    if not s.network.main_grid_buses:
        raise ValueError("network has no main-grid bus")
    return min(s.network.main_grid_buses)


def register_window_variables(model: MilpModel, reg: VariableRegistry, s: Scenario,
                              periods: Sequence[int], trade_role: str,
                              dres_free: Sequence[str] = ()) -> None:
    """Declare the physical variable block of a stage over a period window.

    ``trade_role`` names the stage's traded power; each role in
    ``dres_free`` adds one free variable per dispatchable plant and period.
    """
    net = s.network
    for t in periods:
        reg.new(model, trade_role, "vpp", t, lb=-math.inf, ub=math.inf)
        for b in net.main_grid_buses:
            cap = net.trade_cap[b]
            reg.new(model, TRADE_BUS, b, t, lb=-cap, ub=cap)
        for b in net.buses:
            reg.new(model, ANGLE, b, t, lb=-math.inf, ub=math.inf)
        for line in net.lines:
            reg.new(model, FLOW, line.id, t, lb=-line.flow_limit, ub=line.flow_limit)
        for a in s.dres:
            reg.new(model, DRES_P, a.id, t, lb=0.0, ub=a.p_max)
            reg.new(model, DRES_U, a.id, t, kind="binary")
            # startup/shutdown indicators are pinned to 0/1 by the
            # commitment-delta equality once u is binary, so declaring
            # them continuous keeps the optimum and shrinks the tree
            reg.new(model, DRES_V, a.id, t, lb=0.0, ub=1.0)
            reg.new(model, DRES_W, a.id, t, lb=0.0, ub=1.0)
            reg.new(model, DRES_C1, a.id, t, lb=0.0, ub=math.inf)
            reg.new(model, DRES_C0, a.id, t, lb=0.0, ub=math.inf)
            for role in dres_free:
                reg.new(model, role, a.id, t, lb=-math.inf, ub=math.inf)
        for a in s.ndres:
            reg.new(model, NDRES_P, a.id, t, lb=0.0, ub=math.inf)
        for d in s.demands:
            reg.new(model, DEM_P, d.id, t, lb=0.0, ub=math.inf)
    for a in s.stu:
        stu_mod.register_stu_variables(model, reg, a, periods)


def build_window_objective(s: Scenario, reg: VariableRegistry, periods: Sequence[int],
                           prices: Sequence[float], trade_role: str,
                           dres_energy_role: str) -> dict[int, float]:
    """Objective coefficients of a stage over a period window: the trade
    ``trade_role`` at the stage's ``prices`` (one per period of the
    window) minus each dispatchable plant's energy cost, charged on
    ``dres_energy_role``, and its startup and shutdown cost carriers."""
    dt = s.dt
    coeffs: dict[int, float] = {}
    for t, price in zip(periods, prices, strict=True):
        coeffs[reg.id(trade_role, "vpp", t)] = price * dt
        for a in s.dres:
            coeffs[reg.id(dres_energy_role, a.id, t)] = -a.variable_cost * dt
            coeffs[reg.id(DRES_C1, a.id, t)] = -1.0
            coeffs[reg.id(DRES_C0, a.id, t)] = -1.0
    return coeffs


def build_balance_constraints(model: MilpModel, reg: VariableRegistry, s: Scenario,
                              periods: Sequence[int]) -> None:
    """Nodal power balance; main-grid buses carry the trade withdrawal."""
    net = s.network
    gens_at: dict[str, list[tuple[str, str]]] = {b: [] for b in net.buses}
    loads_at: dict[str, list[str]] = {b: [] for b in net.buses}
    for a in s.dres:
        gens_at[a.bus].append((DRES_P, a.id))
    for a in s.ndres:
        gens_at[a.bus].append((NDRES_P, a.id))
    for a in s.stu:
        gens_at[a.bus].append((stu_mod.POWER, a.id))
    for d in s.demands:
        loads_at[d.bus].append(d.id)
    pcc = set(net.main_grid_buses)

    for t in periods:
        for b in net.buses:
            coeffs: dict[int, float] = {}
            for role, aid in gens_at[b]:
                coeffs[reg.id(role, aid, t)] = 1.0
            for line in net.lines:
                if line.to_bus == b:
                    coeffs[reg.id(FLOW, line.id, t)] = 1.0
                elif line.from_bus == b:
                    coeffs[reg.id(FLOW, line.id, t)] = -1.0
            if b in pcc:
                coeffs[reg.id(TRADE_BUS, b, t)] = -1.0
            for did in loads_at[b]:
                coeffs[reg.id(DEM_P, did, t)] = -1.0
            model.add_constraint(coeffs, "==", 0.0, f"bal.{b}.t{t}")


def build_dc_flow_constraints(model: MilpModel, reg: VariableRegistry, s: Scenario,
                              periods: Sequence[int]) -> None:
    """Line flows from angle differences; reference angle fixed to zero.

    Flow limits live on the flow variables' bounds."""
    ref = reference_bus(s)
    for t in periods:
        model.set_bounds(reg.id(ANGLE, ref, t), lb=0.0, ub=0.0)
        for line in s.network.lines:
            model.add_constraint(
                {reg.id(FLOW, line.id, t): 1.0,
                 reg.id(ANGLE, line.from_bus, t): -line.susceptance,
                 reg.id(ANGLE, line.to_bus, t): line.susceptance},
                "==", 0.0, f"dcflow.{line.id}.t{t}")


def trade_upper_bound(s: Scenario, avail_ndres: dict[str, float]) -> float:
    """Aggregate sale cap: dispatchable ratings, current availability of
    non-dispatchable plants, and solar-thermal electrical ratings."""
    return (sum(a.p_max for a in s.dres)
            + sum(avail_ndres[a.id] for a in s.ndres)
            + sum(a.electrical_max for a in s.stu))


def trade_lower_bounds(s: Scenario, t: int) -> list[tuple[int, float]]:
    """Aggregate purchase caps, one per profile position.

    Demands are summed by profile list position; a demand with fewer
    profiles simply contributes nothing at the missing positions. Storage
    charge ratings enter as published, in thermal units.
    """
    charge = sum(a.charge_max for a in s.stu)
    n_profiles = max((len(d.profiles) for d in s.demands), default=0)
    out = []
    for j in range(n_profiles):
        load = sum(d.profiles[j].power[t - 1] for d in s.demands if j < len(d.profiles))
        out.append((j, -(load + charge)))
    return out


def build_trade_definition(model: MilpModel, reg: VariableRegistry, s: Scenario,
                           periods: Sequence[int]) -> None:
    """Total trade as the sum of main-grid bus trades, plus the published
    relaxation bounds on what the portfolio can sell or buy."""
    fc = s.dam_forecast
    for t in periods:
        total = reg.id(TRADE_DAM, "vpp", t)
        coeffs = {total: 1.0}
        for b in s.network.main_grid_buses:
            coeffs[reg.id(TRADE_BUS, b, t)] = -1.0
        model.add_constraint(coeffs, "==", 0.0, f"trade_def.t{t}")

        avail = {a.id: fc.ndres_avail[a.id][t - 1] for a in s.ndres}
        model.add_constraint({total: 1.0}, "<=", trade_upper_bound(s, avail),
                             f"trade_hi.t{t}")
        for j, bound in trade_lower_bounds(s, t):
            model.add_constraint({total: 1.0}, ">=", bound, f"trade_lo.p{j}.t{t}")


def build_dres_constraints(model: MilpModel, reg: VariableRegistry, s: Scenario) -> None:
    """Unit commitment over the full horizon with start/stop cost carriers."""
    for a in s.dres:
        for t in range(1, s.n_periods + 1):
            p = reg.id(DRES_P, a.id, t)
            u = reg.id(DRES_U, a.id, t)
            v = reg.id(DRES_V, a.id, t)
            w = reg.id(DRES_W, a.id, t)
            model.add_constraint({p: 1.0, u: -a.p_max}, "<=", 0.0, f"dres_hi.{a.id}.t{t}")
            model.add_constraint({p: 1.0, u: -a.p_min}, ">=", 0.0, f"dres_lo.{a.id}.t{t}")
            transition = {v: 1.0, w: -1.0, u: -1.0}
            if t == 1:
                rhs = -1.0 if a.initial_on else 0.0
                model.add_constraint(transition, "==", rhs, f"dres_uc.{a.id}.t{t}")
            else:
                transition[reg.id(DRES_U, a.id, t - 1)] = 1.0
                model.add_constraint(transition, "==", 0.0, f"dres_uc.{a.id}.t{t}")
            model.add_constraint({reg.id(DRES_C1, a.id, t): 1.0, v: -a.startup_cost},
                                 "==", 0.0, f"dres_c1.{a.id}.t{t}")
            model.add_constraint({reg.id(DRES_C0, a.id, t): 1.0, w: -a.shutdown_cost},
                                 "==", 0.0, f"dres_c0.{a.id}.t{t}")


def build_ndres_constraints(model: MilpModel, reg: VariableRegistry, s: Scenario,
                            periods: Sequence[int], forecast: ForecastSet) -> None:
    """Output window per period: technical minimum up to forecast availability.

    Forecast series start at the window's first period."""
    tau = periods[0]
    for a in s.ndres:
        series = forecast.ndres_avail[a.id]
        for t in periods:
            model.set_bounds(reg.id(NDRES_P, a.id, t), lb=a.p_min[t - 1], ub=series[t - tau])


def build_demand_profile_constraints(model: MilpModel, reg: VariableRegistry,
                                     s: Scenario) -> None:
    """Pick exactly one profile per demand; consumption equals it."""
    for d in s.demands:
        selectors = {reg.id(DEM_U, f"{d.id}/{p.id}"): 1.0 for p in d.profiles}
        model.add_constraint(selectors, "==", 1.0, f"dem_one.{d.id}")
        for t in range(1, s.n_periods + 1):
            coeffs = {reg.id(DEM_U, f"{d.id}/{p.id}"): p.power[t - 1] for p in d.profiles}
            coeffs[reg.id(DEM_P, d.id, t)] = -1.0
            model.add_constraint(coeffs, "==", 0.0, f"dem_sel.{d.id}.t{t}")


def build_stu_blocks(model: MilpModel, reg: VariableRegistry, s: Scenario,
                     periods: Sequence[int], forecast: ForecastSet,
                     state: Mapping[str, tuple[float, bool]]) -> None:
    """Solar-thermal units over a window. ``state`` maps each unit to its
    storage energy and power-block status one period before the window."""
    tau = periods[0]
    for a in s.stu:
        series = forecast.stu_avail[a.id]
        avail = {t: series[t - tau] for t in periods}
        energy, pb_on = state[a.id]
        stu_mod.build_stu_constraints(model, reg, a, periods, avail, s.dt, energy, pb_on)
        stu_mod.build_pb_conversion(model, reg, a, periods, avail)


def assemble_dam(s: Scenario) -> tuple[MilpModel, VariableRegistry]:
    """Complete day-ahead model for a scenario."""
    model = MilpModel(f"dam[{s.name}]" if s.name else "dam")
    reg = VariableRegistry()
    periods = list(range(1, s.n_periods + 1))
    register_window_variables(model, reg, s, periods, TRADE_DAM)
    for d in s.demands:
        for p in d.profiles:
            reg.new(model, DEM_U, f"{d.id}/{p.id}", None, kind="binary")
    build_balance_constraints(model, reg, s, periods)
    build_dc_flow_constraints(model, reg, s, periods)
    build_trade_definition(model, reg, s, periods)
    build_dres_constraints(model, reg, s)
    build_ndres_constraints(model, reg, s, periods, s.dam_forecast)
    build_demand_profile_constraints(model, reg, s)
    build_stu_blocks(model, reg, s, periods, s.dam_forecast,
                     {a.id: (a.initial_energy, a.initial_pb_on) for a in s.stu})
    objective = build_window_objective(s, reg, periods, s.calendar.dam_prices,
                                       TRADE_DAM, DRES_P)
    for d in s.demands:  # profile payments are day-ahead only
        for p in d.profiles:
            if p.cost:
                objective[reg.id(DEM_U, f"{d.id}/{p.id}")] = -p.cost
    model.set_objective(objective)
    return model, reg
