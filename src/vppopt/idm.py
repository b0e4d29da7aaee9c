"""Intraday session formulation and the cross-session ledger.

Each intraday session re-optimizes delivery periods at or after its first
covered period tau, taking everything earlier as settled. The
:class:`LedgerState` carries the settled position: each session's trade in
calendar order (the day-ahead first), the selected demand profiles and
the rolling current schedule of every asset. A session model maximizes
the value of trade adjustments at session prices minus the cost of
dispatch changes, subject to the same physical network, asset and demand
constraints, re-imposed on the receding window with initial conditions
read from the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from vppopt import stu as stu_mod
from vppopt.dam import (
    DEM_P,
    DEM_U,
    DRES_C0,
    DRES_C1,
    DRES_P,
    DRES_U,
    DRES_V,
    DRES_W,
    NDRES_P,
    TRADE_BUS,
    TRADE_DAM,
    build_balance_constraints,
    build_dc_flow_constraints,
    build_ndres_constraints,
    build_stu_blocks,
    build_window_objective,
    register_window_variables,
    trade_upper_bound,
)
from vppopt.milp import MilpModel, Solution
from vppopt.registry import VariableRegistry
from vppopt.scenario import ForecastSet, Scenario

IDM_TRADE = "idm_trade"  # session trade adjustment [MW], free sign
DRES_DP = "dres_dp"      # dispatch change vs the previous session [MW]

# the schedule roles the ledger keeps per asset group (a Scenario field)
SCHEDULE_ROLES = {"demands": (DEM_P,), "dres": (DRES_P, DRES_U), "ndres": (NDRES_P,),
                  "stu": (stu_mod.PSF, stu_mod.CHG, stu_mod.DIS, stu_mod.ENERGY,
                          stu_mod.PPB, stu_mod.PB_ON, stu_mod.POWER)}
INTEGRAL_ROLES = (DRES_U, stu_mod.PB_ON)  # binaries, kept as 0/1


@dataclass(frozen=True)
class LedgerState:
    """Settled market position and current schedules after a session.

    ``trades`` holds each recorded session's traded power in calendar
    order: ``trades[0]`` is the day-ahead and ``trades[k]`` intraday
    session ``k``. ``schedules`` is keyed like the registry without the
    period, ``(role, asset id)`` such as ``(DRES_P, "hydro")``, for each
    role of :data:`SCHEDULE_ROLES`. Series span the full horizon; trade
    series are zero outside their session's window, and each schedule
    holds the latest decision for every period: each session overwrites
    its window, earlier periods stay settled.
    """

    trades: tuple[tuple[float, ...], ...]
    selected_profiles: dict[str, str]
    schedules: dict[tuple[str, str], tuple[float, ...]]

    def cumulative_trade(self, t: int) -> float:
        """Committed trade at period t across all recorded sessions."""
        return sum(series[t - 1] for series in self.trades)


def _binary(x: float) -> int:
    return 1 if x > 0.5 else 0


def _read_window(ledger: LedgerState, s: Scenario, reg: VariableRegistry,
                 x: tuple[float, ...], first: int, trade_role: str) -> LedgerState:
    """Fold a solved session's assignment on periods ``first``..T into
    the ledger: every schedule is overwritten on that window and kept
    elsewhere, and the session's trade series, zero outside the window,
    is appended."""
    window = range(first, s.n_periods + 1)

    def read(old: tuple, role: str, entity: str) -> tuple:
        new = list(old)
        as_int = role in INTEGRAL_ROLES
        for t in window:
            v = x[reg.id(role, entity, t)]
            new[t - 1] = _binary(v) if as_int else float(v)
        return tuple(new)

    trade = read((0.0,) * s.n_periods, trade_role, "vpp")
    return replace(ledger, trades=ledger.trades + (trade,),
                   schedules={key: read(old, *key) for key, old in ledger.schedules.items()})


def ledger_from_dam(s: Scenario, reg: VariableRegistry, sol: Solution) -> LedgerState:
    """Seed the ledger from a solved day-ahead model: its window is the
    whole horizon, read over zero series."""
    if sol.values is None:
        raise ValueError(f"day-ahead solution has status {sol.status!r}, no assignment")
    x = sol.values
    selected: dict[str, str] = {}
    for d in s.demands:
        chosen = [p.id for p in d.profiles if _binary(x[reg.id(DEM_U, f"{d.id}/{p.id}")])]
        if len(chosen) != 1:
            raise ValueError(f"demand {d.id} selected {len(chosen)} profiles")
        selected[d.id] = chosen[0]
    blank = dict.fromkeys(((role, a.id) for group, roles in SCHEDULE_ROLES.items()
                           for a in getattr(s, group) for role in roles), (0.0,) * s.n_periods)
    return _read_window(LedgerState((), selected, blank), s, reg, x, 1, TRADE_DAM)


def apply_idm(ledger: LedgerState, s: Scenario, reg: VariableRegistry,
              sol: Solution) -> LedgerState:
    """Fold the next session, ``k = len(ledger.trades)``, into the ledger:
    append its trade series and overwrite every schedule on its window."""
    k = len(ledger.trades)
    if sol.values is None:
        raise ValueError(f"session {k} solution has status {sol.status!r}, no assignment")
    return _read_window(ledger, s, reg, sol.values, s.calendar.session(k).first_period,
                        IDM_TRADE)


# ---------------------------------------------------------------------------
# Session model
# ---------------------------------------------------------------------------

def build_idm_trade_constraints(model: MilpModel, reg: VariableRegistry, s: Scenario,
                                ledger: LedgerState, periods: Sequence[int],
                                forecast: ForecastSet) -> None:
    """Tie the session adjustment to the physical bus trades and impose the
    published purchase/sale relaxation bounds on the cumulative position."""
    tau = periods[0]
    charge = sum(a.charge_max for a in s.stu)
    for t in periods:
        prior = ledger.cumulative_trade(t)
        bus_sum = {reg.id(TRADE_BUS, b, t): 1.0 for b in s.network.main_grid_buses}

        # cumulative physical trade = prior position + this session's move
        coeffs = dict(bus_sum)
        coeffs[reg.id(IDM_TRADE, "vpp", t)] = -1.0
        model.add_constraint(coeffs, "==", prior, f"idm_cum_def.t{t}")

        avail = {a.id: forecast.ndres_avail[a.id][t - tau] for a in s.ndres}
        model.add_constraint(dict(bus_sum), "<=", trade_upper_bound(s, avail),
                             f"idm_cum_hi.t{t}")
        flex_load = sum((1.0 + d.tol_hi[t - 1])
                        * d.profile(ledger.selected_profiles[d.id]).power[t - 1]
                        for d in s.demands)
        model.add_constraint(dict(bus_sum), ">=", -(flex_load + charge),
                             f"idm_cum_lo.t{t}")


def build_idm_dres_constraints(model: MilpModel, reg: VariableRegistry, s: Scenario,
                               ledger: LedgerState, periods: Sequence[int]) -> None:
    """Re-commitment against the previous session's plan: output windows,
    per-period change carriers, and the dispatch delta definition."""
    for a in s.dres:
        prev_p = ledger.schedules[DRES_P, a.id]
        prev_u = ledger.schedules[DRES_U, a.id]
        for t in periods:
            p = reg.id(DRES_P, a.id, t)
            u = reg.id(DRES_U, a.id, t)
            v = reg.id(DRES_V, a.id, t)
            w = reg.id(DRES_W, a.id, t)
            dp = reg.id(DRES_DP, a.id, t)
            model.add_constraint({p: 1.0, u: -a.p_max}, "<=", 0.0, f"dres_hi.{a.id}.t{t}")
            model.add_constraint({p: 1.0, u: -a.p_min}, ">=", 0.0, f"dres_lo.{a.id}.t{t}")
            model.add_constraint({v: 1.0, w: -1.0, u: -1.0}, "==", -float(prev_u[t - 1]),
                                 f"dres_recommit.{a.id}.t{t}")
            model.add_constraint({reg.id(DRES_C1, a.id, t): 1.0, v: -a.startup_cost},
                                 "==", 0.0, f"dres_c1.{a.id}.t{t}")
            model.add_constraint({reg.id(DRES_C0, a.id, t): 1.0, w: -a.shutdown_cost},
                                 "==", 0.0, f"dres_c0.{a.id}.t{t}")
            model.add_constraint({dp: 1.0, p: -1.0}, "==", -prev_p[t - 1],
                                 f"dres_delta.{a.id}.t{t}")


def build_idm_demand_constraints(model: MilpModel, reg: VariableRegistry, s: Scenario,
                                 ledger: LedgerState, periods: Sequence[int]) -> None:
    """Tolerance band around the selected profile, ramp limits stitched to
    settled periods, and the residual minimum-energy requirement."""
    tau = periods[0]
    dt = s.dt
    for d in s.demands:
        profile = d.profile(ledger.selected_profiles[d.id])
        settled = ledger.schedules[DEM_P, d.id]
        for t in periods:
            ref = profile.power[t - 1]
            model.set_bounds(reg.id(DEM_P, d.id, t),
                             lb=(1.0 - d.tol_lo[t - 1]) * ref,
                             ub=(1.0 + d.tol_hi[t - 1]) * ref)
        for t in range(max(tau, 2), s.n_periods + 1):
            p = reg.id(DEM_P, d.id, t)
            if t - 1 >= tau:
                prev = reg.id(DEM_P, d.id, t - 1)
                model.add_constraint({p: 1.0, prev: -1.0}, "<=", d.ramp_up * dt,
                                     f"dem_rampup.{d.id}.t{t}")
                model.add_constraint({prev: 1.0, p: -1.0}, "<=", d.ramp_down * dt,
                                     f"dem_rampdn.{d.id}.t{t}")
            else:
                fixed = settled[t - 2]
                model.add_constraint({p: 1.0}, "<=", fixed + d.ramp_up * dt,
                                     f"dem_rampup.{d.id}.t{t}")
                model.add_constraint({p: 1.0}, ">=", fixed - d.ramp_down * dt,
                                     f"dem_rampdn.{d.id}.t{t}")
        consumed = sum(settled[t - 1] for t in range(1, tau)) * dt
        window_terms = {reg.id(DEM_P, d.id, t): dt for t in periods}
        model.add_constraint(window_terms, ">=", d.min_energy - consumed,
                             f"dem_minenergy.{d.id}")


def assemble_idm(s: Scenario, ledger: LedgerState,
                 k: int) -> tuple[MilpModel, VariableRegistry]:
    """Complete model for intraday session k given the ledger so far, under
    the session's own forecast set."""
    session = s.calendar.session(k)
    forecast = s.idm_forecasts[k - 1]  # rule forecast_count keeps it there
    tau = session.first_period
    model = MilpModel(f"idm{k}[{s.name}]" if s.name else f"idm{k}")
    reg = VariableRegistry()
    periods = list(range(tau, s.n_periods + 1))
    register_window_variables(model, reg, s, periods, IDM_TRADE, (DRES_DP,))
    build_balance_constraints(model, reg, s, periods)
    build_dc_flow_constraints(model, reg, s, periods)
    build_idm_trade_constraints(model, reg, s, ledger, periods, forecast)
    build_idm_dres_constraints(model, reg, s, ledger, periods)
    build_ndres_constraints(model, reg, s, periods, forecast)
    build_idm_demand_constraints(model, reg, s, ledger, periods)
    if tau == 1:
        state = {a.id: (a.initial_energy, a.initial_pb_on) for a in s.stu}
    else:
        state = {a.id: (ledger.schedules[stu_mod.ENERGY, a.id][tau - 2],
                        bool(ledger.schedules[stu_mod.PB_ON, a.id][tau - 2]))
                 for a in s.stu}
    build_stu_blocks(model, reg, s, periods, forecast, state)
    model.set_objective(build_window_objective(s, reg, periods, session.prices,
                                               IDM_TRADE, DRES_DP))
    return model, reg
