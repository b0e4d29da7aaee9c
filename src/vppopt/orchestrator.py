"""Experiment pipeline: day-ahead solve, sequential intraday sessions,
the no-coordination baseline, and the profile-cost sweep.

A run (:func:`run`) walks the calendar's sessions in order: the ``vpp``
mode solves the day-ahead model, seeds the ledger, then solves each
intraday session with its own forecast set. A run of the first sessions
only is a run of the scenario cut after the last of them (:func:`through`).
Every solved session is independently re-verified. The no-coordination
baseline (``nocoord``) gives each asset its own isolated walk of the
same sessions (demands stay passive on their default profile), advances
the walks together one session at a time and folds each session into one
ledger, so the two modes are comparable profit-for-profit and
check-for-check; it stops, with every asset, at the first session any
asset failed. Either way the result is the session walk
(:class:`RunResult`); its profits, total and failure are read from it.
The sweep finds, per demand profile, the largest
payment at which the optimizer still picks it over the default, in
closed form from two solves of the scenario's own day-ahead model with
the choice held either way, each verified like a run's session.

MILPs that do not depend on each other run at the same time, one per
core, on the standard library's ``ThreadPoolExecutor``: the baseline's
isolated asset solves of one session, and the sweep's held day-ahead
solves. HiGHS releases the GIL while it solves, so threads put every
core to work. A baseline run keeps one pool for all its sessions, and
the sweep opens one for its single batch; ``vpp`` runs open none. Each
opens its pool inside the function, not with the module:
``concurrent.futures`` loads ``logging``, which a process that opens no
pool need not pay for. The sessions themselves stay sequential: each
intraday session starts from the ledger the previous one left, and its
solve from the previous solve's plan.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Iterator, Mapping, Sequence

from vppopt import dam as dam_mod
from vppopt import stu as stu_mod
from vppopt.idm import LedgerState, apply_idm, assemble_idm, ledger_from_dam
from vppopt.milp import MilpModel, Solution, SolveOptions, Violation, solve, verify
from vppopt.registry import VariableRegistry
from vppopt.scenario import DemandAsset, ForecastSet, Network, Scenario


@dataclass(frozen=True)
class SessionResult:
    """One solved session. The fields, in this order and in camelCase,
    are the session record of ``verify.json``; a no-coordination run sums
    its assets' values of every field after ``violations`` but
    ``abs_gap`` and ``start_objective``, starting from the field's
    default."""

    key: str  # "dam" or "idm<k>"
    status: str
    objective: float | None
    violations: tuple[Violation, ...]
    runtime_s: float = 0.0
    n_vars: int = 0
    n_constraints: int = 0
    # size as HiGHS received the model, after the SOS-2 reformulation
    n_binaries: int = 0
    n_nonzeros: int = 0
    nodes: int = 0  # branch-and-bound nodes
    lp_iterations: int = 0  # simplex iterations of the MILP solve
    abs_gap: float | None = None  # |objective - dual bound|, EUR
    # value of keeping the previous session's commitments, EUR; None
    # without a start or when they no longer fit (Solution.start_objective)
    start_objective: float | None = None


@dataclass(frozen=True)
class RunResult:
    """A run's session walk: each walked session's result in calendar
    order, the ledger after each completed one, and the completed
    sessions' profits recomputed from that ledger history, independently
    of the solver. Only the last session can have failed, and it has no
    ledger; every other value of the run is read from these fields."""

    mode: str
    sessions: tuple[SessionResult, ...]
    ledger_history: tuple[LedgerState, ...]
    recomputed_profits: dict[str, float]

    @property
    def failure(self) -> str | None:
        """The key of the session that stopped the run, if one did."""
        n = len(self.ledger_history)
        return self.sessions[n].key if n < len(self.sessions) else None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def ledger(self) -> LedgerState | None:
        """The ledger after the last completed session."""
        return self.ledger_history[-1] if self.ledger_history else None

    @property
    def profits(self) -> dict[str, float]:
        """Each completed session's verified objective, by key."""
        return {r.key: r.objective for r in self.sessions[:len(self.ledger_history)]}

    @property
    def total_profit(self) -> float:
        return sum(self.profits.values(), 0.0)

    def max_recompute_drift(self) -> float:
        """The largest gap between a completed session's profit and its
        recomputation."""
        return max((abs(v - self.recomputed_profits[k]) for k, v in self.profits.items()),
                   default=0.0)


def session_keys(s: Scenario) -> list[str]:
    """The sessions of ``s`` in calendar order: ``"dam"``, then
    ``"idm<k>"`` for the ``k``-th intraday session."""
    return ["dam"] + [f"idm{k}" for k in range(1, len(s.calendar.sessions) + 1)]


def through(s: Scenario, key: str) -> Scenario:
    """``s`` with its calendar cut after session ``key``: a run of it is
    the run of ``s`` up to and including that session, since no session
    depends on a later one. Raises ``ValueError`` for a key that is not
    in :func:`session_keys`."""
    keys = session_keys(s)
    if key not in keys:
        raise ValueError(f"no session {key!r}; the day's sessions are {', '.join(keys)}")
    n = keys.index(key)
    return replace(s, calendar=replace(s.calendar, sessions=s.calendar.sessions[:n]),
                   idm_forecasts=s.idm_forecasts[:n])


# ---------------------------------------------------------------------------
# Profit recomputation (independent of solver objective values)
# ---------------------------------------------------------------------------

def _commitment_costs(u: Sequence[int], prev: Sequence[int], startup: float,
                      shutdown: float, periods: Sequence[int]) -> float:
    """Start/stop cost of a commitment pattern against ``prev``, the
    status before each period: the previous period's (day-ahead) or the
    prior plan's (intraday recommitment)."""
    total = 0.0
    for t in periods:
        delta = u[t - 1] - prev[t - 1]
        if delta > 0:
            total += startup
        elif delta < 0:
            total += shutdown
    return total


def recompute_dam_profit(s: Scenario, ledger: LedgerState) -> float:
    """Day-ahead profit implied by the ledger's day-ahead stage."""
    dt = s.dt
    revenue = sum(price * trade for price, trade
                  in zip(s.calendar.dam_prices, ledger.trades[0])) * dt
    cost = 0.0
    periods = range(1, s.n_periods + 1)
    for a in s.dres:
        cost += a.variable_cost * dt * sum(ledger.schedules[dam_mod.DRES_P, a.id])
        u = ledger.schedules[dam_mod.DRES_U, a.id]
        cost += _commitment_costs(u, (1 if a.initial_on else 0,) + u[:-1],
                                  a.startup_cost, a.shutdown_cost, periods)
    for d in s.demands:
        cost += d.profile(ledger.selected_profiles[d.id]).cost
    return revenue - cost


def recompute_idm_profit(s: Scenario, before: LedgerState, after: LedgerState,
                         k: int) -> float:
    """Session profit from the schedules it changed."""
    sess = s.calendar.session(k)
    tau = sess.first_period
    dt = s.dt
    trade = after.trades[k]
    revenue = sum(sess.prices[t - tau] * trade[t - 1] * dt
                  for t in range(tau, s.n_periods + 1))
    cost = 0.0
    window = range(tau, s.n_periods + 1)
    for a in s.dres:
        p, u = (dam_mod.DRES_P, a.id), (dam_mod.DRES_U, a.id)
        for t in window:
            delta = after.schedules[p][t - 1] - before.schedules[p][t - 1]
            cost += a.variable_cost * delta * dt
        cost += _commitment_costs(after.schedules[u], before.schedules[u],
                                  a.startup_cost, a.shutdown_cost, window)
    return revenue - cost


def recompute_profits(s: Scenario, history: Sequence[LedgerState]) -> dict[str, float]:
    """Profit per session of a ledger history: step ``k`` is session ``k``."""
    keys = session_keys(s)
    out = {keys[0]: recompute_dam_profit(s, history[0])}
    for k, (before, after) in enumerate(zip(history, history[1:]), start=1):
        out[keys[k]] = recompute_idm_profit(s, before, after, k)
    return out


# ---------------------------------------------------------------------------
# VPP pipeline
# ---------------------------------------------------------------------------

def _solve_session(model: MilpModel, options: SolveOptions | None, key: str,
                   start: Mapping[str, float] | None) -> tuple[Solution, SessionResult]:
    sol = solve(model, options, start)
    violations: tuple[Violation, ...] = ()
    if sol.values is not None:
        violations = tuple(verify(model, sol))
    abs_gap = None
    if sol.objective is not None and sol.dual_bound is not None:
        abs_gap = abs(sol.objective - sol.dual_bound)
    result = SessionResult(key=key, status=sol.status, objective=sol.objective,
                           violations=violations, runtime_s=sol.runtime_s,
                           n_vars=model.n_vars, n_constraints=model.n_constraints,
                           n_binaries=sol.n_binaries, n_nonzeros=sol.n_nonzeros,
                           nodes=sol.nodes, lp_iterations=sol.lp_iterations,
                           abs_gap=abs_gap, start_objective=sol.start_objective)
    return sol, result


# a walked session: its result and the ledger after it, None when it failed
_Step = tuple[SessionResult, LedgerState | None]


def _sessions(s: Scenario, options: SolveOptions | None) -> Iterator[_Step]:
    """Walk the scenario's sessions in order, day-ahead first: each one is
    assembled from the ledger the previous one left, solved, verified and
    folded into the ledger. The walk ends after the first session that
    produces no assignment.

    An intraday session corrects the plan the previous one left, so its
    solve starts from that solve's integer assignment
    (:attr:`Solution.integers`); the day-ahead solve has no start."""
    ledger, start = None, None
    for k, key in enumerate(session_keys(s)):
        model, reg = (dam_mod.assemble_dam(s) if k == 0
                      else assemble_idm(s, ledger, k))
        sol, res = _solve_session(model, options, key, start)
        if sol.values is None:
            yield res, None
            return
        ledger = (ledger_from_dam(s, reg, sol) if k == 0
                  else apply_idm(ledger, s, reg, sol))
        start = sol.integers
        yield res, ledger


# ---------------------------------------------------------------------------
# No-coordination baseline
# ---------------------------------------------------------------------------

def single_asset_scenario(s: Scenario, asset_id: str) -> Scenario:
    """Isolate one generation asset: its own bus becomes the only bus and
    the sole coupling point carrying the full trade capacity; the rest of
    the portfolio disappears. Network limits are intentionally absent."""
    kind, bus = None, ""
    for group, name in ((s.dres, "dres"), (s.ndres, "ndres"), (s.stu, "stu")):
        for a in group:
            if a.id == asset_id:
                kind, bus = name, a.bus
    if kind is None:
        raise KeyError(f"{asset_id!r} is not a generation asset")
    total_cap = sum(s.network.trade_cap.values())
    net = Network(buses=(bus,), main_grid_buses=(bus,), lines=(),
                  trade_cap={bus: total_cap})

    def filter_forecast(fc: ForecastSet) -> ForecastSet:
        return ForecastSet(
            ndres_avail={asset_id: fc.ndres_avail[asset_id]} if kind == "ndres" else {},
            stu_avail={asset_id: fc.stu_avail[asset_id]} if kind == "stu" else {},
        )

    return replace(
        s,
        name=f"{s.name}:{asset_id}" if s.name else asset_id,
        network=net,
        dres=tuple(a for a in s.dres if a.id == asset_id),
        ndres=tuple(a for a in s.ndres if a.id == asset_id),
        stu=tuple(a for a in s.stu if a.id == asset_id),
        demands=(),
        dam_forecast=filter_forecast(s.dam_forecast),
        idm_forecasts=tuple(map(filter_forecast, s.idm_forecasts)),
    )


def passive_demand_profit(s: Scenario, d: DemandAsset) -> float:
    """A passive demand buys its default profile at day-ahead prices; its
    contribution to the aggregate is the negative purchase cost."""
    profile = d.default_profile()
    return -sum(price * p for price, p
                in zip(s.calendar.dam_prices, profile.power)) * s.dt


def _aggregate_ledger(s: Scenario, n_sessions: int,
                      parts: Sequence[LedgerState]) -> LedgerState:
    """The portfolio's ledger after its first ``n_sessions`` sessions:
    the isolated assets' trades summed session by session in asset order,
    their own schedules, and every demand on its default profile, bought
    day-ahead."""
    defaults = {d.id: d.default_profile() for d in s.demands}
    trades = [[0.0] * s.n_periods for _ in range(n_sessions)]
    for part in parts:
        trades = [[x + y for x, y in zip(acc, series)]
                  for acc, series in zip(trades, part.trades)]
    for profile in defaults.values():
        trades[0] = [x - y for x, y in zip(trades[0], profile.power)]
    schedules = {(dam_mod.DEM_P, did): p.power for did, p in defaults.items()}
    schedules.update(item for part in parts for item in part.schedules.items())
    return LedgerState(trades=tuple(map(tuple, trades)),
                       selected_profiles={did: p.id for did, p in defaults.items()},
                       schedules=schedules)


_SUMMED_FIELDS = tuple(f for f in fields(SessionResult)
                       if f.name not in ("key", "status", "objective", "violations",
                                         "abs_gap", "start_objective"))


def _no_coordination(s: Scenario, options: SolveOptions | None) -> list[_Step]:
    """Every asset bids alone; demands stay passive on the default profile.

    Each generation asset walks its own session sequence
    (:func:`_sessions`) on an isolated single-bus scenario over the same
    calendar and its own forecasts. The walks advance together, one
    session at a time: each session's asset steps do not depend on each
    other. The calling thread takes the first, a solar-thermal unit's
    (the longest), so its HiGHS working set stays in the main thread's
    memory arena; one thread pool kept for the whole run takes the others, on
    one thread per further core, and the next session starts when all of
    them are done. The earliest step in that order that raises ends the
    run with its exception, once the session's other steps have
    finished. Each session's parts fold in portfolio order (so every sum
    is the sequential one) into one aggregate ledger, and a session's
    objective is its parts' objectives summed in the same order; profits,
    their recomputation and the post-hoc checks thus treat the baseline
    like a VPP run. Like the VPP walk, the run stops at the first session
    any asset failed, and no asset walk goes past it. The passive demand
    purchases are added to the day-ahead objective.
    """
    from concurrent.futures import ThreadPoolExecutor

    keys = session_keys(s)
    portfolio = [a.id for a in s.dres + s.ndres + s.stu]
    longest_first = [a.id for a in s.stu + s.dres + s.ndres]
    walks = {aid: _sessions(single_asset_scenario(s, aid), options) for aid in longest_first}
    passive = sum(passive_demand_profit(s, d) for d in s.demands)
    steps: list[_Step] = []
    threads = max(min(os.cpu_count() or 1, len(walks)) - 1, 1)  # besides this one
    with ThreadPoolExecutor(threads) as pool:  # one for all sessions
        for k, key in enumerate(keys):
            futures = {aid: pool.submit(next, walks[aid]) for aid in longest_first[1:]}
            stepped = {aid: next(walks[aid]) for aid in longest_first[:1]}
            stepped.update((aid, future.result()) for aid, future in futures.items())
            parts = [stepped[aid][0] for aid in portfolio]
            ledgers = [stepped[aid][1] for aid in portfolio]
            failed = [p for p, led in zip(parts, ledgers) if led is None]
            ledger = None if failed else _aggregate_ledger(s, k + 1, ledgers)
            objective = None
            if not failed:
                objective = float(sum(p.objective for p in parts))
                if k == 0:
                    objective += passive
            steps.append((SessionResult(
                key=key,
                # a failed part's status comes first; it is never "optimal"
                status=next((p.status for p in failed + parts if p.status != "optimal"),
                            "optimal"),
                objective=objective,
                violations=tuple(v for p in parts for v in p.violations),
                # the parts' gaps add up to a bound on the aggregate's gap
                abs_gap=None if any(p.abs_gap is None for p in parts)
                else sum((p.abs_gap for p in parts), 0.0),
                # no asset solve, no start
                start_objective=None if not parts or any(
                    p.start_objective is None for p in parts)
                else sum((p.start_objective for p in parts), 0.0),
                **{f.name: sum((getattr(p, f.name) for p in parts), f.default)
                   for f in _SUMMED_FIELDS}), ledger))
            if failed:
                break
    return steps


def run(s: Scenario, mode: str = "vpp", options: SolveOptions | None = None) -> RunResult:
    """Run every session of ``s`` coordinated (``"vpp"``, :func:`_sessions`)
    or with every asset alone (``"nocoord"``, :func:`_no_coordination`).
    The run stops at the first session that fails to produce an assignment;
    completed sessions keep their results, and their profits are
    recomputed from the ledger history. Raises ``ValueError`` for an
    unknown mode."""
    if mode == "vpp":
        steps = list(_sessions(s, options))
    elif mode == "nocoord":
        steps = _no_coordination(s, options)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    history = tuple(ledger for _, ledger in steps if ledger is not None)
    return RunResult(mode, tuple(res for res, _ in steps), history,
                     recompute_profits(s, history) if history else {})


# ---------------------------------------------------------------------------
# Profile-cost sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdEntry:
    demand_id: str
    profile_id: str
    status: str  # "threshold" | "never" | "above_max"
    threshold: float | None
    resolution: float


def _day_ahead(s: Scenario, held: str | None = None) -> tuple[Solution, VariableRegistry]:
    """The day-ahead model of ``s``, solved and verified like a run's
    session, with the ``"<demand>/<profile>"`` selector ``held`` fixed at 1
    when given. Raises ``RuntimeError`` when the solve ends short of a
    proven optimum (an unproven incumbent gives no exact break-even) or
    the assignment violates the model."""
    model, reg = dam_mod.assemble_dam(s)
    if held is not None:
        model.set_bounds(reg.id(dam_mod.DEM_U, held), lb=1.0)
    sol, result = _solve_session(model, None, "dam", None)
    if sol.status != "optimal":
        raise RuntimeError(f"day-ahead solve failed: {sol.status} {sol.message}")
    if result.violations:
        raise RuntimeError(f"day-ahead solve has {len(result.violations)} violations, "
                           f"the first {result.violations[0]}")
    return sol, reg


def chosen_profiles(s: Scenario) -> tuple[dict[str, str], float]:
    """Solve the day-ahead stage and read the selected profile per demand."""
    sol, reg = _day_ahead(s)
    return ledger_from_dam(s, reg, sol).selected_profiles, float(sol.objective)


def sweep_profile_costs(s: Scenario, demand_id: str | None = None,
                        profile_id: str | None = None, max_cost: float = 1000.0,
                        resolution: float = 1.0) -> list[ThresholdEntry]:
    """Largest payment at which a non-default profile is still selected
    over its demand's default.

    Each (demand, profile) pair is contested in the scenario's own
    day-ahead model, the one ``run`` solves, with every other profile and
    purchase cap in place. The payment ``c`` enters the objective only
    through the challenger's selector, so with ``V_ch`` the optimum with
    the challenger held (plus its own payment, giving its value at zero
    payment) and ``V_def`` the optimum with the default held, the
    challenger wins while ``V_ch - c`` exceeds ``V_def``. Two solves give
    the break-even payment ``V_ch - V_def`` exactly; the reported
    threshold keeps ``resolution / 2`` below it, so the challenger is
    still picked over the default at the threshold and dropped one
    resolution above it. Each held solve is verified like a run's session
    (:func:`_day_ahead`). Each distinct held model is solved once, so a
    demand's default-held solve serves all of its pairs; the held solves are
    independent and run on a thread pool, one thread per core, for the
    span of the call. The calling thread only waits: the held solves
    differ in length, and a fixed share of them on this thread would end
    later than the pool's threads taking each one as they come free.
    """
    from concurrent.futures import ThreadPoolExecutor

    if resolution <= 0:
        raise ValueError("resolution must be positive")
    pairs = [(d, p) for d in s.demands if demand_id in (None, d.id)
             for p in d.profiles if not p.default and profile_id in (None, p.id)]
    if (demand_id is not None or profile_id is not None) and not pairs:
        raise KeyError(f"no non-default profile matches demand={demand_id} "
                       f"profile={profile_id}")

    selectors = list(dict.fromkeys(f"{d.id}/{kept.id}" for d, p in pairs
                                   for kept in (p, d.default_profile())))
    with ThreadPoolExecutor(max(min(os.cpu_count() or 1, len(selectors)), 1)) as pool:
        held = dict(zip(selectors, pool.map(partial(_day_ahead, s), selectors)))
    out = []
    for d, p in pairs:
        ch, _ = held[f"{d.id}/{p.id}"]
        default, _ = held[f"{d.id}/{d.default_profile().id}"]
        gain = ch.objective + p.cost - default.objective
        if gain <= 0:
            out.append(ThresholdEntry(d.id, p.id, "never", None, resolution))
        elif gain >= max_cost:
            out.append(ThresholdEntry(d.id, p.id, "above_max", None, resolution))
        else:
            out.append(ThresholdEntry(d.id, p.id, "threshold",
                                      max(gain - resolution / 2.0, 0.0), resolution))
    return out


# ---------------------------------------------------------------------------
# Independent post-hoc checkers
# ---------------------------------------------------------------------------

CHECK_TOL = 1e-6  # absolute tolerance of the checkers below


def check_demand_contracts(s: Scenario, ledger: LedgerState) -> list[str]:
    """Re-check every demand's settled consumption against its contract:
    tolerance band around the selected profile, ramp limits, and the
    minimum-energy floor. Independent of any solver artifact."""
    out = []
    dt = s.dt
    for d in s.demands:
        profile = d.profile(ledger.selected_profiles[d.id])
        series = ledger.schedules[dam_mod.DEM_P, d.id]
        for t in range(1, s.n_periods + 1):
            ref = profile.power[t - 1]
            lo = (1.0 - d.tol_lo[t - 1]) * ref
            hi = (1.0 + d.tol_hi[t - 1]) * ref
            if not lo - CHECK_TOL <= series[t - 1] <= hi + CHECK_TOL:
                out.append(f"{d.id}: period {t} consumption {series[t - 1]:.6f} "
                           f"outside band [{lo:.6f}, {hi:.6f}]")
        for t in range(2, s.n_periods + 1):
            step = series[t - 1] - series[t - 2]
            if step > d.ramp_up * dt + CHECK_TOL:
                out.append(f"{d.id}: period {t} ramp-up {step:.6f} exceeds "
                           f"{d.ramp_up * dt:.6f}")
            if -step > d.ramp_down * dt + CHECK_TOL:
                out.append(f"{d.id}: period {t} ramp-down {-step:.6f} exceeds "
                           f"{d.ramp_down * dt:.6f}")
        energy = sum(series) * dt
        if energy < d.min_energy - CHECK_TOL:
            out.append(f"{d.id}: energy {energy:.6f} MWh below minimum "
                       f"{d.min_energy:.6f}")
    return out


def check_aggregate_balance(s: Scenario, ledger: LedgerState) -> list[str]:
    """Generation minus consumption must equal the committed trade in
    every period of the final schedules."""
    out = []
    for t in range(1, s.n_periods + 1):
        gen = sum(ledger.schedules[dam_mod.DRES_P, a.id][t - 1] for a in s.dres)
        gen += sum(ledger.schedules[dam_mod.NDRES_P, a.id][t - 1] for a in s.ndres)
        gen += sum(ledger.schedules[stu_mod.POWER, a.id][t - 1] for a in s.stu)
        load = sum(ledger.schedules[dam_mod.DEM_P, d.id][t - 1] for d in s.demands)
        residual = gen - load - ledger.cumulative_trade(t)
        if abs(residual) > CHECK_TOL:
            out.append(f"period {t}: generation {gen:.6f} - load {load:.6f} "
                       f"!= trade {ledger.cumulative_trade(t):.6f} "
                       f"(residual {residual:.3e})")
    return out


def check_storage_conservation(s: Scenario, ledger: LedgerState) -> list[str]:
    """Telescoped storage balance and end-of-horizon window on the final
    storage trajectories."""
    out = []
    dt = s.dt
    for a in s.stu:
        e, chg, dis = (ledger.schedules[role, a.id]
                       for role in (stu_mod.ENERGY, stu_mod.CHG, stu_mod.DIS))
        expected = a.initial_energy + sum(
            a.charge_eff * chg[t] * dt - dis[t] * dt / a.discharge_eff
            for t in range(s.n_periods))
        if abs(e[-1] - expected) > CHECK_TOL:
            out.append(f"{a.id}: end energy {e[-1]:.6f} != telescoped {expected:.6f}")
        lo, hi = a.end_alpha_lo * a.storage_cap[-1], a.end_alpha_hi * a.storage_cap[-1]
        if not lo - CHECK_TOL <= e[-1] <= hi + CHECK_TOL:
            out.append(f"{a.id}: end energy {e[-1]:.6f} outside window "
                       f"[{lo:.6f}, {hi:.6f}]")
    return out
