"""Result serialization: schedules, trade series, profits, verification.

A :class:`Report` is the flattened, serializable view of a finished run:
per-period traded power for the day-ahead stage and each intraday session,
final dispatch and consumption series, storage trajectories, the profit
decomposition and the verifier summary. CSV files carry 6 decimals for
humans and plotting; JSON carries full double precision for machines.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

from vppopt import stu as stu_mod
from vppopt.orchestrator import (
    RunResult,
    SessionResult,
    check_aggregate_balance,
    check_demand_contracts,
    check_storage_conservation,
    ThresholdEntry,
)
from vppopt.scenario import Scenario

NOCOORD_NOTE = ("no-coordination baseline: every generation asset bids alone at the "
                "full coupling-point capacity with network limits ignored; demands "
                "buy their default profile at day-ahead prices")


@dataclass(frozen=True)
class Report:
    scenario_name: str
    mode: str
    n_periods: int
    profits: dict[str, float]
    recomputed_profits: dict[str, float]
    sessions: list[dict]
    failure: str | None = None
    # read from the ledger of the last completed session; empty without one
    dam_trade: tuple[float, ...] = ()
    idm_trade: dict[int, tuple[float, ...]] = field(default_factory=dict)
    idm_cumulative: dict[int, tuple[float, ...]] = field(default_factory=dict)
    dispatch: dict[str, tuple[float, ...]] = field(default_factory=dict)
    storage: dict[str, tuple[float, ...]] = field(default_factory=dict)
    demand: dict[str, tuple[float, ...]] = field(default_factory=dict)
    chosen_profiles: dict[str, str] = field(default_factory=dict)
    profile_costs: dict[str, float] = field(default_factory=dict)
    checks: dict[str, list[str]] = field(default_factory=dict)
    passive_demand_profit: dict[str, float] = field(default_factory=dict)
    note: str = ""

    @property
    def total_profit(self) -> float:
        return sum(self.profits.values())

    def verifier_summary(self) -> list[str]:
        out = [f"{sess['key']}: {v}" for sess in self.sessions for v in sess["violations"]]
        for name, problems in self.checks.items():
            out.extend(f"{name}: {p}" for p in problems)
        return out


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(word.capitalize() for word in rest)


# verify.json session key per SessionResult field, in declaration order
_RECORD_KEYS = {f.name: _camel(f.name) for f in fields(SessionResult)}


def _session_dicts(result: RunResult) -> list[dict]:
    out = []
    for r in result.sessions:
        doc = {key: getattr(r, name) for name, key in _RECORD_KEYS.items()}
        doc["violations"] = [str(v) for v in r.violations]
        out.append(doc)
    return out


def _running_totals(dam_trade: Sequence[float], idm_trades: Mapping[int, Sequence[float]]
                    ) -> dict[int, tuple[float, ...]]:
    """Committed position after each session: the day-ahead trade plus
    every session's adjustment up to and including it."""
    out: dict[int, tuple[float, ...]] = {}
    running = list(dam_trade)
    for k in sorted(idm_trades):
        running = [c + v for c, v in zip(running, idm_trades[k])]
        out[k] = tuple(running)
    return out


def build_report(s: Scenario, result: RunResult) -> Report:
    """One builder for both modes: a no-coordination run carries the
    aggregate ledger of its isolated asset runs, plus the passive demand
    profits and a note on what the baseline assumes."""
    extra = {}
    if result.mode == "nocoord":
        extra.update(passive_demand_profit=dict(result.passive_demand_profit),
                     note=NOCOORD_NOTE)
    ledger = result.ledger
    if ledger is not None:
        dispatch = {a.id: ledger.dres_p[a.id] for a in s.dres}
        dispatch.update((a.id, ledger.ndres_p[a.id]) for a in s.ndres)
        dispatch.update((a.id, ledger.stu_series[a.id][stu_mod.POWER]) for a in s.stu)
        extra.update(
            dam_trade=ledger.dam_trade,
            idm_trade=dict(ledger.idm_trades),
            idm_cumulative=_running_totals(ledger.dam_trade, ledger.idm_trades),
            dispatch=dispatch,
            storage={a.id: ledger.stu_series[a.id][stu_mod.ENERGY] for a in s.stu},
            demand=dict(ledger.demand_p),
            chosen_profiles=dict(ledger.selected_profiles),
            profile_costs={d.id: d.profile(ledger.selected_profiles[d.id]).cost
                           for d in s.demands},
            checks={
                "demandContracts": check_demand_contracts(s, ledger),
                "aggregateBalance": check_aggregate_balance(s, ledger),
                "storageConservation": check_storage_conservation(s, ledger),
            })
    return Report(
        scenario_name=s.name,
        mode=result.mode,
        n_periods=s.n_periods,
        profits=dict(result.profits.per_session),
        recomputed_profits=dict(result.profits.recomputed),
        sessions=_session_dicts(result),
        failure=result.failure,
        **extra,
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.6f}" if isinstance(v, float) else v for v in row])


def emit_report(report: Report, out_dir: str | Path) -> list[Path]:
    """Write the full file set; overwrites are idempotent. Returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    periods = range(1, report.n_periods + 1)

    if report.dam_trade:
        path = out / "dam.csv"
        _write_csv(path, ["period", "tradedMW"],
                   [[t, float(report.dam_trade[t - 1])] for t in periods])
        written.append(path)

    for k in sorted(report.idm_trade):
        path = out / f"idm_{k}.csv"
        _write_csv(path, ["period", "tradedMW", "cumulativeMW"],
                   [[t, float(report.idm_trade[k][t - 1]),
                     float(report.idm_cumulative[k][t - 1])] for t in periods])
        written.append(path)

    for name, id_column, unit, series_map in (
            ("dispatch.csv", "assetId", "MW", report.dispatch),
            ("storage.csv", "stuId", "MWh_th", report.storage),
            ("demand.csv", "demandId", "MW", report.demand)):
        if series_map:
            path = out / name
            _write_csv(path, ["period", id_column, unit],
                       [[t, i, float(series[t - 1])]
                        for i, series in sorted(series_map.items()) for t in periods])
            written.append(path)

    profit_doc = {
        "scenario": report.scenario_name,
        "mode": report.mode,
        "sessions": report.profits,
        "recomputed": report.recomputed_profits,
        "total": report.total_profit,
        "failure": report.failure,
    }
    if report.mode == "nocoord":
        profit_doc["passiveDemandProfit"] = report.passive_demand_profit
        profit_doc["note"] = report.note
    path = out / "profit.json"
    path.write_text(json.dumps(profit_doc, indent=2) + "\n")
    written.append(path)

    path = out / "profiles.json"
    path.write_text(json.dumps(
        {d: {"selected": p, "cost": report.profile_costs.get(d, 0.0)}
         for d, p in sorted(report.chosen_profiles.items())}, indent=2) + "\n")
    written.append(path)

    path = out / "verify.json"
    path.write_text(json.dumps({
        "sessions": report.sessions,
        "checks": report.checks,
        "summary": report.verifier_summary(),
    }, indent=2) + "\n")
    written.append(path)
    return written


def emit_thresholds(entries: list[ThresholdEntry], out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "thresholds.csv"
    rows = []
    for e in entries:
        rows.append([e.demand_id, e.profile_id, e.status,
                     "" if e.threshold is None else f"{e.threshold:.6f}",
                     f"{e.resolution:.6f}"])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["demandId", "profileId", "status", "thresholdEUR", "resolutionEUR"])
        writer.writerows(rows)
    return path
