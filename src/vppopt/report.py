"""Result serialization: the report file set as data, then on disk.

:func:`build_report` lays out every file of a finished run as a
:class:`Report`: per-period traded power for the day-ahead stage and each
intraday session with the running position, final dispatch, storage and
consumption series, the selected profiles, the profit decomposition and
the verifier's sessions, checks and summary, and the sessions that
ended on an unproven incumbent. :func:`emit_report` only
writes that file set, and removes the tables an earlier report left in
the same directory that this one does not hold. CSV files carry 6
decimals for humans and plotting; JSON carries full double precision for
machines.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, fields
from pathlib import Path

from vppopt import stu as stu_mod
from vppopt.orchestrator import (RunResult, SessionResult, ThresholdEntry,
                                 check_aggregate_balance, check_demand_contracts,
                                 check_storage_conservation, passive_demand_profit)
from vppopt.scenario import Scenario

NOCOORD_NOTE = ("no-coordination baseline: every generation asset bids alone at the "
                "full coupling-point capacity with network limits ignored; demands "
                "buy their default profile at day-ahead prices")


@dataclass(frozen=True)
class Report:
    """The report directory as data, both maps in write order: ``tables``
    maps each CSV file name to its header and rows, ``documents`` each
    JSON file name to its document."""

    tables: dict[str, tuple[list[str], list[list]]]
    documents: dict[str, dict]

    def verifier_summary(self) -> list[str]:
        return self.documents["verify.json"]["summary"]


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(word.capitalize() for word in rest)


# verify.json session key per SessionResult field, in declaration order
_RECORD_KEYS = {f.name: _camel(f.name) for f in fields(SessionResult)}


def build_report(s: Scenario, result: RunResult) -> Report:
    """Lay out every file of the report. One builder for both modes: a
    no-coordination run carries the aggregate ledger of its isolated asset
    runs, and its profit document adds the passive demand profits and a
    note on what the baseline assumes. Without a completed session there
    is no ledger, so only the three JSON documents are written."""
    tables: dict[str, tuple[list[str], list[list]]] = {}
    profiles: dict[str, dict] = {}
    checks: dict[str, list[str]] = {}
    ledger = result.ledger
    if ledger is not None:
        periods = range(1, s.n_periods + 1)
        dam_trade, *idm_trades = ledger.trades
        tables["dam.csv"] = (["period", "tradedMW"],
                             [[t, float(v)] for t, v in zip(periods, dam_trade)])
        # committed position after each session: the day-ahead trade plus
        # every session's adjustment up to and including it
        running = list(dam_trade)
        for k, trade in enumerate(idm_trades, start=1):
            running = [c + v for c, v in zip(running, trade)]
            tables[f"idm_{k}.csv"] = (
                ["period", "tradedMW", "cumulativeMW"],
                [[t, float(v), float(c)] for t, v, c in zip(periods, trade, running)])
        dispatch = {a.id: ledger.dres_p[a.id] for a in s.dres}
        dispatch.update((a.id, ledger.ndres_p[a.id]) for a in s.ndres)
        dispatch.update((a.id, ledger.stu_series[a.id][stu_mod.POWER]) for a in s.stu)
        storage = {a.id: ledger.stu_series[a.id][stu_mod.ENERGY] for a in s.stu}
        for name, id_column, unit, series_map in (
                ("dispatch.csv", "assetId", "MW", dispatch),
                ("storage.csv", "stuId", "MWh_th", storage),
                ("demand.csv", "demandId", "MW", ledger.demand_p)):
            if series_map:
                tables[name] = (["period", id_column, unit],
                                [[t, i, float(v)] for i, series in sorted(series_map.items())
                                 for t, v in zip(periods, series)])
        for d in sorted(s.demands, key=lambda d: d.id):
            selected = ledger.selected_profiles[d.id]
            profiles[d.id] = {"selected": selected, "cost": d.profile(selected).cost}
        checks = {
            "demandContracts": check_demand_contracts(s, ledger),
            "aggregateBalance": check_aggregate_balance(s, ledger),
            "storageConservation": check_storage_conservation(s, ledger),
        }

    profit = {
        "scenario": s.name,
        "mode": result.mode,
        "sessions": result.profits,
        "recomputed": dict(result.recomputed_profits),
        "total": result.total_profit,
        "failure": result.failure,
    }
    if result.mode == "nocoord":
        profit["passiveDemandProfit"] = {d.id: passive_demand_profit(s, d) for d in s.demands}
        profit["note"] = NOCOORD_NOTE
    sessions = [{key: getattr(r, name) for name, key in _RECORD_KEYS.items()}
                | {"violations": [str(v) for v in r.violations]} for r in result.sessions]
    summary = [f"{sess['key']}: {v}" for sess in sessions for v in sess["violations"]]
    summary.extend(f"{name}: {p}" for name, problems in checks.items() for p in problems)
    # an unproven incumbent is an answer, not a violation: kept out of the summary
    unproven = [r.key for r in result.sessions if r.status == "feasible"]
    return Report(tables, {
        "profit.json": profit,
        "profiles.json": profiles,
        "verify.json": {"sessions": sessions, "checks": checks, "summary": summary,
                        "unproven": unproven},
    })


def _cell(v):
    """6 decimals for a float, and a value that rounds to zero reads
    ``0.000000`` whatever its sign; anything else as ``csv`` writes it."""
    if not isinstance(v, float):
        return v
    text = f"{v:.6f}"
    return "0.000000" if text == "-0.000000" else text


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


# every CSV file name a report can hold
_TABLE_NAME = re.compile(r"(dam|idm_\d+|dispatch|storage|demand)\.csv")


def emit_report(report: Report, out_dir: str | Path) -> list[Path]:
    """Write the file set, tables first; overwrites are idempotent.
    A report table that this report does not hold, left by an earlier run
    in the same directory, is removed; no other file is touched. Returns
    the paths in write order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for path in out.iterdir():
        if (_TABLE_NAME.fullmatch(path.name) and path.name not in report.tables
                and not path.is_dir()):
            path.unlink()
    for name, (header, rows) in report.tables.items():
        _write_csv(out / name, header, rows)
    for name, doc in report.documents.items():
        (out / name).write_text(json.dumps(doc, indent=2) + "\n")
    return [out / name for name in (*report.tables, *report.documents)]


def emit_thresholds(entries: list[ThresholdEntry], out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "thresholds.csv"
    _write_csv(path, ["demandId", "profileId", "status", "thresholdEUR", "resolutionEUR"],
               [[e.demand_id, e.profile_id, e.status, e.threshold, e.resolution]
                for e in entries])
    return path
