"""Spans around the calls into vppopt's layers, and the per-layer metrics
derived from them.

The tracer replaces each traced function at the name its caller looks up
(several are imported by name into ``orchestrator``, ``report`` and
``cli``), records one span per call and restores the originals when it is
uninstalled. Spans stay in memory; the caller writes them out at the end
of the run. A layer's self time is its spans' duration minus the time
their child spans cover, so along one operation the self times of all
spans add up to the operation's wall time. The root span's self time
(argument parsing, printing, the CLI's own glue) is reported as
``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

SESSION_KEYS = ("dam",) + tuple(f"idm{k}" for k in range(1, 8))

# Per-layer metrics in print order: name -> unit. Times are self times
# summed over one operation; counts are summed over it too.
LAYER_METRICS: dict[str, str] = {
    "scenario.load_s": "s",
    "dam.assemble_s": "s",
    "dam.assemble_calls": "count",
    "idm.assemble_s": "s",
    "idm.assemble_calls": "count",
    "milp.solve_calls": "count",
    "milp.solve_s": "s",
    "milp.reformulate_s": "s",
    "milp.lower_s": "s",
    "highs.mip_s": "s",
    "highs.mip_calls": "count",
    "highs.mip_nodes": "count",
    "highs.mip_gap_max": "ratio",
    "highs.lp_s": "s",
    "highs.lp_calls": "count",
    "model.vars": "count",
    "model.rows": "count",
    "model.binaries": "count",
    "model.nnz": "count",
    "milp.verify_s": "s",
    "milp.violations": "count",
    "idm.ledger_s": "s",
    "orchestrator.self_s": "s",
    "orchestrator.recompute_s": "s",
    "orchestrator.recompute_drift": "EUR",
    "orchestrator.checks_s": "s",
    "orchestrator.sweep_probes": "count",
    "orchestrator.probe_s": "s",
    "report.build_s": "s",
    "report.emit_s": "s",
    "report.bytes": "B",
    **{f"session.{key}.{what}": unit for key in SESSION_KEYS
       for what, unit in (("highs_s", "s"), ("nodes", "count"))},
    "trace.unattributed_s": "s",
    "trace.coverage_pct": "%",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# span name -> metric that receives its self time
_SELF_TIME = {
    "scenario.load": "scenario.load_s",
    "dam.assemble": "dam.assemble_s",
    "idm.assemble": "idm.assemble_s",
    "milp.solve": "milp.solve_s",
    "milp.reformulate": "milp.reformulate_s",
    "milp.adapter": "milp.lower_s",
    "highs.mip": "highs.mip_s",
    "highs.lp": "highs.lp_s",
    "milp.verify": "milp.verify_s",
    "idm.ledger": "idm.ledger_s",
    "orchestrator.run": "orchestrator.self_s",
    "orchestrator.sweep": "orchestrator.self_s",
    "orchestrator.recompute": "orchestrator.recompute_s",
    "orchestrator.checks": "orchestrator.checks_s",
    "orchestrator.probe": "orchestrator.probe_s",
    "report.build": "report.build_s",
    "report.emit": "report.emit_s",
    "op": "trace.unattributed_s",
}

# span name -> metric that counts its calls
_CALLS = {
    "dam.assemble": "dam.assemble_calls",
    "idm.assemble": "idm.assemble_calls",
    "milp.solve": "milp.solve_calls",
    "highs.mip": "highs.mip_calls",
    "highs.lp": "highs.lp_calls",
    "orchestrator.probe": "orchestrator.sweep_probes",
}


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _highs_notes(args, kwargs, res) -> dict:
    """Model size and search statistics of one ``scipy.optimize.milp`` call."""
    c = args[0] if args else kwargs["c"]
    constraints = kwargs.get("constraints") or []
    integrality = kwargs.get("integrality")
    binaries = int((integrality > 0).sum()) if integrality is not None else 0
    notes = {"mip": binaries > 0, "vars": len(c),
             "rows": sum(con.A.shape[0] for con in constraints),
             "nnz": sum(con.A.nnz for con in constraints), "binaries": binaries}
    nodes = getattr(res, "mip_node_count", None)
    gap = getattr(res, "mip_gap", None)
    if nodes is not None:
        notes["nodes"] = int(nodes)
    if gap is not None:
        notes["gap"] = float(gap)
    return notes


def _written_bytes(result) -> dict:
    paths = result if isinstance(result, list) else [result]
    return {"bytes": sum(Path(p).stat().st_size for p in paths)}


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = 0

    # -- recording ------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.op, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, notes=None) -> None:
        """Replace ``owner.attr`` by a traced version of itself.

        ``notes(args, kwargs, result)`` returns attributes for the span; it
        runs after the span has closed, so it adds to the parent's time.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if notes is not None:
                tracer.spans[index].attrs.update(notes(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        import scipy.optimize

        from vppopt import cli, dam, milp, orchestrator, report

        self.wrap(cli, "load_scenario", "scenario.load")
        self.wrap(cli, "run", "orchestrator.run")
        self.wrap(cli, "sweep_profile_costs", "orchestrator.sweep")
        self.wrap(cli, "build_report", "report.build")
        self.wrap(cli, "emit_report", "report.emit", lambda a, k, r: _written_bytes(r))
        self.wrap(cli, "emit_thresholds", "report.emit", lambda a, k, r: _written_bytes(r))
        self.wrap(dam, "assemble_dam", "dam.assemble")
        self.wrap(orchestrator, "assemble_idm", "idm.assemble",
                  lambda a, k, r: {"k": k["k"] if "k" in k else a[2]})
        self.wrap(orchestrator, "solve", "milp.solve")
        self.wrap(orchestrator, "verify", "milp.verify",
                  lambda a, k, r: {"violations": len(r)})
        self.wrap(orchestrator, "ledger_from_dam", "idm.ledger")
        self.wrap(orchestrator, "apply_idm", "idm.ledger")
        self.wrap(orchestrator, "recompute_profits", "orchestrator.recompute")
        self.wrap(orchestrator, "chosen_profiles", "orchestrator.probe")
        for check in ("check_demand_contracts", "check_aggregate_balance",
                      "check_storage_conservation"):
            self.wrap(report, check, "orchestrator.checks")
        self.wrap(milp, "reformulate_sos2_as_binary", "milp.reformulate")
        self.wrap(milp.ScipyMilpAdapter, "solve", "milp.adapter")
        self.wrap(scipy.optimize, "milp", "highs", _highs_notes)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def layer_metrics(self, op: int) -> dict[str, float]:
        """Per-layer metrics of one operation (all but ``trace.overhead_s``
        and ``orchestrator.recompute_drift``, which need the untraced run
        and the report files)."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.op == op]
        out = {name: 0.0 for name in LAYER_METRICS}
        child_time: dict[int, float] = {}
        for _, s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        first_call_seen: set[int] = set()
        session = "dam"
        for i, s in spans:
            name = s.name
            if name == "highs":
                name = "highs.mip" if s.attrs.get("mip") else "highs.lp"
            if name == "dam.assemble":
                session = "dam"
            elif name == "idm.assemble":
                session = f"idm{s.attrs['k']}"
            out[_SELF_TIME[name]] += s.duration - child_time.get(i, 0.0)
            if name in _CALLS:
                out[_CALLS[name]] += 1
            if name.startswith("highs."):
                # the first backend call under an adapter call is the model
                # itself; a second one is the polish LP over the same columns
                if s.parent not in first_call_seen:
                    first_call_seen.add(s.parent)
                    for key in ("vars", "rows", "binaries", "nnz"):
                        out[f"model.{key}"] += s.attrs.get(key, 0)
                out["highs.mip_nodes"] += s.attrs.get("nodes", 0)
                if name == "highs.mip":
                    out["highs.mip_gap_max"] = max(out["highs.mip_gap_max"],
                                                   s.attrs.get("gap", 0.0))
                if session in SESSION_KEYS:
                    out[f"session.{session}.highs_s"] += s.duration
                    out[f"session.{session}.nodes"] += s.attrs.get("nodes", 0)
            out["milp.violations"] += s.attrs.get("violations", 0)
            out["report.bytes"] += s.attrs.get("bytes", 0)
        root = next(s for _, s in spans if s.parent is None)
        out["trace.coverage_pct"] = 100.0 * (1.0 - out["trace.unattributed_s"] / root.duration)
        out["trace.spans"] = len(spans)
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
