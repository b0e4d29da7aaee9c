"""Scenario data model: network, assets, market calendar, forecasts.

A :class:`Scenario` bundles everything one experiment needs: the internal
network with its main-grid coupling points, the four asset classes
(dispatchable and non-dispatchable renewables, solar thermal units with
storage, flexible demands), day-ahead and intraday prices, and one
availability forecast set per market session.

Conventions
-----------
* Powers are MW, energies MWh, prices EUR/MWh, fractions plain decimals.
  Thermal quantities carry an ``_th`` suffix in the JSON schema.
* Periods are 1-based: ``t`` runs from 1 to ``T`` and maps to array
  index ``t - 1``. Session windows cover ``t >= tau``.
* Per-period series are dense. In JSON a scalar may stand in for a
  constant series; it is broadcast on load.
* Scenario values are immutable after construction and safe to share
  across concurrent solver runs.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

MAX_SESSIONS = 7  # intraday sessions a day may hold (rule `too_many_sessions`)
MAX_PERIODS = 1440  # periods a day may hold: one day of one-minute periods
OLD_LAYOUT = ("old scenario layout: session k is the k-th in calendar.sessions, so drop "
              "each session's 'k' and write forecasts.idm as a list in session order")


class ScenarioError(ValueError):
    """Raised when a scenario file cannot be parsed into the data model."""


class ScenarioValidationError(ScenarioError):
    """Raised when a structurally sound scenario violates an invariant."""

    def __init__(self, diagnostics: list["Diagnostic"]):
        self.diagnostics = diagnostics
        first = diagnostics[0]
        more = f" (+{len(diagnostics) - 1} more)" if len(diagnostics) > 1 else ""
        super().__init__(f"invalid scenario: {first}{more}")


@dataclass(frozen=True)
class Diagnostic:
    """One violated validation rule, tied to the offending entity."""

    entity: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"[{self.entity}] {self.rule}: {self.message}"


# ---------------------------------------------------------------------------
# JSON converters
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _req(doc: Any, key: str, where: str, conv: Callable[[Any], Any],
         default: Any = _REQUIRED) -> Any:
    """``conv(doc[key])``, or ``conv(default)`` when the key is absent.

    Every read of the document goes through here, so a missing key, a
    container of the wrong kind or a value ``conv`` rejects raises
    :class:`ScenarioError` naming its path, never a bare ``TypeError``.
    """
    _convert(doc, where or "scenario", _object)
    if key not in doc and default is _REQUIRED:
        raise ScenarioError(f"{where or 'scenario'}: missing required key {key!r}")
    return _convert(doc.get(key, default), f"{where}.{key}" if where else key, conv)


def _convert(value: Any, path: str, conv: Callable[[Any], Any]) -> Any:
    try:
        return conv(value)
    except ScenarioError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _json_type(value: Any) -> str:
    for kind, label in ((bool, "a boolean"), (str, "a string"), (numbers.Real, "a number"),
                        (Mapping, "an object"), ((list, tuple), "an array")):
        if isinstance(value, kind):
            return label
    return "null" if value is None else type(value).__name__


def _number(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {_json_type(value)}")
    return float(value)


def _integer(value: Any) -> int:
    number = _number(value)
    if not number.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(number)


def _typed(kind: type | tuple[type, ...], label: str) -> Callable[[Any], Any]:
    """Converter that passes values of ``kind`` through unchanged."""
    def convert(value: Any) -> Any:
        if not isinstance(value, kind):
            raise TypeError(f"expected {label}, got {_json_type(value)}")
        return value
    return convert


_text = _typed(str, "a string")
_flag = _typed(bool, "a boolean")
_array = _typed((list, tuple), "an array")
_object = _typed(Mapping, "an object")


def _texts(value: Any) -> tuple[str, ...]:
    return tuple(_text(v) for v in _array(value))


def _series(length: int | None) -> Callable[[Any], tuple[float, ...]]:
    """Converter for a scalar (constant series) or a dense list of numbers;
    without a ``length``, any list passes and a scalar stays one number."""
    def convert(value: Any) -> tuple[float, ...]:
        if isinstance(value, (list, tuple)):
            if length is not None and len(value) != length:
                raise ValueError(f"series has length {len(value)}, expected {length}")
            return tuple(_number(v) for v in value)
        return (_number(value),) * (1 if length is None else length)
    return convert


def _on_off(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if value in ("on", "ON"):
        return True
    if value in ("off", "OFF"):
        return False
    raise ValueError(f"expected 'on', 'off' or a boolean, got {value!r}")


@dataclass(frozen=True)
class _ById:
    """An object keyed by id whose every value goes through ``conv``."""

    conv: Any


def _json(key: str, conv: Any, absent: Any = _REQUIRED, **kwargs: Any) -> Any:
    """A field stored under ``key`` in the JSON schema.

    ``conv`` converts the JSON value: a plain converter, ``_series`` for a
    per-period series, an entity class for a list of entities, or
    ``_ById(conv)``. ``absent`` stands in for a missing key, which is
    required without it. ``kwargs`` go to :func:`dataclasses.field`.
    """
    return field(metadata={"json": (key, conv, absent)}, **kwargs)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Line:
    id: str = _json("id", _text)
    from_bus: str = _json("from", _text)
    to_bus: str = _json("to", _text)
    susceptance: float = _json("susceptance", _number)  # p.u.
    flow_limit: float = _json("flowLimit", _number)     # MW


@dataclass(frozen=True)
class Network:
    buses: tuple[str, ...] = _json("buses", _texts)
    main_grid_buses: tuple[str, ...] = _json("mainGridBuses", _texts)  # coupling points
    lines: tuple[Line, ...] = _json("lines", Line, absent=())
    trade_cap: Mapping[str, float] = _json("tradeCap", _ById(_number))  # MW per main-grid bus


@dataclass(frozen=True)
class DresAsset:
    """Dispatchable renewable plant (hydro, biomass), committed like a
    conventional unit with linear operating costs."""

    id: str = _json("id", _text)
    bus: str = _json("bus", _text)
    p_min: float = _json("pMin", _number)  # MW when committed
    p_max: float = _json("pMax", _number)
    variable_cost: float = _json("variableCost", _number)  # EUR/MWh
    startup_cost: float = _json("startupCost", _number)    # EUR
    shutdown_cost: float = _json("shutdownCost", _number)  # EUR
    initial_on: bool = _json("initialCommitment", _on_off, absent="off", default=False)


@dataclass(frozen=True)
class NdresAsset:
    """Non-dispatchable renewable (wind, PV): output capped by the
    per-session availability forecast."""

    id: str = _json("id", _text)
    bus: str = _json("bus", _text)
    p_min: tuple[float, ...] = _json("pMin", _series, absent=0.0)  # MW, technical minimum


@dataclass(frozen=True)
class StuAsset:
    """Solar thermal unit: solar field, thermal storage, and a power block
    whose thermal-to-electric conversion steepens with load."""

    id: str = _json("id", _text)
    bus: str = _json("bus", _text)
    # power block thermal input window and piecewise conversion grid
    pb_min: float = _json("pbMin_th", _number)  # MW_th
    pb_max: float = _json("pbMax_th", _number)
    pb_break1: float = _json("pbBreak1_th", _number)
    pb_break2: float = _json("pbBreak2_th", _number)
    eta1: float = _json("eta1", _number)  # conversion factor per segment, low to high load
    eta2: float = _json("eta2", _number)
    eta3: float = _json("eta3", _number)
    eta4: float = _json("eta4", _number)
    startup_loss: float = _json("startupLossFactor", _number)  # fraction of pb_max lost
    # storage loop
    charge_min: float = _json("chargeMin_th", _number)  # MW_th
    charge_max: float = _json("chargeMax_th", _number)
    discharge_min: float = _json("dischargeMin_th", _number)
    discharge_max: float = _json("dischargeMax_th", _number)
    charge_eff: float = _json("chargeEff", _number)
    discharge_eff: float = _json("dischargeEff", _number)
    storage_cap: tuple[float, ...] = _json("storageCap_th", _series)  # MWh_th per period
    storage_floor: tuple[float, ...] = _json("storageFloor_th", _series, absent=0.0)
    end_alpha_lo: float = _json("endAlphaLo", _number)  # end-of-day window, fraction of cap
    end_alpha_hi: float = _json("endAlphaHi", _number)
    initial_energy: float = _json("initialEnergy_th", _number)  # MWh_th at the start
    # electrical rating, used in aggregate trade bounds
    electrical_min: float = _json("electricalMin", _number)  # MW
    electrical_max: float = _json("electricalMax", _number)
    initial_pb_on: bool = _json("initialPbStatus", _on_off, absent="off", default=False)


@dataclass(frozen=True)
class DemandProfile:
    id: str = _json("id", _text)
    power: tuple[float, ...] = _json("power", _series)  # MW per period
    cost: float = _json("cost", _number, absent=0.0)     # EUR paid to the owner if selected
    default: bool = _json("default", _flag, absent=False, default=False)


@dataclass(frozen=True)
class DemandAsset:
    """Flexible demand: one profile is picked day-ahead, intraday sessions
    may then flex consumption inside a tolerance band."""

    id: str = _json("id", _text)
    bus: str = _json("bus", _text)
    profiles: tuple[DemandProfile, ...] = _json("profiles", DemandProfile)
    min_energy: float = _json("minEnergy", _number)  # MWh over the horizon
    tol_lo: tuple[float, ...] = _json("tolLo", _series, absent=0.0)  # fraction below profile
    tol_hi: tuple[float, ...] = _json("tolHi", _series, absent=0.0)  # fraction above
    ramp_down: float = _json("rampDown", _number)  # MW/h
    ramp_up: float = _json("rampUp", _number)

    def default_profile(self) -> DemandProfile:
        for p in self.profiles:
            if p.default:
                return p
        raise ScenarioError(f"demand {self.id} has no default profile")

    def profile(self, profile_id: str) -> DemandProfile:
        for p in self.profiles:
            if p.id == profile_id:
                return p
        raise KeyError(f"demand {self.id} has no profile {profile_id!r}")


@dataclass(frozen=True)
class IdmSession:
    """An intraday session; the ``k``-th listed is session ``k``."""

    first_period: int = _json("tau", _integer)  # tau: first delivery period covered
    prices: tuple[float, ...] = _json("prices", _series)  # EUR/MWh for t = tau .. T


@dataclass(frozen=True)
class MarketCalendar:
    n_periods: int = _json("T", _integer)
    dt_hours: float = _json("dtHours", _number)
    dam_prices: tuple[float, ...] = _json("damPrices", _series)
    sessions: tuple[IdmSession, ...] = _json("sessions", IdmSession, absent=())

    def session(self, k: int) -> IdmSession:
        """The ``k``-th session in calendar order."""
        if not 1 <= k <= len(self.sessions):
            raise KeyError(f"no intraday session {k}")
        return self.sessions[k - 1]


@dataclass(frozen=True)
class ForecastSet:
    """Availability forecasts for one market session.

    Series span that session's delivery window: the full horizon for the
    day-ahead stage, ``t >= tau`` for an intraday session.
    """

    ndres_avail: Mapping[str, tuple[float, ...]] = _json(  # MW
        "ndresAvail", _ById(_series), absent={})
    stu_avail: Mapping[str, tuple[float, ...]] = _json(  # MW_th from the solar field
        "stuAvail_th", _ById(_series), absent={})


@dataclass(frozen=True)
class Scenario:
    network: Network
    dres: tuple[DresAsset, ...]
    ndres: tuple[NdresAsset, ...]
    stu: tuple[StuAsset, ...]
    demands: tuple[DemandAsset, ...]
    calendar: MarketCalendar
    dam_forecast: ForecastSet
    idm_forecasts: tuple[ForecastSet, ...]  # one per session, in calendar order
    name: str = ""

    @property
    def n_periods(self) -> int:
        return self.calendar.n_periods

    @property
    def dt(self) -> float:
        return self.calendar.dt_hours

    def asset_ids(self) -> list[str]:
        return [a.id for a in self.dres + self.ndres + self.stu + self.demands]


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------

def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON file.

    Raises :class:`ScenarioError` if the file does not parse against the
    schema and :class:`ScenarioValidationError` (carrying the full
    diagnostic list) if any invariant is violated. A document without a
    name is named after the file.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:  # raised by the decoder, not the file
        raise ScenarioError(f"{path}: JSON nests too deep to parse") from exc
    scenario = scenario_from_dict(doc)
    if not scenario.name:
        scenario = replace(scenario, name=path.stem)
    diagnostics = validate_scenario(scenario)
    if diagnostics:
        raise ScenarioValidationError(diagnostics)
    return scenario


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def _entries(doc: Any, key: str, where: str = "",
             default: Any = ()) -> Iterator[tuple[str, Any]]:
    """The objects in the list ``doc[key]`` (optional unless ``default`` is
    ``_REQUIRED``), each with its path; an entry with a string id is named
    by it."""
    path = f"{where}.{key}" if where else key
    for i, entry in enumerate(_req(doc, key, where, _array, default=default)):
        ident = entry.get("id") if isinstance(entry, Mapping) else None
        yield f"{path}[{ident if isinstance(ident, str) else i}]", entry


def _read(cls: type, doc: Any, where: str, horizon: int, tau: int = 1) -> Any:
    """A ``cls`` read from ``doc`` field by field, in declaration order, its
    series over periods ``tau``..``horizon`` (a session's over its own)."""
    values: dict[str, Any] = {}
    for f in fields(cls):
        key, conv, absent = f.metadata["json"]
        item = conv.conv if isinstance(conv, _ById) else conv
        if item is _series:  # tau_range reports a window outside the horizon
            first = values.get("first_period", tau)
            item = _series(horizon - first + 1 if 1 <= first <= horizon else None)
        if isinstance(conv, type):
            values[f.name] = tuple(_read(conv, entry, path, horizon)
                                   for path, entry in _entries(doc, key, where, absent))
        elif isinstance(conv, _ById):  # entry by entry, so each id stays in the path
            by_id = _req(doc, key, where, _object, absent)
            values[f.name] = {str(i): _req(by_id, i, f"{where}.{key}", item) for i in by_id}
        else:
            values[f.name] = _req(doc, key, where, item, absent)
    return cls(**values)


def _write(entity: Any) -> dict:
    """The JSON form of an entity: its keys in declaration order, an object
    keyed by id in id order."""
    def plain(value: Any, conv: Any) -> Any:
        if isinstance(conv, type):
            return [_write(e) for e in value]
        if isinstance(conv, _ById):
            return {i: plain(v, conv.conv) for i, v in sorted(value.items())}
        if conv is _on_off:
            return "on" if value else "off"
        return list(value) if conv is _series or conv is _texts else value

    return {f.metadata["json"][0]: plain(getattr(entity, f.name), f.metadata["json"][1])
            for f in fields(entity)}


_ASSETS = {"dres": DresAsset, "ndres": NdresAsset, "stu": StuAsset, "demands": DemandAsset}


def scenario_from_dict(doc: Mapping[str, Any]) -> Scenario:
    """Build a :class:`Scenario` from a parsed JSON document (no validation)."""
    net_doc = _req(doc, "network", "", _object)
    cal_doc = _req(doc, "calendar", "", _object)
    n_periods = _req(cal_doc, "T", "calendar", _integer)
    if n_periods > MAX_PERIODS:  # before a series is broadcast over them
        raise ScenarioError(f"calendar.T: {n_periods} periods exceed the limit of "
                            f"{MAX_PERIODS}")
    calendar = _read(MarketCalendar, cal_doc, "calendar", n_periods)
    network = _read(Network, net_doc, "network", n_periods)
    assets = {key: tuple(_read(cls, a, where, n_periods) for where, a in _entries(doc, key))
              for key, cls in _ASSETS.items()}

    fc_doc = _req(doc, "forecasts", "", _object)
    sessions = cal_doc.get("sessions", ())  # a list of objects, once the calendar is read
    if isinstance(fc_doc.get("idm"), Mapping) or any("k" in sess for sess in sessions):
        raise ScenarioError(OLD_LAYOUT)
    dam_forecast = _read(ForecastSet, _req(fc_doc, "dam", "forecasts", _object),
                         "forecasts.dam", n_periods)
    # a set past the last session has no window (tau 0); rule forecast_count reports it
    taus = (sess.first_period for sess in calendar.sessions)
    idm_forecasts = tuple(_read(ForecastSet, sub, where, n_periods, next(taus, 0))
                          for where, sub in _entries(fc_doc, "idm", "forecasts"))

    return Scenario(network=network, **assets, calendar=calendar, dam_forecast=dam_forecast,
                    idm_forecasts=idm_forecasts, name=_req(doc, "name", "", _text, default=""))


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize to the JSON schema. Round-trips field-for-field."""
    s = scenario
    return {
        "name": s.name,
        "network": _write(s.network),
        **{key: [_write(a) for a in getattr(s, key)] for key in _ASSETS},
        "calendar": _write(s.calendar),
        "forecasts": {
            "dam": _write(s.dam_forecast),
            "idm": [_write(f) for f in s.idm_forecasts],
        },
    }


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_scenario(scenario: Scenario) -> list[Diagnostic]:
    """Check every invariant; return one diagnostic per violation.

    Pure: the same scenario always yields the same diagnostics, and an
    empty list means the scenario is safe to feed to the formulations.
    """
    out: list[Diagnostic] = []
    bad = out.append
    s = scenario
    T = s.calendar.n_periods

    # --- numbers ---
    for where, value in _non_finite(scenario_to_dict(s)):
        bad(Diagnostic(where, "finite", f"{value} is not a finite number"))

    # --- calendar ---
    if T < 1:
        bad(Diagnostic("calendar", "period_count", f"T must be >= 1, got {T}"))
    if s.calendar.dt_hours <= 0:
        bad(Diagnostic("calendar", "dt_positive", f"dtHours must be > 0, got {s.calendar.dt_hours}"))
    if len(s.calendar.dam_prices) != T:
        bad(Diagnostic("calendar", "price_length",
                       f"damPrices has {len(s.calendar.dam_prices)} entries, expected {T}"))
    if len(s.calendar.sessions) > MAX_SESSIONS:
        bad(Diagnostic("calendar", "too_many_sessions", f"{len(s.calendar.sessions)} intraday "
                       f"sessions exceed the limit of {MAX_SESSIONS}"))
    prev_tau = None
    for k, sess in enumerate(s.calendar.sessions, start=1):
        ent = f"idm{k}"
        if sess.first_period < 1 or sess.first_period > T:
            bad(Diagnostic(ent, "tau_range", f"tau={sess.first_period} outside 1..{T}"))
            continue
        if prev_tau is not None and sess.first_period < prev_tau:
            bad(Diagnostic(ent, "tau_order", "first delivery period decreases between sessions"))
        prev_tau = sess.first_period
        expected = T - sess.first_period + 1
        if len(sess.prices) != expected:
            bad(Diagnostic(ent, "price_length",
                           f"prices span {len(sess.prices)} periods, expected {expected}"))
    if s.calendar.sessions and s.calendar.sessions[0].first_period != 1:
        bad(Diagnostic("idm1", "first_tau",
                       "the first intraday session must cover the full day (tau=1)"))

    # --- network ---
    net = s.network
    buses = set(net.buses)
    if not net.buses:
        bad(Diagnostic("network", "empty", "network has no buses"))
    if len(buses) != len(net.buses):
        bad(Diagnostic("network", "duplicate_id", "duplicate bus ids"))
    if not net.main_grid_buses:
        bad(Diagnostic("network", "main_grid_empty", "network has no main-grid bus"))
    if len(set(net.main_grid_buses)) != len(net.main_grid_buses):
        bad(Diagnostic("network", "duplicate_id", "duplicate main-grid buses"))
    for b in net.main_grid_buses:
        if b not in buses:
            bad(Diagnostic(b, "main_grid_subset", "main-grid bus is not a network bus"))
    line_ids = [l.id for l in net.lines]
    if len(set(line_ids)) != len(line_ids):
        bad(Diagnostic("network", "duplicate_id", "duplicate line ids"))
    for l in net.lines:
        if l.from_bus not in buses or l.to_bus not in buses:
            bad(Diagnostic(l.id, "line_endpoint", "line endpoint is not a network bus"))
        if l.from_bus == l.to_bus:
            bad(Diagnostic(l.id, "line_endpoint", "line connects a bus to itself"))
        if l.susceptance <= 0:
            bad(Diagnostic(l.id, "susceptance_positive", f"susceptance {l.susceptance} must be > 0"))
        if l.flow_limit <= 0:
            bad(Diagnostic(l.id, "flow_limit_positive", f"flowLimit {l.flow_limit} must be > 0"))
    if net.buses and not _connected(net):
        bad(Diagnostic("network", "connected", "network graph is not connected"))
    for b in net.main_grid_buses:
        if b not in net.trade_cap:
            bad(Diagnostic(b, "trade_cap_missing", "main-grid bus has no trade capacity entry"))
    for b, cap in net.trade_cap.items():
        if cap < 0:
            bad(Diagnostic(b, "trade_cap_negative", f"trade capacity {cap} must be >= 0"))
        if b not in set(net.main_grid_buses):
            bad(Diagnostic(b, "trade_cap_unknown_bus", "trade capacity given for a non-main-grid bus"))

    # --- assets ---
    ids = s.asset_ids()
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        bad(Diagnostic(",".join(dupes), "duplicate_id", "asset ids must be unique across classes"))
    for a in s.dres + s.ndres + s.stu + s.demands:
        if a.bus not in buses:
            bad(Diagnostic(a.id, "unknown_bus", f"asset sits at unknown bus {a.bus!r}"))

    for a in s.dres:
        if not (0 <= a.p_min <= a.p_max):
            bad(Diagnostic(a.id, "power_bounds", f"need 0 <= pMin <= pMax, got [{a.p_min}, {a.p_max}]"))
        if min(a.variable_cost, a.startup_cost, a.shutdown_cost) < 0:
            bad(Diagnostic(a.id, "cost_negative", "costs must be >= 0"))

    for a in s.ndres:
        if len(a.p_min) != T:
            bad(Diagnostic(a.id, "series_length", f"pMin spans {len(a.p_min)} periods, expected {T}"))
        elif any(v < 0 for v in a.p_min):
            bad(Diagnostic(a.id, "min_negative", "pMin must be >= 0 element-wise"))

    for a in s.stu:
        if not (0 < a.pb_min <= a.pb_break1 <= a.pb_break2 <= a.pb_max):
            bad(Diagnostic(a.id, "breakpoint_order",
                           "need 0 < pbMin <= pbBreak1 <= pbBreak2 <= pbMax, got "
                           f"({a.pb_min}, {a.pb_break1}, {a.pb_break2}, {a.pb_max})"))
        etas = (a.eta1, a.eta2, a.eta3, a.eta4)
        if not (0 < etas[0] <= etas[1] <= etas[2] <= etas[3] <= 1):
            bad(Diagnostic(a.id, "eta_order",
                           f"conversion factors must rise with load within (0, 1], got {etas}"))
        if not (0 <= a.end_alpha_lo <= a.end_alpha_hi <= 1):
            bad(Diagnostic(a.id, "alpha_window",
                           f"need 0 <= endAlphaLo <= endAlphaHi <= 1, got [{a.end_alpha_lo}, {a.end_alpha_hi}]"))
        for label, eff in (("chargeEff", a.charge_eff), ("dischargeEff", a.discharge_eff)):
            if not (0 < eff <= 1):
                bad(Diagnostic(a.id, "efficiency_range", f"{label} {eff} outside (0, 1]"))
        if not (0 <= a.startup_loss <= 1):
            bad(Diagnostic(a.id, "startup_loss_range", f"startupLossFactor {a.startup_loss} outside [0, 1]"))
        if not (0 <= a.charge_min <= a.charge_max):
            bad(Diagnostic(a.id, "charge_bounds", "need 0 <= chargeMin <= chargeMax"))
        if not (0 <= a.discharge_min <= a.discharge_max):
            bad(Diagnostic(a.id, "discharge_bounds", "need 0 <= dischargeMin <= dischargeMax"))
        if not (0 <= a.electrical_min <= a.electrical_max):
            bad(Diagnostic(a.id, "electrical_bounds", "need 0 <= electricalMin <= electricalMax"))
        if len(a.storage_cap) != T or len(a.storage_floor) != T:
            bad(Diagnostic(a.id, "series_length", "storage cap/floor series must span the horizon"))
        elif any(f > c for f, c in zip(a.storage_floor, a.storage_cap)):
            bad(Diagnostic(a.id, "storage_window", "storage floor exceeds capacity in some period"))
        elif not (a.storage_floor[0] <= a.initial_energy <= a.storage_cap[0]):
            bad(Diagnostic(a.id, "initial_energy",
                           f"initialEnergy {a.initial_energy} outside "
                           f"[{a.storage_floor[0]}, {a.storage_cap[0]}]"))

    for a in s.demands:
        defaults = [p for p in a.profiles if p.default]
        if len(defaults) != 1:
            bad(Diagnostic(a.id, "default_profile",
                           f"expected exactly one default profile, found {len(defaults)}"))
        elif defaults[0].cost != 0:
            bad(Diagnostic(a.id, "default_profile",
                           f"default profile {defaults[0].id} must have cost 0"))
        pids = [p.id for p in a.profiles]
        if len(set(pids)) != len(pids):
            bad(Diagnostic(a.id, "duplicate_id", "duplicate profile ids"))
        for p in a.profiles:
            if len(p.power) != T:
                bad(Diagnostic(a.id, "series_length",
                               f"profile {p.id} spans {len(p.power)} periods, expected {T}"))
                continue
            if any(v < 0 for v in p.power):
                bad(Diagnostic(a.id, "profile_power_negative", f"profile {p.id} has negative power"))
            # the checkers' tolerance; a limit that overflows to inf binds nothing
            up, down = a.ramp_up * s.calendar.dt_hours, a.ramp_down * s.calendar.dt_hours
            for t in range(1, len(p.power)):
                step = p.power[t] - p.power[t - 1]
                if step > up + 1e-6 or -step > down + 1e-6:
                    bad(Diagnostic(a.id, "profile_ramp",
                                   f"profile {p.id} steps {step:+g} MW into period {t + 1}, "
                                   f"beyond the ramp limits (+{up:g}, -{down:g})"))
                    break
            energy = sum(p.power) * s.calendar.dt_hours
            if a.min_energy > energy + 1e-9:
                bad(Diagnostic(a.id, "min_energy_unreachable",
                               f"minEnergy unreachable: {a.min_energy} MWh exceeds the "
                               f"{energy} MWh delivered by profile {p.id}"))
        for t in range(min(len(a.tol_lo), len(a.tol_hi))):
            if not (0 <= a.tol_lo[t] < 1) or not (0 <= a.tol_hi[t] < 1):
                bad(Diagnostic(a.id, "tolerance_range",
                               f"tolerance out of [0,1) in period {t + 1}"))
                break
        if len(a.tol_lo) != T or len(a.tol_hi) != T:
            bad(Diagnostic(a.id, "series_length", "tolerance series must span the horizon"))
        if a.ramp_down < 0 or a.ramp_up < 0:
            bad(Diagnostic(a.id, "ramp_negative", "ramp limits must be >= 0"))
    # the day-ahead model keys each profile choice by "<demand>/<profile>"
    by_selector: dict[str, list[tuple[str, str]]] = {}
    for pair in dict.fromkeys((a.id, p.id) for a in s.demands for p in a.profiles):
        by_selector.setdefault("/".join(pair), []).append(pair)
    for selector, pairs in by_selector.items():
        if len(pairs) > 1:
            bad(Diagnostic(",".join(d for d, _ in pairs), "selector_collision",
                           " and ".join(f"demand {d!r} profile {p!r}" for d, p in pairs)
                           + f" share the day-ahead selector {selector!r}"))

    # --- forecasts ---
    if len(s.idm_forecasts) != len(s.calendar.sessions):
        bad(Diagnostic("forecasts", "forecast_count",
                       f"forecasts.idm holds {len(s.idm_forecasts)} forecast sets for "
                       f"{len(s.calendar.sessions)} intraday sessions"))
    sessions = {"dam": (s.dam_forecast, 1)}
    for k, (sess, fcset) in enumerate(zip(s.calendar.sessions, s.idm_forecasts), start=1):
        if 1 <= sess.first_period <= T:  # tau_range reports the others
            sessions[f"idm{k}"] = (fcset, sess.first_period)
    ndres_ids = {a.id for a in s.ndres}
    stu_ids = {a.id for a in s.stu}
    for label, (fcset, tau) in sessions.items():
        window = T - tau + 1
        for group, known in (("ndresAvail", ndres_ids), ("stuAvail_th", stu_ids)):
            series_map = fcset.ndres_avail if group == "ndresAvail" else fcset.stu_avail
            for aid in known:
                if aid not in series_map:
                    bad(Diagnostic(aid, "forecast_missing", f"no {group} series in session {label}"))
            for aid, series in series_map.items():
                if aid not in known:
                    bad(Diagnostic(aid, "forecast_unknown_asset",
                                   f"{group} series in session {label} names an unknown asset"))
                    continue
                if len(series) != window:
                    bad(Diagnostic(aid, "forecast_window",
                                   f"{group} series in session {label} spans {len(series)} periods, "
                                   f"expected {window}"))
                    continue
                if any(v < 0 for v in series):
                    bad(Diagnostic(aid, "forecast_negative",
                                   f"negative availability in session {label}"))
        for a in s.ndres:
            series = fcset.ndres_avail.get(a.id)
            if series is None or len(series) != window or len(a.p_min) != T:
                continue
            for i, avail in enumerate(series):
                if a.p_min[tau - 1 + i] > avail + 1e-9:
                    bad(Diagnostic(a.id, "availability_below_min",
                                   f"availability {avail} below technical minimum "
                                   f"{a.p_min[tau - 1 + i]} in period {tau + i} ({label})"))
                    break

    # the storage levels the day-ahead forecast can reach, in closed form
    flagged = {d.entity for d in out}
    for a in s.stu:
        avail = s.dam_forecast.stu_avail.get(a.id)
        if a.id not in flagged and avail and len(avail) == T and all(map(math.isfinite, (
                *avail, *a.storage_cap, *a.storage_floor, s.calendar.dt_hours))):
            message = _storage_unreachable(a, avail, s.calendar.dt_hours)
            if message:
                bad(Diagnostic(a.id, "storage_unreachable", message))

    return out


def _storage_unreachable(a: StuAsset, avail: Sequence[float], dt: float) -> str | None:
    """Why no schedule keeps the store inside its window, or None.

    From ``initialEnergy_th``, charging at every chance gives the highest
    reachable level ``hi`` and discharging at full rating the lowest
    ``lo``; the loop's minimums and its charge/discharge exclusion are
    left out, so a day this passes can still be infeasible."""
    hi = lo = a.initial_energy
    for t, (cap, floor) in enumerate(zip(a.storage_cap, a.storage_floor), start=1):
        hi = min(cap, hi + a.charge_eff * min(avail[t - 1], a.charge_max) * dt)
        lo = max(floor, lo - a.discharge_max * dt / a.discharge_eff)
        if hi < floor:
            return (f"the store reaches at most {hi:g} MWh_th in period {t}, "
                    f"below its floor {floor:g}")
        if lo > cap:
            return (f"the store holds at least {lo:g} MWh_th in period {t}, "
                    f"above its cap {cap:g}")
    end_lo, end_hi = a.end_alpha_lo * a.storage_cap[-1], a.end_alpha_hi * a.storage_cap[-1]
    if hi < end_lo:
        return (f"the store reaches at most {hi:g} MWh_th by the last period, below "
                f"the end window's {end_lo:g} (endAlphaLo x the last cap)")
    if lo > end_hi:
        return (f"the store holds at least {lo:g} MWh_th in the last period, above "
                f"the end window's {end_hi:g} (endAlphaHi x the last cap)")
    return None


def _non_finite(doc: Any, where: str = "") -> Iterator[tuple[str, float]]:
    """Path and value of every NaN or infinity in a serialized scenario.
    List items with an id are named by it."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _non_finite(value, f"{where}.{key}" if where else str(key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            label = value["id"] if isinstance(value, dict) and "id" in value else i
            yield from _non_finite(value, f"{where}[{label}]")
    elif isinstance(doc, float) and not math.isfinite(doc):
        yield where, doc


def _connected(net: Network) -> bool:
    if len(net.buses) <= 1:
        return True
    adjacency: dict[str, set[str]] = {b: set() for b in net.buses}
    for l in net.lines:
        if l.from_bus in adjacency and l.to_bus in adjacency:
            adjacency[l.from_bus].add(l.to_bus)
            adjacency[l.to_bus].add(l.from_bus)
    seen = {net.buses[0]}
    stack = [net.buses[0]]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(net.buses)
