"""Shipped 12-bus study scenarios: a clear and a cloudy operating day.

Both days share one portfolio: a 111 MW hydro plant and a 5 MW biomass
plant (dispatchable), 50 MW wind and 50 MW photovoltaic parks
(non-dispatchable), a 50 MW solar thermal unit with 1100 MWh_th of
storage, and three flexible demands (industrial 800 MWh, airport 580 MWh,
residential 600 MWh per day, each with three equal-energy profiles and a
10 percent intraday tolerance band). The VPP trades through one coupling
point; network limits are deliberately slack so the two coordination
modes differ only through portfolio effects.

The clear day has strong solar series and nearly information-free
intraday sessions (small price drifts, light wind updates). The cloudy
day halves the solar series and lets the session forecasts deteriorate
progressively while afternoon session prices spike, so corrections are
forced and expensive.
"""

from __future__ import annotations

import math
from dataclasses import replace

from vppopt.scenario import Scenario, scenario_from_dict, scenario_to_dict

T = 24

CLEAR_DAM_PRICES = (22.4, 20.3, 18.35, 17.45, 18.8, 25.7, 38.15, 48.05, 54.5,
                    58.25, 61.7, 62.9, 60.8, 57.05, 53.45, 50.9, 50.0, 56.15,
                    67.85, 78.95, 84.2, 74.75, 54.8, 36.05)
CLOUDY_DAM_PRICES = (23.86, 20.26, 18.91, 17.71, 19.51, 27.31, 39.91, 51.16, 58.06,
                     63.31, 66.76, 68.71, 66.46, 61.51, 56.41, 54.31, 55.96, 62.56,
                     75.31, 87.01, 92.41, 80.56, 59.71, 39.01)

WIND_DAM = (22.0, 24.0, 27.0, 30.0, 28.0, 25.0, 21.0, 18.0, 16.0, 15.0, 17.0, 20.0,
            23.0, 26.0, 29.0, 31.0, 33.0, 36.0, 38.0, 40.0, 37.0, 32.0, 28.0, 25.0)
PV_CLEAR = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 10.0, 20.0, 30.0, 38.0, 44.0,
            46.0, 45.0, 40.0, 33.0, 24.0, 14.0, 6.0, 1.0, 0.0, 0.0, 0.0, 0.0)
STU_FIELD_CLEAR = (0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 15.0, 38.0, 62.0, 85.0, 102.0, 115.0,
                   120.0, 118.0, 108.0, 90.0, 68.0, 45.0, 22.0, 8.0, 0.0, 0.0, 0.0, 0.0)

SESSION_TAUS = (1, 1, 5, 8, 12, 16, 21)
CLEAR_PRICE_DRIFT = (-2.5, 3.0, -1.8, 2.8, -2.2, 1.9, 2.4)
CLOUDY_SCARCITY_BUMP = (0.0, 0.0, 4.0, 7.0, 9.0, 11.0, 12.5)  # added for t in 12..22

# progressive forecast deterioration on the cloudy day: per session,
# (solar factor, first solar period, wind factor, first wind period)
CLOUDY_REVEAL = {
    3: (0.80, 10, 1.00, 12),
    4: (0.70, 10, 0.90, 12),
    5: (0.60, 12, 0.85, 12),
    6: (0.55, 16, 0.82, 16),
    7: (0.55, 21, 0.80, 21),
}


def _steps(levels: list[tuple[int, int, float]]) -> list[float]:
    """Expand (first hour, last hour, MW) blocks into a 24-value series."""
    out = [0.0] * T
    for lo, hi, mw in levels:
        for t in range(lo, hi + 1):
            out[t - 1] = mw
    return out


def _shift(base: list[float], moves: list[tuple[int, int, float]]) -> list[float]:
    """Move MW between hours: (from hour, to hour, MW) keeps energy equal."""
    out = list(base)
    for src, dst, mw in moves:
        out[src - 1] -= mw
        out[dst - 1] += mw
    return out


def demand_profile_sets() -> dict[str, dict]:
    """Per demand: bus, daily energy, and the three equal-energy profiles.

    Each alternative moves consumption from expensive evening hours to
    cheaper ones, so at zero cost every alternative beats its default and
    the cost sweep has a finite threshold for each of them.
    """
    ind_default = _steps([(1, 6, 24.0), (7, 10, 34.0), (11, 16, 36.0),
                          (17, 22, 40.0), (23, 24, 32.0)])
    air_default = _steps([(1, 5, 14.0), (6, 9, 24.0), (10, 17, 28.0),
                          (18, 22, 30.0), (23, 24, 20.0)])
    res_default = _steps([(1, 6, 18.0), (7, 9, 27.0), (10, 16, 24.0),
                          (17, 22, 33.0), (23, 24, 22.5)])
    return {
        "industrial": {
            "bus": "b3", "energy": 800.0,
            "profiles": {
                "standard": ind_default,
                "early_shift": _shift(ind_default,
                                      [(19, 3, 2.0), (20, 4, 2.0), (21, 5, 2.0), (22, 6, 2.0)]),
                "night_shift": _shift(ind_default, [(20, 1, 1.5), (21, 2, 1.5)]),
            },
            "default": "standard",
        },
        "airport": {
            "bus": "b9", "energy": 580.0,
            "profiles": {
                "baseline": air_default,
                "early_peak": _shift(air_default,
                                     [(19, 2, 3.5), (20, 3, 3.5), (21, 4, 3.5), (22, 5, 3.5)]),
                "late_peak": _shift(air_default,
                                    [(20, 23, 2.5), (21, 24, 2.5), (22, 1, 2.5)]),
            },
            "default": "baseline",
        },
        "residential": {
            "bus": "b12", "energy": 600.0,
            "profiles": {
                "typical": res_default,
                "smoothed": _shift(res_default,
                                   [(19, 2, 3.0), (20, 3, 3.0), (21, 4, 3.0)]),
                "daytime": _shift(res_default,
                                  [(17, 10, 2.0), (18, 11, 2.0), (19, 12, 2.0),
                                   (20, 13, 2.0), (21, 14, 2.0), (22, 15, 2.0)]),
            },
            "default": "typical",
        },
    }


def _required_ramp(profiles: list[list[float]], tol: float) -> float:
    """Smallest MW/h that keeps every profile's banded steps feasible."""
    worst = 0.0
    for p in profiles:
        for t in range(1, T):
            step = abs(p[t] - p[t - 1]) + tol * (p[t] + p[t - 1])
            worst = max(worst, step)
    return float(math.ceil(worst)) + 2.0


def _network_doc() -> dict:
    buses = [f"b{i}" for i in range(1, 13)]
    ring = [(i, i % 12 + 1) for i in range(1, 13)]
    chords = [(2, 7), (4, 9), (6, 12)]
    lines = []
    for i, (a, b) in enumerate(ring + chords, start=1):
        lines.append({"id": f"l{i}", "from": f"b{a}", "to": f"b{b}",
                      "susceptance": 10.0 + (i % 5), "flowLimit": 250.0})
    return {"buses": buses, "mainGridBuses": ["b1"], "lines": lines,
            "tradeCap": {"b1": 400.0}}


def _session_prices(dam: tuple[float, ...], k: int, tau: int, cloudy: bool) -> list[float]:
    out = []
    for t in range(tau, T + 1):
        price = dam[t - 1] + CLEAR_PRICE_DRIFT[k - 1]
        if cloudy and 12 <= t <= 22:
            price += CLOUDY_SCARCITY_BUMP[k - 1]
        out.append(round(price, 4))
    return out


def _session_forecasts(cloudy: bool) -> dict:
    if cloudy:
        pv_dam = [round(v * 0.5, 4) for v in PV_CLEAR]
        stu_dam = [round(v * 0.55, 4) for v in STU_FIELD_CLEAR]
    else:
        pv_dam = list(PV_CLEAR)
        stu_dam = list(STU_FIELD_CLEAR)
    out = {"dam": {"ndresAvail": {"wind": list(WIND_DAM), "pv": pv_dam},
                   "stuAvail_th": {"csp": stu_dam}},
           "idm": []}
    for k, tau in enumerate(SESSION_TAUS, start=1):
        wind = list(WIND_DAM)
        pv = list(pv_dam)
        stu = list(stu_dam)
        if cloudy and k in CLOUDY_REVEAL:
            solar_f, solar_from, wind_f, wind_from = CLOUDY_REVEAL[k]
            for t in range(solar_from, T + 1):
                pv[t - 1] = round(pv[t - 1] * solar_f, 4)
                stu[t - 1] = round(stu[t - 1] * solar_f, 4)
            for t in range(wind_from, T + 1):
                wind[t - 1] = round(wind[t - 1] * wind_f, 4)
        elif not cloudy and k >= 3:
            # light wind updates keep the clear-day sessions mildly active
            tweak = 0.8 if k % 2 else -0.6
            for t in range(tau, T + 1):
                wind[t - 1] = round(wind[t - 1] + tweak, 4)
        out["idm"].append({
            "ndresAvail": {"wind": wind[tau - 1:], "pv": pv[tau - 1:]},
            "stuAvail_th": {"csp": stu[tau - 1:]},
        })
    return out


def _scenario_doc(cloudy: bool) -> dict:
    prices = CLOUDY_DAM_PRICES if cloudy else CLEAR_DAM_PRICES
    demands = []
    for did, spec in demand_profile_sets().items():
        profiles = []
        series_list = []
        for pid, series in spec["profiles"].items():
            profiles.append({"id": pid, "power": series, "cost": 0.0,
                             "default": pid == spec["default"]})
            series_list.append(series)
        ramp = _required_ramp(series_list, tol=0.10)
        demands.append({
            "id": did, "bus": spec["bus"], "profiles": profiles,
            "minEnergy": spec["energy"],
            "tolLo": 0.10, "tolHi": 0.10,
            "rampDown": ramp, "rampUp": ramp,
        })
    sessions = [{"tau": tau, "prices": _session_prices(prices, k, tau, cloudy)}
                for k, tau in enumerate(SESSION_TAUS, start=1)]
    return {
        "name": "cloudy" if cloudy else "clear",
        "network": _network_doc(),
        "dres": [
            {"id": "hydro", "bus": "b6", "pMin": 10.0, "pMax": 111.0,
             "variableCost": 30.5, "startupCost": 180.0, "shutdownCost": 90.0,
             "initialCommitment": "off"},
            {"id": "biomass", "bus": "b9", "pMin": 1.0, "pMax": 5.0,
             "variableCost": 37.8, "startupCost": 45.0, "shutdownCost": 25.0,
             "initialCommitment": "off"},
        ],
        "ndres": [
            {"id": "wind", "bus": "b4", "pMin": 0.0},
            {"id": "pv", "bus": "b8", "pMin": 0.0},
        ],
        "stu": [
            {"id": "csp", "bus": "b1",
             "pbMin_th": 25.0, "pbMax_th": 125.0,
             "pbBreak1_th": 62.5, "pbBreak2_th": 93.75,
             "eta1": 0.25, "eta2": 0.31, "eta3": 0.36, "eta4": 0.40,
             "startupLossFactor": 0.20,
             "chargeMin_th": 0.0, "chargeMax_th": 100.0,
             "dischargeMin_th": 0.0, "dischargeMax_th": 100.0,
             "chargeEff": 0.98, "dischargeEff": 0.95,
             "storageCap_th": 1100.0, "storageFloor_th": 0.0,
             "endAlphaLo": 0.10, "endAlphaHi": 0.95,
             "initialEnergy_th": 150.0,
             "electricalMin": 6.25, "electricalMax": 50.0,
             "initialPbStatus": "off"},
        ],
        "demands": demands,
        "calendar": {"T": T, "dtHours": 1.0, "damPrices": list(prices),
                     "sessions": sessions},
        "forecasts": _session_forecasts(cloudy),
    }


def clear_scenario() -> Scenario:
    return scenario_from_dict(_scenario_doc(cloudy=False))


def cloudy_scenario() -> Scenario:
    return scenario_from_dict(_scenario_doc(cloudy=True))


def equal_information_variant(s: Scenario, zero_tolerance: bool = True) -> Scenario:
    """Copy a scenario with every session's prices and forecasts replaced
    by the day-ahead ones (windowed), so the intraday stages add no new
    information. With ``zero_tolerance`` the demand bands collapse too,
    which removes the consumption-shifting flexibility that only intraday
    sessions have."""
    cal = s.calendar
    sessions = tuple(
        replace(sess, prices=tuple(cal.dam_prices[sess.first_period - 1:]))
        for sess in cal.sessions)
    idm_forecasts = tuple(
        replace(s.dam_forecast,
                ndres_avail={aid: series[sess.first_period - 1:]
                             for aid, series in s.dam_forecast.ndres_avail.items()},
                stu_avail={aid: series[sess.first_period - 1:]
                           for aid, series in s.dam_forecast.stu_avail.items()})
        for sess in cal.sessions)
    demands = s.demands
    if zero_tolerance:
        demands = tuple(
            replace(d, tol_lo=(0.0,) * s.n_periods, tol_hi=(0.0,) * s.n_periods)
            for d in s.demands)
    return replace(s, name=f"{s.name}-equal-info", calendar=replace(cal, sessions=sessions),
                   idm_forecasts=idm_forecasts, demands=demands)


def refine(s: Scenario, f: int) -> Scenario:
    """Copy a scenario onto a grid ``f`` times finer: every period series
    repeats each value ``f`` times, ``T`` grows and ``dtHours`` shrinks by
    ``f``, each session's first period ``tau`` moves to ``f·(tau − 1) + 1``
    and each demand's ramp limits (MW/h) grow by ``f``, so that a profile's
    hourly step still fits one finer period. Energies, prices and costs
    keep their units. The refined days are stress instances, not study
    days: their model is ``f`` times larger and branches more. The one
    quantity that does not carry over is the solar-thermal startup loss, a
    power taken for one period, so a start costs ``f`` times less energy."""

    def finer(x):
        if isinstance(x, dict):
            return {key: finer(v) for key, v in x.items()}
        if isinstance(x, list):
            if all(isinstance(v, (int, float)) for v in x):  # a period series
                return [v for v in x for _ in range(f)]
            return [finer(v) for v in x]
        return x

    doc = finer(scenario_to_dict(s))
    doc["name"] = f"{s.name}-f{f}"
    cal = doc["calendar"]
    cal["T"] *= f
    cal["dtHours"] /= f
    for sess in cal["sessions"]:
        sess["tau"] = f * (sess["tau"] - 1) + 1
    for d in doc["demands"]:
        d["rampUp"] *= f
        d["rampDown"] *= f
    return scenario_from_dict(doc)
