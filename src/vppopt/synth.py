"""Seeded generators for small randomized instances.

Three families, all driven by a caller-supplied :class:`numpy.random.Generator`
so every draw is reproducible:

* :func:`random_seller_scenario` — compact portfolios whose generation
  capacity dwarfs demand, so the optimal day-ahead position sells in
  aggregate; used for price-shift monotonicity probes.
* :func:`random_stu_scenario` — a lone solar thermal unit behind one
  coupling bus; used to cross-check the conversion curve on solved models.
* :func:`random_piecewise_model` — a bare model with one SOS-2 weight set
  tying an input to a piecewise value; used to compare the native SOS-2
  route against the segment-binary reformulation.
"""

from __future__ import annotations

import numpy as np

from vppopt.milp import MilpModel
from vppopt.scenario import Scenario, ScenarioValidationError, scenario_from_dict, validate_scenario


def _distinct_prices(rng: np.random.Generator, n: int, lo: float = 15.0,
                     hi: float = 85.0) -> list[float]:
    """Positive, pairwise-distinct prices; ties would create plateau optima."""
    while True:
        prices = np.round(rng.uniform(lo, hi, size=n), 2)
        if len(set(prices.tolist())) == n:
            return [float(p) for p in prices]


def random_seller_scenario(rng: np.random.Generator, n_periods: int = 6) -> Scenario:
    """A small scenario that is a net seller at any optimum.

    Non-dispatchable availability alone exceeds the demand profile in
    every period, and its output is free, so the optimal aggregate trade
    is positive whenever prices are (they are kept positive by
    construction).
    """
    T = n_periods
    avail = np.round(rng.uniform(30.0, 60.0, size=T), 2)
    demand = np.round(rng.uniform(3.0, 9.0, size=T), 2)
    alt = demand.copy()
    # swap consumption between two periods to build a second, equal-energy profile
    i, j = rng.choice(T, size=2, replace=False)
    move = round(float(min(demand[i], demand[j])) * 0.5, 2)
    alt[i] -= move
    alt[j] += move
    dres_cost = round(float(rng.uniform(8.0, 14.0)), 2)
    doc = {
        "name": f"seller-{rng.integers(1 << 30)}",
        "network": {
            "buses": ["b1", "b2", "b3"],
            "mainGridBuses": ["b1"],
            "lines": [
                {"id": "l1", "from": "b1", "to": "b2",
                 "susceptance": round(float(rng.uniform(5.0, 15.0)), 2), "flowLimit": 500.0},
                {"id": "l2", "from": "b2", "to": "b3",
                 "susceptance": round(float(rng.uniform(5.0, 15.0)), 2), "flowLimit": 500.0},
            ],
            "tradeCap": {"b1": 500.0},
        },
        "dres": [
            {"id": "gen", "bus": "b2", "pMin": 2.0,
             "pMax": round(float(rng.uniform(20.0, 45.0)), 2),
             "variableCost": dres_cost,
             "startupCost": round(float(rng.uniform(5.0, 40.0)), 2),
             "shutdownCost": round(float(rng.uniform(2.0, 20.0)), 2),
             "initialCommitment": "off"},
        ],
        "ndres": [
            {"id": "wind", "bus": "b3", "pMin": 0.0},
        ],
        "stu": [],
        "demands": [
            {"id": "load", "bus": "b2",
             "profiles": [
                 {"id": "flat", "power": demand.tolist(), "cost": 0.0, "default": True},
                 {"id": "shifted", "power": alt.tolist(), "cost": 0.0},
             ],
             "minEnergy": round(float(demand.sum()) * 0.9, 4),
             "tolLo": 0.1, "tolHi": 0.1,
             "rampDown": 50.0, "rampUp": 50.0},
        ],
        "calendar": {
            "T": T, "dtHours": 1.0,
            "damPrices": _distinct_prices(rng, T),
            "sessions": [
                {"tau": 1, "prices": _distinct_prices(rng, T)},
            ],
        },
        "forecasts": {
            "dam": {"ndresAvail": {"wind": avail.tolist()}, "stuAvail_th": {}},
            "idm": [{"ndresAvail": {"wind": np.round(avail * 0.95, 2).tolist()},
                     "stuAvail_th": {}}],
        },
    }
    return _checked(doc)


def random_stu_scenario(rng: np.random.Generator, n_periods: int = 5) -> Scenario:
    """One solar thermal unit behind a single coupling bus."""
    T = n_periods
    pb_min = round(float(rng.uniform(10.0, 30.0)), 2)
    pb_max = round(pb_min + float(rng.uniform(40.0, 110.0)), 2)
    cut1, cut2 = sorted(rng.uniform(0.25, 0.75, size=2))
    b1 = round(pb_min + float(cut1) * (pb_max - pb_min), 2)
    b2 = round(pb_min + float(cut2) * (pb_max - pb_min), 2)
    etas = np.round(np.sort(rng.uniform(0.2, 0.45, size=4)), 3)
    cap = round(float(rng.uniform(150.0, 400.0)), 1)
    e0 = round(float(rng.uniform(0.2, 0.7)) * cap, 2)
    avail = np.round(rng.uniform(0.0, pb_max * 1.2, size=T), 2)
    doc = {
        "name": f"stu-{rng.integers(1 << 30)}",
        "network": {"buses": ["b1"], "mainGridBuses": ["b1"], "lines": [],
                    "tradeCap": {"b1": 1000.0}},
        "dres": [], "ndres": [],
        "stu": [
            {"id": "unit", "bus": "b1",
             "pbMin_th": pb_min, "pbMax_th": pb_max,
             "pbBreak1_th": b1, "pbBreak2_th": b2,
             "eta1": float(etas[0]), "eta2": float(etas[1]),
             "eta3": float(etas[2]), "eta4": float(etas[3]),
             "startupLossFactor": round(float(rng.uniform(0.0, 0.3)), 3),
             "chargeMin_th": 0.0,
             "chargeMax_th": round(float(rng.uniform(20.0, 80.0)), 2),
             "dischargeMin_th": 0.0,
             "dischargeMax_th": round(float(rng.uniform(20.0, 80.0)), 2),
             "chargeEff": round(float(rng.uniform(0.9, 1.0)), 3),
             "dischargeEff": round(float(rng.uniform(0.9, 1.0)), 3),
             "storageCap_th": cap, "storageFloor_th": 0.0,
             "endAlphaLo": 0.0, "endAlphaHi": 1.0,
             "initialEnergy_th": e0,
             "electricalMin": round(float(etas[0]) * pb_min, 4),
             "electricalMax": round(float(etas[3]) * pb_max, 4),
             "initialPbStatus": "off"},
        ],
        "demands": [],
        "calendar": {"T": T, "dtHours": 1.0,
                     "damPrices": _distinct_prices(rng, T, lo=5.0, hi=95.0),
                     "sessions": []},
        "forecasts": {"dam": {"ndresAvail": {}, "stuAvail_th": {"unit": avail.tolist()}},
                      "idm": []},
    }
    return _checked(doc)


def random_piecewise_model(rng: np.random.Generator) -> MilpModel:
    """A model maximizing value from one piecewise-linear conversion.

    Variables: weights w0..w4 over increasing breakpoints, a binary
    commitment u, an input x and an output y. One random linear side
    constraint caps the input, so optima often land strictly inside a
    segment and genuinely exercise the two-adjacent-weights rule.
    """
    breaks = np.concatenate([[0.0], np.sort(rng.uniform(5.0, 100.0, size=4))])
    slopes = np.sort(rng.uniform(0.2, 0.6, size=4))
    values = [0.0]
    for i in range(4):
        values.append(values[-1] + float(slopes[i]) * float(breaks[i + 1] - breaks[i]))

    m = MilpModel(name="piecewise")
    w = [m.add_continuous(f"w{i}", 0.0, 1.0) for i in range(5)]
    u = m.add_binary("u")
    x = m.add_continuous("x", 0.0, float(breaks[-1]))
    y = m.add_continuous("y", 0.0, float(values[-1]))
    m.add_constraint({wi: float(b) for wi, b in zip(w, breaks)} | {x: -1.0}, "==", 0.0, "into")
    m.add_constraint({wi: float(v) for wi, v in zip(w, values)} | {y: -1.0}, "==", 0.0, "outof")
    m.add_constraint({wi: 1.0 for wi in w} | {u: -1.0}, "==", 0.0, "fill")
    m.add_sos2(w, "curve")
    x_cap = float(rng.uniform(0.3, 1.0) * breaks[-1])
    m.add_constraint({x: 1.0}, "<=", round(x_cap, 3), "supply")
    # value the output above the input cost so running is worthwhile
    y_price = float(rng.uniform(2.0, 6.0))
    x_cost = float(rng.uniform(0.0, 0.5))
    fixed = float(rng.uniform(0.0, 10.0))
    m.set_objective({y: round(y_price, 3), x: -round(x_cost, 3), u: -round(fixed, 3)})
    return m


def _checked(doc: dict) -> Scenario:
    scenario = scenario_from_dict(doc)
    diagnostics = validate_scenario(scenario)
    if diagnostics:
        raise ScenarioValidationError(diagnostics)
    return scenario
