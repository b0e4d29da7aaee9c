"""Scenario loading, serialization and validation rules."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casestudy import clear_scenario, cloudy_scenario
from conftest import SCENARIO_DIR, make_scenario, toy_doc
from vppopt.scenario import (
    Scenario,
    ScenarioError,
    ScenarioValidationError,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)


def rules(scenario: Scenario) -> set[str]:
    return {d.rule for d in validate_scenario(scenario)}


def clear_doc() -> dict:
    return json.loads((SCENARIO_DIR / "clear.json").read_text())


class TestLoading:
    def test_toy_parses_and_validates(self):
        s = make_scenario(toy_doc())
        assert s.n_periods == 3
        assert s.dt == 1.0
        assert validate_scenario(s) == []

    def test_scalar_series_broadcast(self):
        doc = toy_doc()
        doc["demands"][0]["tolLo"] = 0.1
        s = make_scenario(doc)
        assert s.demands[0].tol_lo == (0.1, 0.1, 0.1)

    def test_list_series_kept_dense(self):
        doc = toy_doc()
        doc["demands"][0]["tolHi"] = [0.1, 0.2, 0.3]
        s = make_scenario(doc)
        assert s.demands[0].tol_hi == (0.1, 0.2, 0.3)

    def test_series_length_mismatch_raises(self):
        doc = toy_doc()
        doc["calendar"]["damPrices"] = [30.0, 20.0]
        with pytest.raises(ScenarioError, match="length 2, expected 3"):
            make_scenario(doc)

    def test_missing_key_raises(self):
        doc = toy_doc()
        del doc["dres"][0]["pMax"]
        with pytest.raises(ScenarioError, match="pMax"):
            make_scenario(doc)

    def test_on_off_forms(self):
        doc = toy_doc()
        doc["dres"][0]["initialCommitment"] = "on"
        assert make_scenario(doc).dres[0].initial_on is True
        doc["dres"][0]["initialCommitment"] = True
        assert make_scenario(doc).dres[0].initial_on is True
        doc["dres"][0]["initialCommitment"] = "sometimes"
        with pytest.raises(ScenarioError, match="on"):
            make_scenario(doc)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(path)

    def test_load_rejects_invalid_scenario(self, tmp_path):
        doc = toy_doc()
        doc["network"]["tradeCap"] = {}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(path)
        assert any(d.rule == "trade_cap_missing" for d in err.value.diagnostics)

    def test_name_defaults_to_file_stem(self, tmp_path):
        doc = toy_doc()
        del doc["name"]
        path = tmp_path / "mycase.json"
        path.write_text(json.dumps(doc))
        assert load_scenario(path).name == "mycase"


class TestRoundTrip:
    def test_dict_round_trip_is_exact(self):
        s = make_scenario(toy_doc())
        again = scenario_from_dict(scenario_to_dict(s))
        assert scenario_to_dict(again) == scenario_to_dict(s)
        assert again == s

    def test_file_round_trip_is_exact(self, tmp_path):
        s = make_scenario(toy_doc())
        path = tmp_path / "toy.json"
        save_scenario(s, path)
        assert load_scenario(path) == s

    def test_shipped_scenarios_round_trip(self):
        for name in ("clear", "cloudy"):
            s = load_scenario(SCENARIO_DIR / f"{name}.json")
            again = scenario_from_dict(scenario_to_dict(s))
            assert again == s
            assert validate_scenario(s) == []

    @pytest.mark.parametrize("name", ["clear", "cloudy"])
    def test_shipped_files_are_written_byte_for_byte(self, name):
        # pins the generator in demos/: it must reproduce each shipped file
        path = SCENARIO_DIR / f"{name}.json"
        builder = {"clear": clear_scenario, "cloudy": cloudy_scenario}[name]
        for s in (load_scenario(path), builder()):
            assert json.dumps(scenario_to_dict(s), indent=2) + "\n" == path.read_text()


class TestCalendarRules:
    def test_session_k_is_the_kth_in_calendar_order(self, toy):
        assert toy.calendar.session(1) is toy.calendar.sessions[0]
        for k in (0, -1, 2):  # never an index from the end
            with pytest.raises(KeyError, match=f"no intraday session {k}"):
                toy.calendar.session(k)

    def test_too_many_sessions(self):
        doc = toy_doc()
        doc["calendar"]["sessions"] = [
            {"tau": 1, "prices": [1.0, 2.0, 3.0]} for k in range(1, 9)
        ]
        doc["forecasts"]["idm"] = [
            {"ndresAvail": {"wind": [4.0, 6.0, 5.0]}, "stuAvail_th": {}} for _ in range(8)
        ]
        assert "too_many_sessions" in rules(make_scenario(doc))

    def test_first_session_must_cover_full_horizon(self):
        doc = toy_doc()
        doc["calendar"]["sessions"][0]["tau"] = 2
        doc["calendar"]["sessions"][0]["prices"] = [20.0, 40.0]
        doc["forecasts"]["idm"][0]["ndresAvail"]["wind"] = [6.0, 5.0]
        assert "first_tau" in rules(make_scenario(doc))

    def test_first_tau_names_the_first_session(self):
        doc = toy_doc()
        doc["calendar"]["sessions"] = [{"tau": 2, "prices": [20.0, 40.0]}]
        doc["forecasts"]["idm"] = [{"ndresAvail": {"wind": [6.0, 5.0]}, "stuAvail_th": {}}]
        assert [d.entity for d in validate_scenario(make_scenario(doc))
                if d.rule == "first_tau"] == ["idm1"]

    def test_session_windows_must_not_grow(self):
        doc = toy_doc()
        doc["calendar"]["sessions"] = [
            {"tau": 1, "prices": [30.0, 20.0, 40.0]},
            {"tau": 3, "prices": [40.0]},
            {"tau": 2, "prices": [20.0, 40.0]},
        ]
        doc["forecasts"]["idm"] = [
            {"ndresAvail": {"wind": [4.0, 6.0, 5.0]}, "stuAvail_th": {}},
            {"ndresAvail": {"wind": [5.0]}, "stuAvail_th": {}},
            {"ndresAvail": {"wind": [6.0, 5.0]}, "stuAvail_th": {}},
        ]
        assert "tau_order" in rules(make_scenario(doc))

    def test_session_price_window_length(self):
        doc = toy_doc()
        doc["calendar"]["sessions"][0]["prices"] = [30.0, 20.0, 40.0, 10.0]
        with pytest.raises(ScenarioError, match="length 4"):
            make_scenario(doc)


class TestNetworkRules:
    def test_unknown_line_endpoint(self):
        doc = toy_doc()
        doc["network"]["lines"][0]["to"] = "b9"
        found = rules(make_scenario(doc))
        assert "line_endpoint" in found

    def test_disconnected_network(self):
        doc = toy_doc()
        doc["network"]["buses"] = ["b1", "b2", "b3"]
        assert "connected" in rules(make_scenario(doc))

    def test_nonpositive_susceptance_and_limit(self):
        doc = toy_doc()
        doc["network"]["lines"][0]["susceptance"] = 0.0
        doc["network"]["lines"][0]["flowLimit"] = -1.0
        found = rules(make_scenario(doc))
        assert {"susceptance_positive", "flow_limit_positive"} <= found

    def test_trade_cap_bookkeeping(self):
        doc = toy_doc()
        doc["network"]["tradeCap"] = {"b2": -5.0}
        found = rules(make_scenario(doc))
        assert {"trade_cap_missing", "trade_cap_negative", "trade_cap_unknown_bus"} <= found

    @pytest.mark.parametrize("network, rule", [
        ({"mainGridBuses": [], "tradeCap": {}}, "main_grid_empty"),
        ({"mainGridBuses": ["b1", "b1"]}, "duplicate_id"),
    ], ids=["none", "twice"])
    def test_main_grid_buses_listed_once_each_and_at_least_one(self, network, rule):
        doc = clear_doc()
        doc["network"].update(network)
        diagnostics = validate_scenario(make_scenario(doc))
        assert [(d.entity, d.rule) for d in diagnostics] == [("network", rule)]

    def test_asset_on_unknown_bus(self):
        doc = toy_doc()
        doc["dres"][0]["bus"] = "nowhere"
        assert "unknown_bus" in rules(make_scenario(doc))

    def test_duplicate_asset_ids_across_classes(self):
        doc = toy_doc()
        doc["ndres"][0]["id"] = "gen"
        doc["forecasts"]["dam"]["ndresAvail"] = {"gen": [4.0, 6.0, 5.0]}
        doc["forecasts"]["idm"][0]["ndresAvail"] = {"gen": [4.0, 6.0, 5.0]}
        assert "duplicate_id" in rules(make_scenario(doc))


class TestAssetRules:
    def test_dres_power_bounds(self):
        doc = toy_doc()
        doc["dres"][0]["pMin"] = 20.0
        assert "power_bounds" in rules(make_scenario(doc))

    def test_dres_negative_cost(self):
        doc = toy_doc()
        doc["dres"][0]["startupCost"] = -1.0
        assert "cost_negative" in rules(make_scenario(doc))

    def test_stu_breakpoint_and_eta_order(self):
        doc = toy_doc()
        doc["stu"] = [_stu_doc(pbBreak1_th=90.0, eta3=0.2)]
        doc["forecasts"]["dam"]["stuAvail_th"] = {"csp": [50.0, 50.0, 50.0]}
        doc["forecasts"]["idm"][0]["stuAvail_th"] = {"csp": [50.0, 50.0, 50.0]}
        found = rules(make_scenario(doc))
        assert {"breakpoint_order", "eta_order"} <= found

    def test_stu_windows(self):
        doc = toy_doc()
        doc["stu"] = [_stu_doc(endAlphaLo=0.9, endAlphaHi=0.2, initialEnergy_th=500.0)]
        doc["forecasts"]["dam"]["stuAvail_th"] = {"csp": [50.0, 50.0, 50.0]}
        doc["forecasts"]["idm"][0]["stuAvail_th"] = {"csp": [50.0, 50.0, 50.0]}
        found = rules(make_scenario(doc))
        assert {"alpha_window", "initial_energy"} <= found

    @pytest.mark.parametrize("low", [50.0 + 10.0, -1.0])
    def test_stu_electrical_bounds(self, low):
        doc = clear_doc()
        (csp,) = [a for a in doc["stu"] if a["id"] == "csp"]
        assert csp["electricalMax"] == 50.0
        csp["electricalMin"] = low
        assert "electrical_bounds" in rules(scenario_from_dict(doc))

    @pytest.mark.parametrize("edit, message", [
        ({"storageFloor_th": [0.0] * 5 + [500.0] * 19},
         "the store reaches at most 151.96 MWh_th in period 6, below its floor 500"),
        ({"dischargeMax_th": 10.0, "storageCap_th": [1100.0] + [10.0] * 23},
         "the store holds at least 128.947 MWh_th in period 2, above its cap 10"),
        ({"endAlphaLo": 0.97, "endAlphaHi": 1.0},
         "the store reaches at most 1066.3 MWh_th by the last period, below the end "
         "window's 1067 (endAlphaLo x the last cap)"),
        ({"dischargeMax_th": 1.0, "endAlphaHi": 0.1},
         "the store holds at least 124.737 MWh_th in the last period, above the end "
         "window's 110 (endAlphaHi x the last cap)"),
    ], ids=["floor", "cap", "end-low", "end-high"])
    def test_storage_unreachable(self, edit, message):
        """From 150 MWh_th the clear day's field can add at most 916.3
        (0.98 x its heat, each period capped at chargeMax_th 100), and
        the loop can draw at most dischargeMax_th / 0.95 per period."""
        doc = clear_doc()
        doc["stu"][0].update(edit)
        assert [(d.entity, d.rule, d.message) for d in validate_scenario(
            scenario_from_dict(doc))] == [("csp", "storage_unreachable", message)]

    @pytest.mark.parametrize("edit", [
        {"endAlphaLo": 0.969, "endAlphaHi": 1.0},  # 1065.9, just reachable
        {"dischargeMax_th": 1.0, "endAlphaHi": 0.114},  # 125.4, just reachable
        {"storageFloor_th": [0.0] * 5 + [151.96] * 19},
    ], ids=["end-low", "end-high", "floor"])
    def test_storage_reachable_at_the_edge(self, edit):
        doc = clear_doc()
        doc["stu"][0].update(edit)
        assert validate_scenario(scenario_from_dict(doc)) == []

    def test_demand_needs_exactly_one_default(self):
        doc = toy_doc()
        doc["demands"][0]["profiles"][1]["default"] = True
        assert "default_profile" in rules(make_scenario(doc))

    def test_default_profile_must_be_free(self):
        doc = toy_doc()
        doc["demands"][0]["profiles"][0]["cost"] = 5.0
        assert "default_profile" in rules(make_scenario(doc))

    def test_min_energy_unreachable_is_summed_per_profile(self):
        doc = toy_doc()
        # the shifted profile delivers 1 + 2 + 3 = 6 MWh; demanding more
        # than either profile's total energy must be flagged
        doc["demands"][0]["minEnergy"] = 6.5
        assert "min_energy_unreachable" in rules(make_scenario(doc))

    def test_min_energy_at_profile_total_is_fine(self):
        doc = toy_doc()
        doc["demands"][0]["minEnergy"] = 6.0
        assert "min_energy_unreachable" not in rules(make_scenario(doc))

    def test_tolerance_range(self):
        doc = toy_doc()
        doc["demands"][0]["tolLo"] = 1.0
        assert "tolerance_range" in rules(make_scenario(doc))

    def test_negative_ramp(self):
        doc = toy_doc()
        doc["demands"][0]["rampUp"] = -1.0
        assert "ramp_negative" in rules(make_scenario(doc))

    def test_profile_steps_within_ramp(self):
        """A profile the demand cannot follow within its ramp limits would
        validate yet fail the post-hoc contract check of every run."""
        doc = clear_doc()
        (industrial,) = [d for d in doc["demands"] if d["id"] == "industrial"]
        industrial["rampUp"] = industrial["rampDown"] = 0.0
        found = [d for d in validate_scenario(scenario_from_dict(doc))
                 if d.rule == "profile_ramp"]
        assert [d.entity for d in found] == ["industrial"] * 3
        # the industrial profiles step up by at most 10 MW and down by at
        # most 8 MW in one hour
        industrial["rampUp"], industrial["rampDown"] = 10.0, 8.0
        assert "profile_ramp" not in rules(scenario_from_dict(doc))
        industrial["rampUp"] = 10.0 - 1e-5
        assert "profile_ramp" in rules(scenario_from_dict(doc))
        industrial["rampUp"], industrial["rampDown"] = 10.0, 8.0 - 1e-5
        assert "profile_ramp" in rules(scenario_from_dict(doc))


class TestForecastRules:
    def test_missing_session_forecast(self):
        doc = toy_doc()
        doc["forecasts"]["idm"] = []
        diags = validate_scenario(make_scenario(doc))
        assert [(d.entity, d.rule, d.message) for d in diags] == [
            ("forecasts", "forecast_count",
             "forecasts.idm holds 0 forecast sets for 1 intraday sessions")]

    def test_missing_asset_series(self):
        doc = toy_doc()
        doc["forecasts"]["dam"]["ndresAvail"] = {}
        assert "forecast_missing" in rules(make_scenario(doc))

    def test_unknown_asset_series(self):
        doc = toy_doc()
        doc["forecasts"]["dam"]["ndresAvail"]["ghost"] = [1.0, 1.0, 1.0]
        assert "forecast_unknown_asset" in rules(make_scenario(doc))

    def test_window_length_checked_per_session(self):
        # parsing enforces window lengths, so exercise the check on a
        # scenario assembled in code (the same path forecast overrides use)
        import dataclasses

        s = make_scenario(toy_doc())
        short = dataclasses.replace(
            s.idm_forecasts[0], ndres_avail={"wind": (6.0, 5.0)})
        s = dataclasses.replace(s, idm_forecasts=(short,))
        assert "forecast_window" in rules(s)

    def test_negative_availability(self):
        doc = toy_doc()
        doc["forecasts"]["idm"][0]["ndresAvail"]["wind"] = [4.0, -1.0, 5.0]
        assert "forecast_negative" in rules(make_scenario(doc))

    def test_availability_below_technical_minimum(self):
        doc = toy_doc()
        doc["ndres"][0]["pMin"] = [0.0, 2.0, 0.0]
        doc["forecasts"]["idm"][0]["ndresAvail"]["wind"] = [4.0, 1.0, 5.0]
        assert "availability_below_min" in rules(make_scenario(doc))


class TestNumberAndSessionRules:
    """Inputs that used to validate clean and then fail the run."""

    def test_nan_day_ahead_price(self):
        doc = clear_doc()
        doc["calendar"]["damPrices"][3] = float("nan")
        diags = validate_scenario(scenario_from_dict(doc))
        assert [(d.entity, d.rule) for d in diags] == [("calendar.damPrices[3]", "finite")]

    def test_infinite_wind_availability(self):
        doc = clear_doc()
        doc["forecasts"]["dam"]["ndresAvail"]["wind"][5] = float("inf")
        diags = validate_scenario(scenario_from_dict(doc))
        assert [(d.entity, d.rule) for d in diags] == \
            [("forecasts.dam.ndresAvail.wind[5]", "finite")]

    def test_forecast_for_an_unknown_session(self):
        # one set past the last session, of any window: the count names it
        doc = clear_doc()
        doc["forecasts"]["idm"].append(doc["forecasts"]["idm"][-1])
        diags = validate_scenario(scenario_from_dict(doc))
        assert [(d.entity, d.rule, d.message) for d in diags] == [
            ("forecasts", "forecast_count",
             "forecasts.idm holds 8 forecast sets for 7 intraday sessions")]

    def test_intraday_forecasts_are_named_by_position(self):
        doc = clear_doc()
        doc["forecasts"]["idm"][2]["ndresAvail"]["wind"][5] = float("nan")
        diags = validate_scenario(scenario_from_dict(doc))
        assert [(d.entity, d.rule) for d in diags] == \
            [("forecasts.idm[2].ndresAvail.wind[5]", "finite")]
        doc["forecasts"]["idm"][1] = 7.0
        with pytest.raises(ScenarioError,
                           match=re.escape("forecasts.idm[1]: expected an object, got a number")):
            scenario_from_dict(doc)

    def test_non_finite_parameters_are_named_by_asset(self):
        doc = toy_doc()
        doc["dres"][0]["pMax"] = float("inf")
        doc["demands"][0]["profiles"][1]["cost"] = float("nan")
        entities = {d.entity for d in validate_scenario(make_scenario(doc))
                    if d.rule == "finite"}
        assert entities == {"dres[gen].pMax", "demands[load].profiles[shift].cost"}


def _set_leaf(doc, path, value) -> None:
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


# Leaf edits that used to escape the parser as TypeError/ValueError/
# AttributeError; shared with the CLI tests, which expect exit 2.
MALFORMED = [
    (("calendar", "T"), None, "calendar.T: expected a number, got null"),
    (("calendar", "damPrices", 3), "x", "calendar.damPrices: expected a number"),
    (("dres", 0, "pMax"), [], "dres[hydro].pMax: expected a number, got an array"),
    (("network", "tradeCap"), [], "network.tradeCap: expected an object, got an array"),
    (("dres", 0), 7.0, "dres[0]: expected an object, got a number"),
]
MALFORMED_IDS = ["null-T", "string-price", "list-pMax", "list-tradeCap", "number-dres"]


class TestMalformedDocuments:
    """Every defect in the document's shape is a ScenarioError naming its
    path, never a bare TypeError or ValueError."""

    @pytest.mark.parametrize("path, value, message", MALFORMED, ids=MALFORMED_IDS)
    def test_wrong_type_is_named_by_path(self, path, value, message):
        doc = clear_doc()
        _set_leaf(doc, path, value)
        with pytest.raises(ScenarioError, match=re.escape(message)):
            scenario_from_dict(doc)

    def test_demand_without_profiles_is_rejected(self):
        doc = toy_doc()
        del doc["demands"][0]["profiles"]
        with pytest.raises(ScenarioError, match=r"demands\[load\]: missing required key 'profiles'"):
            scenario_from_dict(doc)

    def test_boolean_given_as_string_is_rejected(self):
        doc = toy_doc()
        doc["demands"][0]["profiles"][1]["default"] = "false"
        with pytest.raises(ScenarioError, match=r"profiles\[shift\].default"):
            make_scenario(doc)

    @pytest.mark.parametrize("tau", [-5, 4])
    def test_session_outside_the_horizon_is_a_diagnostic(self, tau):
        doc = toy_doc()
        window = 3 - tau + 1
        doc["calendar"]["sessions"][0].update(tau=tau, prices=[30.0] * window)
        doc["forecasts"]["idm"][0]["ndresAvail"]["wind"] = [4.0] * window
        assert "tau_range" in rules(make_scenario(doc))

    def test_empty_horizon_is_a_diagnostic(self):
        doc = toy_doc()
        doc["calendar"].update(T=0, damPrices=[], sessions=[])
        doc["forecasts"] = {"dam": {"ndresAvail": {"wind": []}}, "idm": []}
        for profile in doc["demands"][0]["profiles"]:
            profile["power"] = []
        assert "period_count" in rules(make_scenario(doc))

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(path=st.sampled_from(list(_leaf_paths(clear_doc()))),
           value=st.one_of(st.none(), st.booleans(), st.integers(-3, 30), st.floats(),
                           st.text(max_size=3), st.lists(st.floats(-5, 5), max_size=3),
                           st.just({}), st.dictionaries(st.text(max_size=2), st.none(),
                                                        max_size=2)))
    def test_any_one_leaf_edit_loads_or_raises_scenario_error(self, path, value):
        doc = clear_doc()
        _set_leaf(doc, path, value)
        try:
            validate_scenario(scenario_from_dict(doc))
        except ScenarioError:
            pass


def _stu_doc(**overrides) -> dict:
    doc = {
        "id": "csp", "bus": "b2",
        "pbMin_th": 20.0, "pbMax_th": 100.0,
        "pbBreak1_th": 40.0, "pbBreak2_th": 70.0,
        "eta1": 0.25, "eta2": 0.3, "eta3": 0.35, "eta4": 0.4,
        "startupLossFactor": 0.1,
        "chargeMin_th": 0.0, "chargeMax_th": 50.0,
        "dischargeMin_th": 0.0, "dischargeMax_th": 50.0,
        "chargeEff": 0.95, "dischargeEff": 0.95,
        "storageCap_th": 200.0, "storageFloor_th": 0.0,
        "endAlphaLo": 0.0, "endAlphaHi": 1.0,
        "initialEnergy_th": 50.0,
        "electricalMin": 5.0, "electricalMax": 40.0,
        "initialPbStatus": "off",
    }
    doc.update(overrides)
    return doc
