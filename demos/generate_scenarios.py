"""Regenerate the shipped study-day scenario files.

Writes scenarios/clear.json and scenarios/cloudy.json from the study
builders in casestudy.py, validates the round trip, and reports what
changed. The shipped files are byte-for-byte reproducible from this
script.
"""

from __future__ import annotations

from pathlib import Path

from casestudy import clear_scenario, cloudy_scenario
from vppopt.scenario import load_scenario, save_scenario, scenario_to_dict

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def main() -> None:
    SCENARIO_DIR.mkdir(parents=True, exist_ok=True)
    for name, builder in (("clear", clear_scenario), ("cloudy", cloudy_scenario)):
        path = SCENARIO_DIR / f"{name}.json"
        before = path.read_bytes() if path.exists() else None
        save_scenario(builder(), path)
        changed = path.read_bytes() != before
        # loading validates; a broken builder fails here, not at use time
        reloaded = load_scenario(path)
        assert scenario_to_dict(reloaded) == scenario_to_dict(builder())
        state = "rewritten" if changed else "unchanged"
        print(f"{path}: {state} ({reloaded.n_periods} periods, "
              f"{len(reloaded.calendar.sessions)} sessions)")


if __name__ == "__main__":
    main()
