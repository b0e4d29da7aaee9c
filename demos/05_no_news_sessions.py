"""Intraday sessions with nothing new to say stay silent.

Takes a shipped day and replaces every session's prices and forecasts
with the day-ahead ones, so the intraday stages carry no information the
day-ahead stage did not already have. Re-running the full pipeline then
shows every session settling at a zero objective without moving the
committed position - the re-optimizer only acts when it learns
something.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from casestudy import equal_information_variant
from vppopt.orchestrator import run
from vppopt.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--day", choices=("clear", "cloudy"), default="clear")
    args = parser.parse_args()

    s = load_scenario(SCENARIO_DIR / f"{args.day}.json")
    muted = equal_information_variant(s, zero_tolerance=True)

    original = run(s, "vpp")
    silent = run(muted, "vpp")
    if not (original.ok and silent.ok):
        raise SystemExit("a run failed")

    print(f"{s.name} day, sessions re-priced at day-ahead information:")
    print()
    print("session   objective as shipped   objective with no news   position moved")
    for k, (sess_o, sess_m) in enumerate(zip(original.sessions, silent.sessions)):
        if k == 0:  # the day-ahead stage
            continue
        before = silent.ledger_history[k - 1]
        after = silent.ledger_history[k]
        moved = max(abs(after.cumulative_trade(t) - before.cumulative_trade(t))
                    for t in range(1, s.n_periods + 1))
        print(f"{sess_o.key:<9} {sess_o.objective:18,.2f} {sess_m.objective:22.2e} "
              f"{moved:16.2e}")
    print()
    print("with no news every session objective and every adjustment is zero "
          "to solver precision.")


if __name__ == "__main__":
    main()
