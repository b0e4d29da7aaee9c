"""Sequential intraday corrections as forecasts deteriorate.

Runs the full day-ahead-plus-seven-sessions pipeline on the cloudy day,
where the solar forecasts erode session by session and afternoon prices
spike. Each session prints its adjustment value and how far it moved the
committed market position; the day ends with the settled aggregate
profit next to an independent recomputation from the raw schedules.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from vppopt.orchestrator import run
from vppopt.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--day", choices=("clear", "cloudy"), default="cloudy")
    args = parser.parse_args()

    s = load_scenario(SCENARIO_DIR / f"{args.day}.json")
    result = run(s, "vpp")
    if not result.ok:
        raise SystemExit(f"run stopped at {result.failure}")

    print(f"{s.name} day: {len(result.sessions)} sessions, "
          f"total profit {result.total_profit:,.2f} EUR")
    print()
    print("session  window   objective   moved MWh  largest single correction")
    history = result.ledger_history
    taus = {f"idm{k}": idm.first_period for k, idm in enumerate(s.calendar.sessions, start=1)}
    for i, sess in enumerate(result.sessions):
        if sess.key == "dam":
            print(f"dam       1..{s.n_periods} {sess.objective:11,.2f}"
                  f"          -  opening position")
            continue
        tau = taus[sess.key]
        before, after = history[i - 1], history[i]
        deltas = [after.cumulative_trade(t) - before.cumulative_trade(t)
                  for t in range(1, s.n_periods + 1)]
        moved = sum(abs(d) for d in deltas)
        worst_t = max(range(s.n_periods), key=lambda t: abs(deltas[t]))
        print(f"{sess.key:<8} {tau:2d}..{s.n_periods} {sess.objective:11,.2f} "
              f"{moved:10.2f}  {deltas[worst_t]:+8.2f} MW in hour {worst_t + 1}")

    print()
    print("profit by session (solver vs recomputed from schedules):")
    for key, value in result.profits.items():
        recomputed = result.recomputed_profits[key]
        print(f"  {key:<5} {value:12,.2f}   {recomputed:12,.2f}")
    print(f"largest bookkeeping drift: {result.max_recompute_drift():.2e} EUR")


if __name__ == "__main__":
    main()
