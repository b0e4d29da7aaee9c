"""How much a demand can charge for flexibility before it prices itself out.

Each alternative consumption profile carries a payment the plant owes
the demand for deviating from its default. This demo finds that
payment for one demand/profile pair on the clear day from two day-ahead
solves, one with each profile held: below the threshold the optimizer
books the alternative profile, above it the default wins. Sweep all
pairs with --all (about two seconds).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from vppopt.orchestrator import sweep_profile_costs
from vppopt.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--day", choices=("clear", "cloudy"), default="clear")
    parser.add_argument("--demand", default="industrial")
    parser.add_argument("--profile", default="night_shift")
    parser.add_argument("--max", type=float, default=1200.0,
                        help="largest payment reported as a threshold")
    parser.add_argument("--step", type=float, default=2.0,
                        help="margin in EUR: thresholds sit half a step "
                             "below the break-even payment")
    parser.add_argument("--all", action="store_true",
                        help="sweep every non-default profile")
    args = parser.parse_args()

    s = load_scenario(SCENARIO_DIR / f"{args.day}.json")
    if args.all:
        entries = sweep_profile_costs(s, max_cost=args.max, resolution=args.step)
    else:
        entries = sweep_profile_costs(s, demand_id=args.demand,
                                      profile_id=args.profile,
                                      max_cost=args.max, resolution=args.step)

    print(f"{s.name} day, thresholds {args.step / 2:g} EUR below break-even:")
    for e in entries:
        if e.status == "threshold":
            print(f"  {e.demand_id}/{e.profile_id}: worth up to "
                  f"{e.threshold:.2f} EUR per day")
        elif e.status == "never":
            print(f"  {e.demand_id}/{e.profile_id}: never selected, "
                  f"even when free")
        else:
            print(f"  {e.demand_id}/{e.profile_id}: still selected at "
                  f"{args.max:g} EUR")


if __name__ == "__main__":
    main()
