"""What coordinating the portfolio is worth.

Runs both shipped days twice: once as a coordinated plant that offers
one aggregate position, and once with every asset bidding alone while
the demands passively buy their default profiles. The aggregate profits
meet in a small table; the uplift is the value of coordination, and it
grows sharply on the cloudy day, where the portfolio can absorb solar
shortfalls internally instead of buying them back at spiked prices.
"""

from __future__ import annotations

from pathlib import Path

from vppopt.orchestrator import passive_demand_profit, run, single_asset_scenario
from vppopt.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def main() -> None:
    print("day     coordinated       isolated         uplift   relative")
    for name in ("clear", "cloudy"):
        s = load_scenario(SCENARIO_DIR / f"{name}.json")
        vpp = run(s, "vpp")
        solo = run(s, "nocoord")
        if not (vpp.ok and solo.ok):
            raise SystemExit(f"{name}: run failed")
        uplift = vpp.total_profit - solo.total_profit
        rel = uplift / abs(solo.total_profit)
        print(f"{name:<7} {vpp.total_profit:11,.2f} {solo.total_profit:14,.2f} "
              f"{uplift:14,.2f} {rel:9.1%}")

        print("        isolated breakdown:")
        for a in s.dres + s.ndres + s.stu:
            alone = run(single_asset_scenario(s, a.id)).total_profit
            print(f"          {a.id:<12} {alone:12,.2f}")
        for d in s.demands:
            print(f"          {d.id:<12} {passive_demand_profit(s, d):12,.2f}  "
                  f"(passive purchase)")
        print()


if __name__ == "__main__":
    main()
