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

from vppopt.orchestrator import run, run_vpp, single_asset_scenario
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
        uplift = vpp.profits.total - solo.profits.total
        rel = uplift / abs(solo.profits.total)
        print(f"{name:<7} {vpp.profits.total:11,.2f} {solo.profits.total:14,.2f} "
              f"{uplift:14,.2f} {rel:9.1%}")

        print("        isolated breakdown:")
        for a in s.dres + s.ndres + s.stu:
            alone = run_vpp(single_asset_scenario(s, a.id)).profits.total
            print(f"          {a.id:<12} {alone:12,.2f}")
        for demand_id, profit in solo.passive_demand_profit.items():
            print(f"          {demand_id:<12} {profit:12,.2f}  (passive purchase)")
        print()


if __name__ == "__main__":
    main()
