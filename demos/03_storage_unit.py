"""A solar-thermal unit banking heat for the evening peak.

Solves the clear day and follows the solar-thermal unit hour by hour:
thermal output of the collector field, storage charging and discharging,
the stored energy, the power block's thermal intake and its electrical
output. The last column re-evaluates the conversion curve at the
reported intake to show the dispatch sits exactly on the curve.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from vppopt.orchestrator import run
from vppopt.scenario import load_scenario
from vppopt.stu import (
    CHG,
    DIS,
    ENERGY,
    PB_ON,
    POWER,
    PPB,
    PSF,
    pb_curve,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--day", choices=("clear", "cloudy"), default="clear")
    args = parser.parse_args()

    s = load_scenario(SCENARIO_DIR / f"{args.day}.json")
    result = run(s, "vpp")
    if not result.ok:
        raise SystemExit(f"run stopped at {result.failure}")

    asset = s.stu[0]
    series = {role: result.ledger.schedules[role, asset.id]
              for role in (PSF, CHG, DIS, ENERGY, PPB, PB_ON, POWER)}
    curve = pb_curve(asset)

    def on_curve(thermal_input: float) -> float:
        return float(np.interp(thermal_input, curve.breakpoints, curve.values))

    print(f"{asset.id} on the {s.name} day "
          f"(storage {asset.storage_cap[-1]:.0f} MWh_th, "
          f"end window [{asset.end_alpha_lo:.0%}, {asset.end_alpha_hi:.0%}])")
    print()
    print("hour  field  charge  disch  stored  intake  output  curve(intake)")
    for t in range(1, s.n_periods + 1):
        i = t - 1
        on = series[PB_ON][i] > 0.5
        fitted = on_curve(series[PPB][i]) if on else 0.0
        cols = [series[PSF][i], series[CHG][i], series[DIS][i],
                series[ENERGY][i], series[PPB][i], series[POWER][i], fitted]
        psf, chg, dis, stored, ppb, power, fitted = (v + 0.0 for v in cols)
        print(f"{t:4d} {psf:6.1f} {chg:7.1f} {dis:6.1f} {stored:7.1f} "
              f"{ppb:7.2f} {power:7.2f} {fitted:10.2f}")

    end = series[ENERGY][-1]
    lo = asset.end_alpha_lo * asset.storage_cap[-1]
    hi = asset.end_alpha_hi * asset.storage_cap[-1]
    print()
    print(f"end-of-day storage {end:.1f} MWh_th inside [{lo:.1f}, {hi:.1f}]")
    worst = max(abs(series[POWER][t] - on_curve(series[PPB][t]))
                for t in range(s.n_periods) if series[PB_ON][t] > 0.5)
    print(f"largest curve deviation while running: {worst:.2e} MW")


if __name__ == "__main__":
    main()
