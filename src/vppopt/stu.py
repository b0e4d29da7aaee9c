"""Solar thermal unit constraints: field, storage, power block.

The unit couples a solar field (thermal availability series), a thermal
storage loop with charge/discharge efficiencies, and a power block whose
thermal-to-electric conversion steepens with load. The conversion is the
continuous interpolant through the curve's four operating breakpoints
(minimum load, two interior breaks, full load), encoded with SOS-2
weights that sum to the commitment: a committed block runs inside its
operating window, and an off block has all-zero weights, so no input and
no output. In each period the breakpoints are clipped at the most heat
that can reach the block, the field's availability plus the storage's
discharge rating, and a block that cannot reach its minimum load then is
held off. :class:`PbCurve` is the whole curve from the origin.

Builders take an explicit period window plus the storage energy and power
block status just before it, so the same code serves the day-ahead stage
(full horizon, scenario initial state) and intraday sessions (receding
window, ledger state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from vppopt.milp import MilpModel
from vppopt.registry import VariableRegistry
from vppopt.scenario import StuAsset

# registry roles
PSF = "stu_psf"        # solar field thermal output [MW_th]
CHG = "stu_chg"        # storage charging [MW_th]
DIS = "stu_dis"        # storage discharging [MW_th]
UPLUS = "stu_uplus"    # 1 while charging (excludes discharging)
ENERGY = "stu_e"       # stored energy [MWh_th]
PPB = "stu_ppb_th"     # power block thermal input [MW_th]
PB_ON = "stu_u"        # power block committed
PB_START = "stu_v1"    # power block startup indicator
POWER = "stu_p"        # electrical output [MW]
WEIGHT = "stu_w"       # SOS-2 weights, roles stu_w1..stu_w4


@dataclass(frozen=True)
class PbCurve:
    """Piecewise-linear thermal-to-electric map of the power block."""

    breakpoints: tuple[float, ...]  # MW_th
    values: tuple[float, ...]       # MW

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values):
            raise ValueError("breakpoints and values must align")
        if self.values[0] != 0 or self.breakpoints[0] != 0:
            raise ValueError("curve must pass through the origin")
        if any(b2 < b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be non-decreasing")
        if any(v2 < v1 for v1, v2 in zip(self.values, self.values[1:])):
            raise ValueError("values must be non-decreasing")


def pb_curve(asset: StuAsset) -> PbCurve:
    """Conversion curve of an asset's power block.

    Each interior breakpoint carries the conversion factor of the segment
    it closes, so output rises continuously and the per-segment factors
    are met exactly at the grid points.
    """
    b = (0.0, asset.pb_min, asset.pb_break1, asset.pb_break2, asset.pb_max)
    eta = (asset.eta1, asset.eta2, asset.eta3, asset.eta4)
    v = (0.0,) + tuple(e * x for e, x in zip(eta, b[1:]))
    return PbCurve(breakpoints=b, values=v)


def register_stu_variables(model: MilpModel, reg: VariableRegistry, asset: StuAsset,
                           periods: Sequence[int]) -> None:
    """Declare the unit's variable block over a period window."""
    for t in periods:
        reg.new(model, PSF, asset.id, t, lb=0.0, ub=math.inf)  # capped per session below
        reg.new(model, CHG, asset.id, t, lb=0.0, ub=asset.charge_max)
        reg.new(model, DIS, asset.id, t, lb=0.0, ub=asset.discharge_max)
        reg.new(model, UPLUS, asset.id, t, kind="binary")
        reg.new(model, ENERGY, asset.id, t,
                lb=asset.storage_floor[t - 1], ub=asset.storage_cap[t - 1])
        reg.new(model, PPB, asset.id, t, lb=0.0, ub=asset.pb_max)
        reg.new(model, PB_ON, asset.id, t, kind="binary")
        # the three startup inequalities pin this to u_t(1 - u_{t-1})
        # whenever the on/off statuses are binary, so it can stay continuous
        reg.new(model, PB_START, asset.id, t, lb=0.0, ub=1.0)
        reg.new(model, POWER, asset.id, t, lb=0.0, ub=math.inf)
        for i in range(1, 5):
            reg.new(model, f"{WEIGHT}{i}", asset.id, t, lb=0.0, ub=1.0)


def build_stu_constraints(model: MilpModel, reg: VariableRegistry, asset: StuAsset,
                          periods: Sequence[int], avail: Mapping[int, float],
                          dt: float, initial_energy: float, initial_pb_on: bool) -> None:
    """Field, storage and power block coupling over a period window.

    ``avail`` maps each period to the solar field's thermal availability;
    ``initial_energy`` and ``initial_pb_on`` describe the state one period
    before the window starts.
    """
    a = asset
    last = periods[-1]
    for idx, t in enumerate(periods):
        psf = reg.id(PSF, a.id, t)
        chg = reg.id(CHG, a.id, t)
        dis = reg.id(DIS, a.id, t)
        up = reg.id(UPLUS, a.id, t)
        e = reg.id(ENERGY, a.id, t)
        ppb = reg.id(PPB, a.id, t)
        u = reg.id(PB_ON, a.id, t)
        v1 = reg.id(PB_START, a.id, t)

        model.set_bounds(psf, ub=avail[t])

        # storage charges from the solar field only: availability and the
        # loop rating both cap it, and charging excludes discharging
        model.add_constraint({chg: 1.0, up: -avail[t]}, "<=", 0.0, f"stu_chg_avail.{a.id}.t{t}")
        model.add_constraint({chg: 1.0, up: -a.charge_max}, "<=", 0.0, f"stu_chg_cap.{a.id}.t{t}")
        model.add_constraint({chg: 1.0, up: -a.charge_min}, ">=", 0.0, f"stu_chg_min.{a.id}.t{t}")
        model.add_constraint({dis: 1.0, up: a.discharge_max}, "<=", a.discharge_max,
                             f"stu_dis_cap.{a.id}.t{t}")
        model.add_constraint({dis: 1.0, up: a.discharge_min}, ">=", a.discharge_min,
                             f"stu_dis_min.{a.id}.t{t}")

        # thermal input: field plus discharge, minus charge and startup loss
        model.add_constraint(
            {ppb: 1.0, psf: -1.0, dis: -1.0, chg: 1.0, v1: a.startup_loss * a.pb_max},
            "==", 0.0, f"stu_pb_input.{a.id}.t{t}")

        # storage balance against the previous period (or the initial fill)
        balance = {e: 1.0, chg: -a.charge_eff * dt, dis: dt / a.discharge_eff}
        if idx == 0:
            model.add_constraint(balance, "==", initial_energy, f"stu_ebal.{a.id}.t{t}")
        else:
            balance[reg.id(ENERGY, a.id, periods[idx - 1])] = -1.0
            model.add_constraint(balance, "==", 0.0, f"stu_ebal.{a.id}.t{t}")

        # startup indicator: v1 = 1 exactly on off-to-on transitions
        if idx == 0:
            u_prev_const = 1.0 if initial_pb_on else 0.0
            model.add_constraint({v1: 1.0, u: -1.0}, ">=", -u_prev_const,
                                 f"stu_start_lo.{a.id}.t{t}")
            model.add_constraint({v1: 1.0}, "<=", 1.0 - u_prev_const,
                                 f"stu_start_prev.{a.id}.t{t}")
        else:
            u_prev = reg.id(PB_ON, a.id, periods[idx - 1])
            model.add_constraint({v1: 1.0, u: -1.0, u_prev: 1.0}, ">=", 0.0,
                                 f"stu_start_lo.{a.id}.t{t}")
            model.add_constraint({v1: 1.0, u_prev: 1.0}, "<=", 1.0,
                                 f"stu_start_prev.{a.id}.t{t}")
        model.add_constraint({v1: 1.0, u: -1.0}, "<=", 0.0, f"stu_start_on.{a.id}.t{t}")

    # end-of-window fill, reserved for the next operating day
    cap_end = a.storage_cap[last - 1]
    e_last = reg.id(ENERGY, a.id, last)
    model.add_constraint({e_last: 1.0}, ">=", a.end_alpha_lo * cap_end, f"stu_end_lo.{a.id}")
    model.add_constraint({e_last: 1.0}, "<=", a.end_alpha_hi * cap_end, f"stu_end_hi.{a.id}")


def build_pb_conversion(model: MilpModel, reg: VariableRegistry, asset: StuAsset,
                        periods: Sequence[int], avail: Mapping[int, float]) -> None:
    """Tie thermal input to electrical output through SOS-2 weights.

    The weights sit on the operating breakpoints ``pbMin .. pbMax`` and
    sum to the commitment state. A committed block therefore interpolates
    between two adjacent operating points, which also keeps its input
    within ``[pbMin, pbMax]``; an off block forces input and output to zero.

    The block's input is at most ``avail[t] + dischargeMax`` (field plus
    discharge, ``stu_pb_input``), so in each period every breakpoint above
    ``cap = min(pbMax, avail[t] + dischargeMax)`` is moved down to ``cap``
    with the curve's value there. The curve below ``cap`` is unchanged, so
    the schedules the model admits stay the same while its LP relaxation
    can no longer run a part-committed block at an unreachable load. When
    ``cap < pbMin`` the block cannot run at all, and ``stu_u`` is fixed at 0
    through its upper bound.
    """
    curve = pb_curve(asset)
    for t in periods:
        w = [reg.id(f"{WEIGHT}{i}", asset.id, t) for i in range(1, 5)]
        ppb = reg.id(PPB, asset.id, t)
        p = reg.id(POWER, asset.id, t)
        u = reg.id(PB_ON, asset.id, t)

        cap = min(asset.pb_max, avail[t] + asset.discharge_max)
        if cap < asset.pb_min:
            model.set_bounds(u, ub=0.0)
        breakpoints, values = _clipped_operating_points(curve, cap)

        coeffs = {wi: b for wi, b in zip(w, breakpoints)}
        coeffs[ppb] = -1.0
        model.add_constraint(coeffs, "==", 0.0, f"stu_conv_in.{asset.id}.t{t}")

        coeffs = {wi: v for wi, v in zip(w, values)}
        coeffs[p] = -1.0
        model.add_constraint(coeffs, "==", 0.0, f"stu_conv_out.{asset.id}.t{t}")

        coeffs = {wi: 1.0 for wi in w}
        coeffs[u] = -1.0
        model.add_constraint(coeffs, "==", 0.0, f"stu_conv_sum.{asset.id}.t{t}")

        model.add_sos2(w, f"stu_sos2.{asset.id}.t{t}")


def _clipped_operating_points(curve: PbCurve, cap: float
                              ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The curve's operating breakpoints with each one above ``cap`` moved
    down to ``cap``, and their values on the curve: a breakpoint at or
    below ``cap`` keeps its own value, one above it takes the value
    interpolated between the two breakpoints around ``cap``."""
    b, v = curve.breakpoints, curve.values
    if cap >= b[-1]:
        return b[1:], v[1:]
    i = next(i for i in range(1, len(b)) if b[i] > cap)  # b[i-1] <= cap < b[i]
    v_cap = v[i - 1] + (cap - b[i - 1]) * (v[i] - v[i - 1]) / (b[i] - b[i - 1])
    return (tuple(min(x, cap) for x in b[1:]),
            tuple(y if x <= cap else v_cap for x, y in zip(b[1:], v[1:])))
