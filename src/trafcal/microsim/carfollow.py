"""Stochastic collision-free car-following model.

Speeds update synchronously once per step: a vehicle accelerates towards
its desired speed but never beyond the safe speed that guarantees it can
stop behind its leader, then a random fraction of one step's acceleration
is knocked off again to model driver imperfection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from trafcal import netmodel


@dataclass(frozen=True)
class VehicleType:
    """Driving parameters shared by all vehicles of one kind: accelerations
    in m/s^2, reaction time `tau` in s, imperfection `sigma`, gap and
    length in m, speed in m/s."""

    accel: float = netmodel.bounded("(0, inf)")
    decel: float = netmodel.bounded("(0, inf)")
    tau: float = netmodel.bounded("[0, inf)")
    sigma: float = netmodel.bounded("[0, 1]")
    min_gap: float = netmodel.bounded("[0, inf)")
    length: float = netmodel.bounded("(0, inf)")
    max_speed: float = netmodel.bounded("(0, inf)")

    def __post_init__(self):
        netmodel.check_bounds(self)


CAR = VehicleType(accel=2.6, decel=4.5, tau=1.0, sigma=0.5, min_gap=2.5, length=5.0, max_speed=50.0)
BUS = VehicleType(accel=1.2, decel=4.0, tau=1.0, sigma=0.5, min_gap=2.5, length=12.0, max_speed=25.0)


def safe_speed(leader_speed: float, gap: float, decel: float, tau: float) -> float:
    """Highest speed from which the follower can still brake to avoid the
    leader, assuming both decelerate at `decel` after reaction time `tau`.

    `gap` is net bumper-to-bumper distance with the desired minimum gap
    already subtracted; anything at or below zero forces a stop.
    """
    if gap <= 0:
        return 0.0
    bt = decel * tau
    v = -bt + math.sqrt(bt * bt + leader_speed * leader_speed + 2.0 * decel * gap)
    return max(0.0, v)


def next_speed(
    speed: float,
    v_max: float,
    gap: float,
    leader_speed: float,
    vtype: VehicleType,
    step: float,
    rand01: float,
) -> float:
    """One synchronous speed update for a follower with a known leader.

    Pass gap = inf for a free road. rand01 in [0, 1) scales the stochastic
    slowdown; 0 gives the deterministic upper envelope.
    """
    v_des = speed + vtype.accel * step
    if v_des > v_max:
        v_des = v_max
    if not math.isinf(gap):
        vs = safe_speed(leader_speed, gap, vtype.decel, vtype.tau)
        if vs < v_des:
            v_des = vs
    v = v_des - vtype.sigma * vtype.accel * step * rand01
    if v < 0.0:
        return 0.0
    return v

