"""Car-following speed update: safe speed, desired speed, imperfection."""

import dataclasses
import math
import random

import pytest

from trafcal.microsim import SimConfig
from trafcal.microsim.carfollow import (
    BUS,
    CAR,
    VehicleType,
    next_speed,
    safe_speed,
)


# -- frozen values -----------------------------------------------------------


def test_standstill_behind_stopped_leader():
    assert next_speed(0.0, CAR.max_speed, 0.0, 0.0, CAR, 0.1, 0.0) == 0.0
    assert next_speed(0.0, CAR.max_speed, 0.0, 0.0, CAR, 0.1, 0.999) == 0.0


def test_free_road_accelerates_one_step():
    # v_des = 10 + 2.6 * 0.1, nothing else binds
    v = next_speed(10.0, 13.9, 1e6, 0.0, CAR, 0.1, 0.0)
    assert abs(v - 10.26) < 1e-9


def test_safe_speed_closed_form():
    # -b*tau + sqrt(b^2 tau^2 + v_l^2 + 2 b g) with b=4.5, tau=1, g=2
    want = -4.5 + math.sqrt(20.25 + 18.0)
    got = safe_speed(0.0, 2.0, 4.5, 1.0)
    assert abs(got - want) < 1e-12
    assert abs(got - 1.6847) < 5e-5
    # with plenty of speed and no imperfection the safe speed is the result
    v = next_speed(50.0, CAR.max_speed, 2.0, 0.0, CAR, 0.1, 0.0)
    assert abs(v - want) < 1e-12


def test_nonpositive_gap_forces_stop():
    assert safe_speed(13.0, 0.0, 4.5, 1.0) == 0.0
    assert safe_speed(13.0, -3.0, 4.5, 1.0) == 0.0


# -- properties --------------------------------------------------------------


def test_safe_speed_satisfies_quadratic():
    # (v_safe + b*tau)^2 must reproduce b^2 tau^2 + v_l^2 + 2 b g
    rng = random.Random(481)
    for _ in range(2000):
        vl = rng.uniform(0.0, 40.0)
        gap = rng.uniform(0.001, 500.0)
        b = rng.uniform(1.0, 9.0)
        tau = rng.uniform(0.5, 2.5)
        vs = safe_speed(vl, gap, b, tau)
        lhs = (vs + b * tau) ** 2
        rhs = b * b * tau * tau + vl * vl + 2.0 * b * gap
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


def test_speed_box_and_envelope():
    rng = random.Random(482)
    for _ in range(2000):
        vt = dataclasses.replace(
            CAR,
            accel=rng.uniform(0.5, 4.0),
            decel=rng.uniform(2.0, 8.0),
            tau=rng.uniform(0.5, 2.0),
            sigma=rng.uniform(0.0, 1.0),
        )
        speed = rng.uniform(0.0, 40.0)
        v_max = rng.uniform(5.0, 40.0)
        gap = rng.choice([math.inf, rng.uniform(0.0, 200.0)])
        lead = rng.uniform(0.0, 30.0)
        step = rng.choice([0.1, 0.5, 1.0])
        u = rng.random()
        v = next_speed(speed, v_max, gap, lead, vt, step, u)
        ceiling = next_speed(speed, v_max, gap, lead, vt, step, 0.0)
        assert 0.0 <= v <= v_max + 1e-12
        assert v <= ceiling + 1e-12
        # imperfection removes at most one step's worth of acceleration
        assert v >= ceiling - vt.sigma * vt.accel * step - 1e-12


def test_more_imperfection_never_speeds_up():
    rng = random.Random(483)
    for _ in range(500):
        speed = rng.uniform(0.0, 30.0)
        gap = rng.uniform(0.0, 100.0)
        lead = rng.uniform(0.0, 20.0)
        a = next_speed(speed, 30.0, gap, lead, CAR, 1.0, 0.2)
        b = next_speed(speed, 30.0, gap, lead, CAR, 1.0, 0.8)
        assert b <= a + 1e-12


def test_next_speed_stops_at_floored_negative_gap():
    # a caller measuring bumpers may find a small negative gap; floored at
    # zero it forces a stop
    assert next_speed(20.0, CAR.max_speed, max(0.0, -0.5), 0.0, CAR, 1.0, 0.0) == 0.0


def test_default_types():
    assert CAR.accel == 2.6 and CAR.decel == 4.5 and CAR.tau == 1.0
    assert CAR.sigma == 0.5 and CAR.min_gap == 2.5 and CAR.length == 5.0
    assert BUS.length == 12.0 and BUS.max_speed == 25.0
    assert SimConfig().car == CAR and SimConfig().bus == BUS


def test_vehicle_type_ranges_refuse_nan():
    # a type may come from a config file, so each field is range-checked,
    # in a form that NaN fails too
    fields = dict(accel=2.6, decel=4.5, tau=1.0, sigma=0.5, min_gap=2.5, length=5.0,
                  max_speed=50.0)
    assert VehicleType(**fields) == CAR
    assert VehicleType(**{**fields, "tau": 0.0, "min_gap": 0.0, "sigma": 1.0}).tau == 0.0
    for key, bad in (("accel", 0.0), ("decel", -1.0), ("length", math.inf),
                     ("max_speed", math.nan), ("tau", -0.1), ("min_gap", math.inf),
                     ("tau", math.nan), ("sigma", 1.5), ("sigma", math.nan)):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            VehicleType(**{**fields, key: bad})
