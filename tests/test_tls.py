"""Traffic-light controllers: static cycling and gap-based actuation."""

import random

from trafcal.microsim import tls
from trafcal.netmodel import TlsPhase, TlsProgram


def static_program(*durations):
    phases = tuple(
        TlsPhase(d, d, d, "G" if i % 2 == 0 else "r")
        for i, d in enumerate(durations)
    )
    return TlsProgram("j", "static", phases)


def actuated_program(green_min=5.0, green_max=60.0, green_dur=42.0, amber=3.0):
    return TlsProgram(
        "j",
        "actuated",
        (
            TlsPhase(green_dur, green_min, green_max, "Gr"),
            TlsPhase(amber, amber, amber, "yr"),
            TlsPhase(green_dur, green_min, green_max, "rG"),
            TlsPhase(amber, amber, amber, "ry"),
        ),
    )


# -- static ------------------------------------------------------------------


def test_static_two_phase_at_45():
    prog = static_program(30.0, 30.0)
    ctrl = tls.StaticTls(prog)
    assert ctrl.state(45.0) == prog.phases[1].state


def test_static_boundaries_wrap():
    prog = static_program(30.0, 30.0)
    ctrl = tls.StaticTls(prog)
    assert ctrl.state(0.0) == prog.phases[0].state
    assert ctrl.state(29.999) == prog.phases[0].state
    assert ctrl.state(30.0) == prog.phases[1].state
    assert ctrl.state(60.0) == prog.phases[0].state
    assert ctrl.state(61.0) == prog.phases[0].state


def test_static_matches_linear_scan():
    rng = random.Random(931)
    for _ in range(100):
        durations = [rng.randint(1, 90) for _ in range(rng.randint(2, 6))]
        prog = static_program(*map(float, durations))
        ctrl = tls.StaticTls(prog)
        cycle = float(sum(durations))
        for _ in range(50):
            now = rng.uniform(0.0, 10.0 * cycle)
            # reference: subtract whole phases from the cycle position
            t = now % cycle
            idx = 0
            while t >= durations[idx]:
                t -= durations[idx]
                idx += 1
            assert ctrl.state(now) == prog.phases[idx].state


def test_make_controller_dispatch():
    assert isinstance(tls.make_controller(static_program(30.0, 30.0)), tls.StaticTls)
    assert isinstance(tls.make_controller(actuated_program()), tls.ActuatedTls)


# -- actuated ----------------------------------------------------------------


def drive(ctrl, arrivals, until, dt=1.0):
    """Step the controller with a set of arrival times; record phase flips."""
    flips = []
    t = 0.0
    while t <= until:
        before = ctrl.index
        ctrl.step(t, t in arrivals)
        if ctrl.index != before:
            flips.append(t)
        t += dt
    return flips


def test_actuated_continuous_occupancy_holds_max():
    ctrl = tls.ActuatedTls(actuated_program(green_min=5.0, green_max=20.0))
    flips = drive(ctrl, set(range(0, 200)), until=25.0)
    assert flips[0] == 20.0  # exactly max_duration


def test_actuated_gap_out_advances_next_step():
    # arrivals stop at t=2; the 3 s gap is first exceeded at t=6, one past
    # the 5 s minimum, and the phase must advance on that very step
    ctrl = tls.ActuatedTls(actuated_program(green_min=5.0, green_max=60.0))
    flips = drive(ctrl, {0.0, 1.0, 2.0}, until=10.0)
    assert flips[0] == 6.0


def test_actuated_min_duration_holds_empty_approach():
    ctrl = tls.ActuatedTls(actuated_program(green_min=10.0, green_max=60.0))
    flips = drive(ctrl, set(), until=15.0)
    assert flips[0] == 10.0


def test_actuated_non_green_runs_plain_duration():
    ctrl = tls.ActuatedTls(actuated_program(amber=3.0))
    # park the controller in the amber phase, then flood it with arrivals
    ctrl.index = 1
    ctrl.phase_start = 0.0
    flips = drive(ctrl, set(range(0, 20)), until=6.0)
    assert flips[0] == 3.0
    assert ctrl.index == 2


def test_actuated_sequence_order_fixed():
    ctrl = tls.ActuatedTls(actuated_program())
    seen = [ctrl.index]
    for t in range(0, 400):
        ctrl.step(float(t), False)
        if ctrl.index != seen[-1]:
            seen.append(ctrl.index)
    assert seen[:6] == [0, 1, 2, 3, 0, 1]


def test_idle_advance_matches_stepping():
    stepped = tls.ActuatedTls(actuated_program())
    idled = tls.ActuatedTls(actuated_program())
    for t in range(0, 300):
        stepped.step(float(t), False)
        idled.idle_advance(float(t))
        assert (idled.index, idled.phase_start) == (
            stepped.index,
            stepped.phase_start,
        ), f"diverged at t={t}"


def test_idle_advance_jump():
    # one big jump lands in the same phase as many small ones
    a = tls.ActuatedTls(actuated_program())
    b = tls.ActuatedTls(actuated_program())
    for t in range(0, 250):
        a.idle_advance(float(t))
    b.idle_advance(249.0)
    assert (a.index, a.phase_start) == (b.index, b.phase_start)
