"""Traffic-light controllers.

Static programs are a pure function of simulation time. Actuated programs
hold green while traffic keeps arriving on the approaches that have it and
skip ahead once those run dry, bounded by per-phase min and max durations.
"""

from __future__ import annotations

from trafcal.netmodel import TlsProgram

ACTUATED_MAX_GAP = 3.0  # seconds without an arrival before green is cut
DETECTION_RANGE = 20.0  # metres upstream of the stop line that count as arrivals


class StaticTls:
    """Fixed-cycle program; phase follows from time by modular arithmetic."""

    def __init__(self, program: TlsProgram):
        self.program = program
        self._bounds = []
        acc = 0.0
        for ph in program.phases:
            acc += ph.duration
            self._bounds.append(acc)
        self.cycle = acc

    def state(self, now: float) -> str:
        t = now % self.cycle
        for i, bound in enumerate(self._bounds):
            if t < bound:
                return self.program.phases[i].state
        return self.program.phases[-1].state


class ActuatedTls:
    """Gap-based actuation: a green phase ends after min_duration once no
    vehicle has arrived on a green approach for ACTUATED_MAX_GAP seconds,
    and always ends at max_duration. Phases without any green run their
    plain duration."""

    def __init__(self, program: TlsProgram, start: float = 0.0):
        self.program = program
        self.index = 0
        self.phase_start = start
        self.last_arrival = start

    def state(self, now: float) -> str:
        return self.program.phases[self.index].state

    def _advance(self, now: float) -> None:
        self.index = (self.index + 1) % len(self.program.phases)
        self.phase_start = now
        self.last_arrival = now

    def step(self, now: float, approach_active: bool) -> None:
        if approach_active:
            self.last_arrival = now
        ph = self.program.phases[self.index]
        elapsed = now - self.phase_start
        if "G" not in ph.state:
            if elapsed >= ph.duration:
                self._advance(now)
            return
        if elapsed >= ph.max_duration:
            self._advance(now)
        elif elapsed >= ph.min_duration and (now - self.last_arrival) > ACTUATED_MAX_GAP:
            self._advance(now)

    def idle_advance(self, now: float) -> None:
        """Catch up over a vehicle-free stretch: with nothing arriving, a
        green phase ends once both min_duration and the gap threshold have
        passed (never later than max_duration), others run their plain
        duration."""
        while True:
            ph = self.program.phases[self.index]
            if "G" in ph.state:
                hold = min(max(ph.min_duration, ACTUATED_MAX_GAP), ph.max_duration)
            else:
                hold = ph.duration
            if self.phase_start + hold > now:
                return
            self._advance(self.phase_start + hold)


def make_controller(program: TlsProgram, start: float = 0.0):
    """The controller of `program`, which `netmodel.engine_violations` must
    have passed: a program of no phases, or of phases that last no time,
    cannot be cycled through."""
    if program.logic == "actuated":
        return ActuatedTls(program, start)
    return StaticTls(program)
