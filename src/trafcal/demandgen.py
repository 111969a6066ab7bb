"""Activity-based travel demand from district demographics.

Trips come from five sources: resident workers commuting by shift,
school drop-off chains, university students, external traffic through
city gates, and midday errands of non-working adults. Everything is
sampled from one seeded stream in a fixed iteration order, so a given
statistics file and seed always produce the same trips.
"""

from __future__ import annotations

import math
import random
import typing
from dataclasses import dataclass

from trafcal import netmodel
from trafcal.microsim.simio import DAY_S, RoutePlan

AGE_BRACKETS = (
    (0, 5), (6, 9), (10, 14), (15, 17), (18, 24), (25, 29), (30, 39),
    (40, 49), (50, 59), (60, 64), (65, 74), (75, 84), (85, 120),
)
ADULT_AGE = 18
ADULT_BRACKET_START = next(i for i, (lo, _) in enumerate(AGE_BRACKETS) if lo >= ADULT_AGE)
LAST_DEPART_S = DAY_S - 1.0  # a trip departs within the simulated day

TRIP_PURPOSES = (
    "work", "school_dropoff", "university", "incoming", "outgoing", "free_time",
)

FREE_TIME_EARLIEST = 36000.0  # 10:00
FREE_TIME_LATEST = 50400.0  # 14:00
FREE_TIME_STAY_MIN = 1800.0
FREE_TIME_STAY_MAX = 7200.0


class DemandError(ValueError):
    """Raised when demand inputs are inconsistent."""


# the rules across a statistics file's fields, written so that NaN fails them
def _check_shares(what: str, shares) -> None:
    total = sum(shares)
    if not abs(total - 1.0) <= 1e-9:
        raise DemandError(f"{what} sum to {total}, expected 1")


def _check_hours(what: str, opening_h: float, closing_h: float) -> None:
    if not opening_h < closing_h:
        raise DemandError(f"{what}: opening_h must precede closing_h")
    for key, value in (("opening_h", opening_h), ("closing_h", closing_h)):
        if not 0.0 <= value <= DAY_S:
            raise DemandError(f"{what}: {key} {value} outside [0, {DAY_S:.0f}] seconds of the day")


@dataclass(frozen=True)
class DistrictStats:
    id: str
    edge_ids: tuple[str, ...]
    inhabitants: int = netmodel.bounded("[0, inf)")
    workers: int = netmodel.bounded("[0, inf)")
    work_positions: int = netmodel.bounded("[0, inf)")
    age_brackets: tuple[int, ...] = netmodel.bounded("[0, inf)")

    def __post_init__(self):
        netmodel.check_bounds(self, DemandError)


@dataclass(frozen=True)
class CityGate:
    id: str
    in_edge: str
    out_edge: str
    incoming_share: float = netmodel.bounded("[0, 1]")
    outgoing_share: float = netmodel.bounded("[0, 1]")

    def __post_init__(self):
        netmodel.check_bounds(self, DemandError)


@dataclass(frozen=True)
class School:
    id: str
    edge_id: str
    age_min: int
    age_max: int
    capacity: int = netmodel.bounded("[0, inf)")
    opening_h: float
    closing_h: float

    def __post_init__(self):
        netmodel.check_bounds(self, DemandError)

    @property
    def is_university(self) -> bool:
        return self.age_min >= ADULT_AGE


@dataclass(frozen=True)
class WorkHours:
    opening_h: float
    closing_h: float
    worker_share: float = netmodel.bounded("[0, 1]")

    def __post_init__(self):
        netmodel.check_bounds(self, DemandError)


@dataclass(frozen=True)
class DemandConfig:
    car_rate: float = netmodel.bounded("[0, 1]")
    car_preference_rate: float = netmodel.bounded("[0, 1]")
    incoming_total: int = netmodel.bounded("[0, inf)")
    outgoing_total: int = netmodel.bounded("[0, inf)")
    work_hours: tuple[WorkHours, ...]
    # an infinite spread clamps every commute departure to midnight
    departure_jitter_sd: float = netmodel.bounded("[0, inf)", 900.0)
    free_time_rate: float = netmodel.bounded("[0, 1]", 0.1)
    seed: int = 0

    def __post_init__(self):
        netmodel.check_bounds(self, DemandError)
        if not self.work_hours:
            raise DemandError("at least one work_hours entry is required")
        _check_shares("work_hours shares", (w.worker_share for w in self.work_hours))
        for i, w in enumerate(self.work_hours):
            _check_hours(f"work_hours[{i}]", w.opening_h, w.closing_h)


@dataclass(frozen=True, kw_only=True)
class Statistics:
    """The demand statistics, the record of a statistics file: districts,
    city gates and schools, and the `DemandConfig` they are sampled by."""

    districts: tuple[DistrictStats, ...] = ()
    gates: tuple[CityGate, ...] = ()
    schools: tuple[School, ...] = ()
    config: DemandConfig


# one per trip, so without an instance dict
@dataclass(frozen=True, slots=True)
class Trip:
    id: str
    depart: float
    from_edge: str
    to_edge: str
    purpose: typing.Literal[TRIP_PURPOSES]


@dataclass
class ExpandResult:
    routes: list[RoutePlan]
    no_path: list[str]  # trip ids with no usable route


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------


def validate_inputs(statistics: Statistics, net: netmodel.RoadNetwork) -> None:
    stats, gates, config = statistics.districts, statistics.gates, statistics.config
    if not stats:
        raise DemandError("at least one district is required")
    for d in stats:
        if len(d.age_brackets) != len(AGE_BRACKETS):
            raise DemandError(
                f"district '{d.id}': expected {len(AGE_BRACKETS)} age brackets"
            )
        if sum(d.age_brackets) != d.inhabitants:
            raise DemandError(
                f"district '{d.id}': age brackets sum to {sum(d.age_brackets)}, "
                f"not {d.inhabitants}"
            )
        if not d.edge_ids:
            raise DemandError(f"district '{d.id}': needs at least one edge")
        for eid in d.edge_ids:
            if eid not in net.edges:
                raise DemandError(f"district '{d.id}': unknown edge '{eid}'")
    if config.incoming_total > 0 and not gates:
        raise DemandError("incoming_total > 0 but no city gates are defined")
    if config.outgoing_total > 0 and not gates:
        raise DemandError("outgoing_total > 0 but no city gates are defined")
    if gates:
        for attr in ("incoming_share", "outgoing_share"):
            _check_shares(f"gate {attr}s", (getattr(g, attr) for g in gates))
        for g in gates:
            for eid in (g.in_edge, g.out_edge):
                if eid not in net.edges:
                    raise DemandError(f"gate '{g.id}': unknown edge '{eid}'")
    for s in statistics.schools:
        if s.age_min > s.age_max:
            raise DemandError(f"school '{s.id}': age_min > age_max")
        _check_hours(f"school '{s.id}'", s.opening_h, s.closing_h)
        if s.edge_id not in net.edges:
            raise DemandError(f"school '{s.id}': unknown edge '{s.edge_id}'")
    netmodel.check_runnable(net, DemandError)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def cumulative_counts(values: list[float]) -> list[int]:
    """Integer counts whose running sums track the running sums of `values`;
    the total never drifts more than one from the exact sum."""
    out = []
    acc = 0.0
    assigned = 0
    for v in values:
        acc += v
        n = math.floor(acc + 0.5) - assigned
        if n < 0:
            n = 0
        out.append(n)
        assigned += n
    return out


def largest_remainder(total: int, shares: list[float]) -> list[int]:
    """Apportion `total` over shares, each result within one of exact."""
    exact = [total * s for s in shares]
    base = [math.floor(x) for x in exact]
    left = total - sum(base)
    order = sorted(range(len(shares)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:left]:
        base[i] += 1
    return base


def _weighted_pick(rng: random.Random, items: list, weights: list[float]):
    total = netmodel.left_sum(weights)
    x = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if x < acc:
            return item
    return items[-1]


# ---------------------------------------------------------------------------
# Trip generation
# ---------------------------------------------------------------------------


def generate_trips(statistics: Statistics, net: netmodel.RoadNetwork) -> list[Trip]:
    """Sample the day's car trips from the demand statistics, seeded by
    their config.

    Driving workers per district follow workers * car_rate *
    car_preference_rate with cumulative rounding; each picks a workplace
    district proportional to work_positions, departs early enough to reach
    it by the shift's opening hour (half-normal jitter on top of the
    free-flow estimate) and returns at the closing hour. Some outbound
    legs become drop-off chains via a school. Gate flows are apportioned
    by the gate shares of the car-equivalent external totals.
    """
    validate_inputs(statistics, net)
    stats, gates, schools = statistics.districts, statistics.gates, statistics.schools
    config = statistics.config
    rng = random.Random(f"{config.seed}/demandgen")
    routes = netmodel.CarRoutes(net)
    drive_p = config.car_rate * config.car_preference_rate
    trips: list[Trip] = []
    counter = 0

    def add(depart: float, from_edge: str, to_edge: str, purpose: str) -> None:
        nonlocal counter
        depart = min(max(depart, 0.0), LAST_DEPART_S)
        trips.append(Trip(f"t{counter:07d}", depart, from_edge, to_edge, purpose))
        counter += 1

    def commute_depart(home: str, dest: str, opening_h: float) -> float:
        est = routes.cost(home, dest) or 0.0
        return opening_h - est - abs(rng.gauss(0.0, config.departure_jitter_sd))

    work_pool = [d for d in stats if d.work_positions > 0]
    shift_shares = [w.worker_share for w in config.work_hours]
    work_weights = [float(d.work_positions) for d in work_pool]

    # children enrol into schools, adults into universities, both capacity
    # bounded and proportional to remaining places
    remaining = {s.id: s.capacity for s in schools}
    assigned_schools: dict[str, list[School]] = {d.id: [] for d in stats}
    assigned_unis: dict[str, list[School]] = {d.id: [] for d in stats}
    for d in stats:
        for bi, (lo, hi) in enumerate(AGE_BRACKETS):
            adult = lo >= ADULT_AGE
            fitting = [
                s for s in schools
                if s.age_min <= lo and hi <= s.age_max and s.is_university == adult
            ]
            if not fitting:
                continue
            target = assigned_unis[d.id] if adult else assigned_schools[d.id]
            for _ in range(d.age_brackets[bi]):
                open_seats = [s for s in fitting if remaining[s.id] > 0]
                if not open_seats:
                    break
                school = _weighted_pick(
                    rng, open_seats, [float(remaining[s.id]) for s in open_seats]
                )
                remaining[school.id] -= 1
                target.append(school)

    driving = cumulative_counts([d.workers * drive_p for d in stats])
    for d, n_drivers in zip(stats, driving):
        chains = assigned_schools[d.id]
        n_chain = min(
            n_drivers, math.floor(len(chains) * drive_p + 0.5)
        )
        per_shift = cumulative_counts([n_drivers * share for share in shift_shares])
        chained = 0
        for shift, n_shift in zip(config.work_hours, per_shift):
            for _ in range(n_shift):
                home = rng.choice(d.edge_ids)
                if not work_pool:
                    raise DemandError("no district offers work positions")
                wd = _weighted_pick(rng, work_pool, work_weights)
                work_edge = rng.choice(wd.edge_ids)
                if chained < n_chain:
                    school = chains[chained]
                    chained += 1
                    add(
                        commute_depart(home, school.edge_id, school.opening_h),
                        home, school.edge_id, "school_dropoff",
                    )
                    add(school.opening_h, school.edge_id, work_edge, "work")
                else:
                    add(commute_depart(home, work_edge, shift.opening_h),
                        home, work_edge, "work")
                add(shift.closing_h, work_edge, home, "work")

    for d in stats:
        unis = assigned_unis[d.id]
        n_students = math.floor(len(unis) * drive_p + 0.5)
        for i in range(n_students):
            uni = unis[i]
            home = rng.choice(d.edge_ids)
            add(commute_depart(home, uni.edge_id, uni.opening_h),
                home, uni.edge_id, "university")
            add(uni.closing_h, uni.edge_id, home, "university")

    # external traffic through the gates, car-equivalent by mode preference
    home_pool = [d for d in stats if d.inhabitants > 0]
    home_weights = [float(d.inhabitants) for d in home_pool]
    if gates:
        n_in = round(config.incoming_total * config.car_preference_rate)
        for g, n_gate in zip(gates, largest_remainder(n_in, [g.incoming_share for g in gates])):
            for _ in range(n_gate):
                if not work_pool:
                    raise DemandError("incoming traffic needs a district with work positions")
                wd = _weighted_pick(rng, work_pool, work_weights)
                work_edge = rng.choice(wd.edge_ids)
                shift = _weighted_pick(rng, config.work_hours, shift_shares)
                add(commute_depart(g.in_edge, work_edge, shift.opening_h),
                    g.in_edge, work_edge, "incoming")
        n_out = round(config.outgoing_total * config.car_preference_rate)
        for g, n_gate in zip(gates, largest_remainder(n_out, [g.outgoing_share for g in gates])):
            for _ in range(n_gate):
                if not home_pool:
                    raise DemandError("outgoing traffic needs an inhabited district")
                hd = _weighted_pick(rng, home_pool, home_weights)
                home = rng.choice(hd.edge_ids)
                shift = _weighted_pick(rng, config.work_hours, shift_shares)
                add(commute_depart(home, g.out_edge, shift.opening_h),
                    home, g.out_edge, "outgoing")

    # midday errands of non-working adults
    for d in stats:
        adults = sum(d.age_brackets[ADULT_BRACKET_START:])
        idle = max(0, adults - d.workers)
        n_free = math.floor(idle * config.free_time_rate + 0.5)
        for _ in range(n_free):
            home = rng.choice(d.edge_ids)
            dest = rng.choice(net.car_edges)
            out = rng.uniform(FREE_TIME_EARLIEST, FREE_TIME_LATEST)
            stay = rng.uniform(FREE_TIME_STAY_MIN, FREE_TIME_STAY_MAX)
            add(out, home, dest, "free_time")
            add(out + stay, dest, home, "free_time")

    return trips


# ---------------------------------------------------------------------------
# Route expansion
# ---------------------------------------------------------------------------


def expand_routes(trips: list[Trip], net: netmodel.RoadNetwork) -> ExpandResult:
    """Free-flow shortest route for every trip; unroutable trips end up in
    the no_path list instead of being dropped silently. A network the
    engine cannot run is refused as `microsim.Simulation` refuses it."""
    netmodel.check_runnable(net)
    routes: list[RoutePlan] = []
    no_path: list[str] = []
    car_routes = netmodel.CarRoutes(net)
    for trip in trips:
        edges = car_routes.route(trip.from_edge, trip.to_edge)
        if edges is None:
            no_path.append(trip.id)
        else:
            routes.append(RoutePlan(trip.id, tuple(edges), trip.depart))
    return ExpandResult(routes, no_path)


# ---------------------------------------------------------------------------
# Trip and statistics files
# ---------------------------------------------------------------------------

def write_trips(trips: list[Trip], path) -> None:
    netmodel.write_records(sorted(trips, key=lambda t: (t.depart, t.id)), path, "trips")


def read_trips(path) -> list[Trip]:
    trips = netmodel.read_records(path, "trips", Trip, DemandError)
    seen = set()
    for i, trip in enumerate(trips):
        where = f"trips[{i}]"
        if not 0.0 <= trip.depart < DAY_S:
            raise DemandError(f"{where}: depart {trip.depart} outside [0, {DAY_S:g})")
        if trip.id in seen:
            raise DemandError(f"{where}: duplicate trip id '{trip.id}'")
        seen.add(trip.id)
    return trips


def load_statistics(path) -> Statistics:
    """The `Statistics` record of a statistics file."""
    return netmodel.read_record(path, Statistics, DemandError)


def save_statistics(statistics: Statistics, path) -> None:
    """Write the file `load_statistics` reads."""
    netmodel.write_json(netmodel.record_to(statistics), path)
