"""File formats consumed and produced by the simulator, and the one check
of a scenario against its network.

Route plans, detector definitions and bus lines are JSON files holding one
array of `RoutePlan`, `Detector` or `BusLine` records, read and written by
the `netmodel` record codec; the loaders only parse, and take no network.
`check_scenario` is where those records are checked: `Simulation` calls it
before it builds anything and refuses the first trip, detector or bus line
the engine cannot run, by name. Detector windows and the running-vehicle
series are CSV tables written by `netmodel.write_csv`. All writers emit
rows in a fixed order so equal runs produce byte-identical files.

A scored run covers one day, `DAY_S`, counted in `WINDOWS_PER_DAY`
detector windows of `WINDOW_S`: the quarter-hours the measurements hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from trafcal.netmodel import RoadNetwork, read_records, write_csv, write_records

VEHICLE_MODES = ("car", "bus")
DEFAULT_BUS_DWELL = 10.0
WINDOW_S = 900  # a measured window, one quarter-hour, in seconds
WINDOWS_PER_DAY = 96
DAY_S = float(WINDOWS_PER_DAY * WINDOW_S)


# one per trip, so without an instance dict
@dataclass(frozen=True, slots=True)
class RoutePlan:
    """One vehicle's departure time and full edge sequence."""

    trip_id: str
    edges: tuple[str, ...]
    depart: float
    mode: str = "car"


@dataclass(frozen=True)
class Detector:
    """Induction loop on one lane at a fixed position along an edge."""

    id: str
    edge_id: str
    lane: int
    position: float
    window: float = float(WINDOW_S)


@dataclass(frozen=True)
class BusLine:
    """A fixed bus service: route, served stops in order, departure times."""

    id: str
    stop_sequence: tuple[str, ...]
    route: tuple[str, ...]
    departures: tuple[float, ...]
    dwell: float = DEFAULT_BUS_DWELL


def bus_line_plans(line: BusLine) -> list[RoutePlan]:
    """One bus trip per departure, named `<line id>#<index>`."""
    return [
        RoutePlan(f"{line.id}#{i}", tuple(line.route), float(dep), mode="bus")
        for i, dep in enumerate(line.departures)
    ]


def served_stops(line: BusLine, net: RoadNetwork) -> list[tuple[int, float]]:
    """Where the line's buses stop, as (route index, position), for each
    stop of its sequence in turn, up to the first one found nowhere along
    the route after the previous one."""
    stops: list[tuple[int, float]] = []
    route = line.route
    cursor = 0
    for sid in line.stop_sequence:
        stop = net.bus_stops[sid]
        if stops and route[cursor] == stop.edge_id and stop.position < stops[-1][1]:
            cursor += 1  # behind the previous stop: a later pass over its edge
        while cursor < len(route) and route[cursor] != stop.edge_id:
            cursor += 1
        if cursor >= len(route):
            break
        stops.append((cursor, stop.position))
    return stops


def check_scenario(
    net: RoadNetwork,
    plans: list[RoutePlan],
    detectors: list[Detector] = (),
    bus_lines: list[BusLine] = (),
    begin: float = 0.0,
) -> None:
    """Raise `ValueError` for the first trip, detector or bus line the
    engine cannot run on `net` in a run that starts at `begin`, naming it
    (`trip 'a': ...`, `detector 'd': ...`, `bus line 'L': ...`).

    A trip needs an id no other trip has, a finite departure not before
    `begin`, a known mode, and a route: at least one edge, each known and
    connected to the one before it. A detector needs an id of its own, a
    finite window above 0, and a known edge, lane and position on it. A
    bus line needs an id of its own, a finite dwell of at least 0, such a
    route, known stops served in order along it, and its trips
    (`bus_line_plans`) what any trip needs."""
    successors = net.successors
    # a dict, not a set: for 5,000 ids it takes a fifth of the memory
    trip_ids: dict[str, None] = {}
    for plan in plans:
        why = _trip_refusal(plan, trip_ids, begin) or _route_refusal(plan.edges, successors)
        if why:
            raise ValueError(f"trip '{plan.trip_id}': {why}")
    detector_ids: set[str] = set()
    for det in detectors:
        why = _detector_refusal(det, net, detector_ids)
        if why:
            raise ValueError(f"detector '{det.id}': {why}")
    line_ids: set[str] = set()
    for line in bus_lines:
        why = _line_refusal(line, net, line_ids, trip_ids, begin)
        if why:
            raise ValueError(f"bus line '{line.id}': {why}")


def _detector_refusal(det: Detector, net: RoadNetwork, detector_ids: set[str]) -> str:
    """Why a detector cannot count, or ""; a new id is kept."""
    if det.id in detector_ids:
        return "duplicate detector id"
    detector_ids.add(det.id)
    if not 0 < det.window < math.inf:
        return f"window must be finite and > 0, got {det.window}"
    edge = net.edges.get(det.edge_id)
    if edge is None:
        return f"unknown edge '{det.edge_id}'"
    if not 0 <= det.lane < edge.lane_count:
        return f"lane {det.lane} outside edge '{edge.id}'"
    if not 0 <= det.position <= edge.length:
        return f"position {det.position} outside edge '{edge.id}'"
    return ""


def _line_refusal(
    line: BusLine, net: RoadNetwork, line_ids: set[str], trip_ids: dict[str, None], begin: float
) -> str:
    """Why a bus line cannot run, or ""; new line and trip ids are kept."""
    if line.id in line_ids:
        return "duplicate bus line id"
    line_ids.add(line.id)
    if not 0 <= line.dwell < math.inf:
        return f"dwell must be finite and >= 0, got {line.dwell}"
    why = _route_refusal(line.route, net.successors)
    if why:
        return why
    for sid in line.stop_sequence:
        if sid not in net.bus_stops:
            return f"unknown bus stop '{sid}'"
    served = len(served_stops(line, net))
    if served < len(line.stop_sequence):
        return f"stop '{line.stop_sequence[served]}' is not on the route in order"
    for plan in bus_line_plans(line):
        why = _trip_refusal(plan, trip_ids, begin)
        if why:
            return f"trip '{plan.trip_id}': {why}"
    return ""


def _trip_refusal(plan: RoutePlan, trip_ids: dict[str, None], begin: float) -> str:
    """Why a trip's id, departure or mode cannot run, or ""; a new id is kept."""
    if plan.trip_id in trip_ids:
        return "duplicate trip id"
    trip_ids[plan.trip_id] = None
    if not math.isfinite(plan.depart):
        return f"depart must be finite, got {plan.depart}"
    if plan.depart < begin:
        return f"departs at {plan.depart}, before the run begins at {begin}"
    if plan.mode not in VEHICLE_MODES:
        return f"unknown mode '{plan.mode}'"
    return ""


def _route_refusal(edges, successors: dict[str, tuple[str, ...]]) -> str:
    """Why a vehicle cannot drive `edges`, or ""."""
    if not edges:
        return "empty route"
    prev = edges[0]
    if prev not in successors:
        return f"unknown edge '{prev}'"
    for eid in edges[1:]:
        if eid not in successors[prev]:
            if eid not in successors:
                return f"unknown edge '{eid}'"
            return f"edges '{prev}' and '{eid}' are not connected"
        prev = eid
    return ""


def load_route_plans(path) -> list[RoutePlan]:
    return read_records(path, "routes", RoutePlan)


def save_route_plans(plans: list[RoutePlan], path) -> None:
    write_records(sorted(plans, key=lambda p: (p.depart, p.trip_id)), path, "routes")


def load_detectors(path) -> list[Detector]:
    return read_records(path, "detectors", Detector)


def save_detectors(dets: list[Detector], path) -> None:
    write_records(dets, path, "detectors")


def load_bus_lines(path) -> list[BusLine]:
    return read_records(path, "bus_lines", BusLine)


def save_bus_lines(lines: list[BusLine], path) -> None:
    write_records(lines, path, "bus_lines")


def write_detector_csv(
    counts: dict[str, list[float]], windows: dict[str, float], begin: float, path
) -> None:
    """Counts per detector and window, one row each, fully zero-filled; a
    count is written as an int when it is integral (a mean may not be)."""
    write_csv(path, ("detector_id", "window_start_s", "count"), (
        (det_id, int(begin + i * windows[det_id]), int(n) if float(n).is_integer() else n)
        for det_id in sorted(counts)
        for i, n in enumerate(counts[det_id])
    ))


def write_running_csv(running: list[int], path) -> None:
    """Vehicles in the network sampled once per minute."""
    write_csv(path, ("minute", "count"), enumerate(running))
