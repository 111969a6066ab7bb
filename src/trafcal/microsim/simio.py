"""File formats consumed and produced by the simulator.

Route plans, detector definitions and bus lines are JSON files holding one
array of `RoutePlan`, `Detector` or `BusLine` records, read and written by
the `netmodel` record codec; detector windows and the running-vehicle
series are CSV tables written by `netmodel.write_csv`. All writers emit
rows in a fixed order so equal runs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from trafcal.netmodel import NetworkFormatError, RoadNetwork, read_records, write_csv, write_records

VEHICLE_MODES = ("car", "bus")
DEFAULT_BUS_DWELL = 10.0


@dataclass(frozen=True)
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
    window: float = 900.0


@dataclass(frozen=True)
class BusLine:
    """A fixed bus service: route, served stops in order, departure times."""

    id: str
    stop_sequence: tuple[str, ...]
    route: tuple[str, ...]
    departures: tuple[float, ...]
    dwell: float = DEFAULT_BUS_DWELL


def load_route_plans(path, net: Optional[RoadNetwork] = None) -> list[RoutePlan]:
    """Read a route file; with a network given, also verify every edge
    exists and consecutive edges are connected."""
    plans = read_records(path, "routes", RoutePlan)
    for i, plan in enumerate(plans):
        where = f"routes[{i}]"
        if not plan.edges:
            raise NetworkFormatError(f"{where}: 'edges' must be a non-empty string array")
        if plan.mode not in VEHICLE_MODES:
            raise NetworkFormatError(f"{where}: unknown mode '{plan.mode}'")
        if net is not None:
            _check_route_edges(plan, net, where)
    return plans


def _check_route_edges(plan: RoutePlan, net: RoadNetwork, where: str) -> None:
    for eid in plan.edges:
        if eid not in net.edges:
            raise NetworkFormatError(f"{where}: unknown edge '{eid}'")
    for a, b in zip(plan.edges, plan.edges[1:]):
        if b not in net.successors[a]:
            raise NetworkFormatError(f"{where}: edges '{a}' and '{b}' are not connected")


def save_route_plans(plans: list[RoutePlan], path) -> None:
    write_records(sorted(plans, key=lambda p: (p.depart, p.trip_id)), path, "routes")


def load_detectors(path, net: Optional[RoadNetwork] = None) -> list[Detector]:
    dets = read_records(path, "detectors", Detector)
    seen = set()
    for i, det in enumerate(dets):
        where = f"detectors[{i}]"
        if not det.window > 0:
            raise NetworkFormatError(f"{where}: window must be > 0")
        if det.id in seen:
            raise NetworkFormatError(f"{where}: duplicate detector id '{det.id}'")
        seen.add(det.id)
        if net is not None:
            if det.edge_id not in net.edges:
                raise NetworkFormatError(f"{where}: unknown edge '{det.edge_id}'")
            edge = net.edges[det.edge_id]
            if not 0 <= det.lane < edge.lane_count:
                raise NetworkFormatError(f"{where}: lane {det.lane} outside edge '{edge.id}'")
            if not 0 <= det.position <= edge.length:
                raise NetworkFormatError(f"{where}: position outside edge '{edge.id}'")
    return dets


def save_detectors(dets: list[Detector], path) -> None:
    write_records(dets, path, "detectors")


def load_bus_lines(path, net: Optional[RoadNetwork] = None) -> list[BusLine]:
    lines = read_records(path, "bus_lines", BusLine)
    if net is not None:
        for i, line in enumerate(lines):
            for eid in line.route:
                if eid not in net.edges:
                    raise NetworkFormatError(f"bus_lines[{i}]: unknown edge '{eid}'")
            for sid in line.stop_sequence:
                if sid not in net.bus_stops:
                    raise NetworkFormatError(f"bus_lines[{i}]: unknown bus stop '{sid}'")
    return lines


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
