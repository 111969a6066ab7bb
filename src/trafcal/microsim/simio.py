"""File formats consumed and produced by the simulator.

Route plans and detector definitions are JSON; detector windows and the
running-vehicle series are CSV. All writers emit rows in a fixed sort
order so equal runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Optional

from trafcal.netmodel import NetworkFormatError, RoadNetwork, check_record, read_json

VEHICLE_MODES = ("car", "bus")


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
    dwell: float = 10.0


_PLAN_FIELDS = {
    "trip_id": str,
    "edges": list,
    "depart": (int, float),
    "mode": str,
}
_DET_FIELDS = {
    "id": str,
    "edge_id": str,
    "lane": int,
    "position": (int, float),
    "window": (int, float),
}
_LINE_FIELDS = {
    "id": str,
    "stop_sequence": list,
    "route": list,
    "departures": list,
    "dwell": (int, float),
}


def load_route_plans(path, net: Optional[RoadNetwork] = None) -> list[RoutePlan]:
    """Read a route file; with a network given, also verify every edge
    exists and consecutive edges are connected."""
    doc = read_json(path)
    if not isinstance(doc, dict) or set(doc) - {"routes"}:
        raise NetworkFormatError("top level: expected an object with 'routes'")
    plans = []
    for i, rec in enumerate(doc.get("routes", [])):
        where = f"routes[{i}]"
        rec = check_record(rec, _PLAN_FIELDS, where, {"mode"})
        edges = rec["edges"]
        if not edges or not all(isinstance(e, str) for e in edges):
            raise NetworkFormatError(f"{where}: 'edges' must be a non-empty string array")
        mode = rec.get("mode", "car")
        if mode not in VEHICLE_MODES:
            raise NetworkFormatError(f"{where}: unknown mode '{mode}'")
        plan = RoutePlan(
            trip_id=rec["trip_id"],
            edges=tuple(edges),
            depart=float(rec["depart"]),
            mode=mode,
        )
        if net is not None:
            _check_route_edges(plan, net, where)
        plans.append(plan)
    return plans


def _check_route_edges(plan: RoutePlan, net: RoadNetwork, where: str) -> None:
    for eid in plan.edges:
        if eid not in net.edges:
            raise NetworkFormatError(f"{where}: unknown edge '{eid}'")
    for a, b in zip(plan.edges, plan.edges[1:]):
        if b not in net.successors[a]:
            raise NetworkFormatError(f"{where}: edges '{a}' and '{b}' are not connected")


def save_route_plans(plans: list[RoutePlan], path) -> None:
    rows = [
        {"trip_id": p.trip_id, "edges": list(p.edges), "depart": p.depart, "mode": p.mode}
        for p in sorted(plans, key=lambda p: (p.depart, p.trip_id))
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"routes": rows}, fh, indent=1)
        fh.write("\n")


def load_detectors(path, net: Optional[RoadNetwork] = None) -> list[Detector]:
    doc = read_json(path)
    if not isinstance(doc, dict) or set(doc) - {"detectors"}:
        raise NetworkFormatError("top level: expected an object with 'detectors'")
    dets = []
    seen = set()
    for i, rec in enumerate(doc.get("detectors", [])):
        where = f"detectors[{i}]"
        rec = check_record(rec, _DET_FIELDS, where, {"window"})
        det = Detector(
            id=rec["id"],
            edge_id=rec["edge_id"],
            lane=rec["lane"],
            position=float(rec["position"]),
            window=float(rec.get("window", 900.0)),
        )
        if det.window <= 0:
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
        dets.append(det)
    return dets


def save_detectors(dets: list[Detector], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "detectors": [
                    {
                        "id": d.id,
                        "edge_id": d.edge_id,
                        "lane": d.lane,
                        "position": d.position,
                        "window": d.window,
                    }
                    for d in dets
                ]
            },
            fh,
            indent=1,
        )
        fh.write("\n")


def load_bus_lines(path, net: Optional[RoadNetwork] = None) -> list[BusLine]:
    doc = read_json(path)
    if not isinstance(doc, dict) or set(doc) - {"bus_lines"}:
        raise NetworkFormatError("top level: expected an object with 'bus_lines'")
    lines = []
    for i, rec in enumerate(doc.get("bus_lines", [])):
        where = f"bus_lines[{i}]"
        rec = check_record(rec, _LINE_FIELDS, where, {"dwell"})
        for key in ("stop_sequence", "route"):
            if not all(isinstance(x, str) for x in rec[key]):
                raise NetworkFormatError(f"{where}: '{key}' must be a string array")
        if not all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            for x in rec["departures"]
        ):
            raise NetworkFormatError(f"{where}: 'departures' must be numbers")
        line = BusLine(
            id=rec["id"],
            stop_sequence=tuple(rec["stop_sequence"]),
            route=tuple(rec["route"]),
            departures=tuple(float(x) for x in rec["departures"]),
            dwell=float(rec.get("dwell", 10.0)),
        )
        if net is not None:
            for eid in line.route:
                if eid not in net.edges:
                    raise NetworkFormatError(f"{where}: unknown edge '{eid}'")
            for sid in line.stop_sequence:
                if sid not in net.bus_stops:
                    raise NetworkFormatError(f"{where}: unknown bus stop '{sid}'")
        lines.append(line)
    return lines


def save_bus_lines(lines: list[BusLine], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "bus_lines": [
                    {
                        "id": l.id,
                        "stop_sequence": list(l.stop_sequence),
                        "route": list(l.route),
                        "departures": list(l.departures),
                        "dwell": l.dwell,
                    }
                    for l in lines
                ]
            },
            fh,
            indent=1,
        )
        fh.write("\n")


def write_detector_csv(
    counts: dict[str, list[int]], windows: dict[str, float], begin: float, path
) -> None:
    """Aggregated counts, one row per detector and window, fully zero-filled."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["detector_id", "window_start_s", "count"])
        for det_id in sorted(counts):
            step = windows[det_id]
            for i, n in enumerate(counts[det_id]):
                w.writerow([det_id, int(begin + i * step), n])


def read_detector_csv(path) -> dict[str, dict[int, int]]:
    out: dict[str, dict[int, int]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header != ["detector_id", "window_start_s", "count"]:
            raise NetworkFormatError(f"{path}: bad header {header}")
        for i, row in enumerate(r, start=2):
            if len(row) != 3:
                raise NetworkFormatError(f"{path}: line {i}: expected 3 columns")
            det, start, count = row[0], int(row[1]), int(row[2])
            if count < 0:
                raise NetworkFormatError(f"{path}: line {i}: negative count")
            if start in out.setdefault(det, {}):
                raise NetworkFormatError(f"{path}: line {i}: duplicate window {start} for '{det}'")
            out[det][start] = count
    return out


def write_running_csv(running: list[int], path) -> None:
    """Vehicles in the network sampled once per minute."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["minute", "count"])
        for minute, n in enumerate(running):
            w.writerow([minute, n])
