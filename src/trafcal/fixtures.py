"""Bundled synthetic scenarios.

Two families: a 5x5 signalised street grid, and a "twin" scenario on the
grid where the measured detector data is produced by a hidden ground-truth
simulation, so the best-fitting rerouting probability is known exactly.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass

from trafcal.calibrate import GridSpec
from trafcal.demandgen import (
    LAST_DEPART_S,
    CityGate,
    DemandConfig,
    DistrictStats,
    School,
    Statistics,
    Trip,
    WorkHours,
)
from trafcal.equilibrium import DuaConfig
from trafcal.microsim import BusLine, Detector
from trafcal.netmodel import (
    BusStop,
    Edge,
    Junction,
    RoadNetwork,
    TlsPhase,
    TlsProgram,
)

GRID_N = 5
GRID_SPACING = 200.0
GRID_SPEED = 13.89  # 50 km/h

GREEN_S = 42.0
YELLOW_S = 3.0
GREEN_MIN_S = 5.0
GREEN_MAX_S = 60.0

TWIN_TRUE_P = 0.6
TWIN_DATES = (
    datetime.date(2023, 10, 3),  # Tue
    datetime.date(2023, 10, 4),  # Wed
    datetime.date(2023, 10, 5),  # Thu
)
# the twin's assignment and sweep settings; a project config section
# overlays them key by key
TWIN_DUA = DuaConfig(max_iter=6, tol=0.05, window=3)
TWIN_GRID = GridSpec(0.0, 1.0, 0.05)


# ---------------------------------------------------------------------------
# Street grid
# ---------------------------------------------------------------------------


def _jid(r: int, c: int, sep: str) -> str:
    return f"n{r}{sep}{c}"


def grid_network(
    n: int = GRID_N,
    spacing: float = GRID_SPACING,
    lane_count: int = 1,
    logic: str = "static",
    bus_stops: tuple[BusStop, ...] = (),
) -> RoadNetwork:
    """n x n junction grid, one bidirectional street between neighbours.

    Interior junctions carry a four-phase signal program (north-south
    green, amber, east-west green, amber). For n=5 that is 25 junctions,
    80 directed edges and 9 signalised junctions.
    """
    if n < 2:
        raise ValueError("grid needs at least 2x2 junctions")
    # joined without a separator, "n1" "10" and "n11" "0" collide from n = 12
    sep = "" if n <= 11 else "_"
    junctions = []
    for r in range(n):
        for c in range(n):
            interior = 0 < r < n - 1 and 0 < c < n - 1
            junctions.append(
                Junction(
                    id=_jid(r, c, sep),
                    x=c * spacing,
                    y=r * spacing,
                    kind="traffic_light" if interior else "plain",
                )
            )
    edges = []
    for r in range(n):
        for c in range(n):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 >= n or c2 >= n:
                    continue
                for (fr, fc), (to_r, to_c) in (((r, c), (r2, c2)), ((r2, c2), (r, c))):
                    frm, to = _jid(fr, fc, sep), _jid(to_r, to_c, sep)
                    edges.append(
                        Edge(
                            id=f"e{frm[1:]}_{to[1:]}",
                            from_junction=frm,
                            to_junction=to,
                            length=spacing,
                            lane_count=lane_count,
                            speed_limit=GRID_SPEED,
                        )
                    )

    bare = RoadNetwork(junctions, edges)
    programs = []
    for j in junctions:
        if j.kind != "traffic_light":
            continue
        conns = bare.connections(j.id)

        # the north-south approaches are the in-edges whose origin shares
        # the junction's x coordinate
        def from_same_column(conn: tuple[str, str]) -> bool:
            origin = bare.junctions[bare.edges[conn[0]].from_junction]
            return origin.x == j.x

        ns_green = "".join("G" if from_same_column(c) else "r" for c in conns)
        ns_amber = "".join("y" if from_same_column(c) else "r" for c in conns)
        ew_green = "".join("r" if from_same_column(c) else "G" for c in conns)
        ew_amber = "".join("r" if from_same_column(c) else "y" for c in conns)
        programs.append(
            TlsProgram(
                junction_id=j.id,
                logic=logic,
                phases=(
                    TlsPhase(GREEN_S, GREEN_MIN_S, GREEN_MAX_S, ns_green),
                    TlsPhase(YELLOW_S, YELLOW_S, YELLOW_S, ns_amber),
                    TlsPhase(GREEN_S, GREEN_MIN_S, GREEN_MAX_S, ew_green),
                    TlsPhase(YELLOW_S, YELLOW_S, YELLOW_S, ew_amber),
                ),
            )
        )
    return RoadNetwork(junctions, edges, programs, bus_stops=bus_stops)


def rush_trips(net: RoadNetwork, n: int = 5000, seed: int = 0) -> list[Trip]:
    """Random origin-destination trips clustered around two rush hours."""
    rng = random.Random(f"{seed}/fixture-rush")
    trips = []
    for i in range(n):
        frm = rng.choice(net.car_edges)
        to = rng.choice(net.car_edges)
        if rng.random() < 0.6:
            depart = rng.gauss(8 * 3600.0, 1800.0)
        else:
            depart = rng.gauss(17 * 3600.0, 1800.0)
        depart = min(max(depart, 0.0), LAST_DEPART_S)
        trips.append(Trip(f"r{i:05d}", depart, frm, to, "free_time"))
    return trips


# ---------------------------------------------------------------------------
# Twin experiment scenario
# ---------------------------------------------------------------------------


@dataclass
class TwinScenario:
    net: RoadNetwork
    statistics: Statistics
    detectors: list[Detector]
    bus_lines: list[BusLine]
    true_p: float = TWIN_TRUE_P


_TWIN_BRACKETS = (100, 80, 80, 40, 200, 200, 300, 300, 240, 100, 100, 40, 20)


def _edge_mid(net: RoadNetwork, eid: str) -> tuple[float, float]:
    e = net.edges[eid]
    a = net.junctions[e.from_junction]
    b = net.junctions[e.to_junction]
    return (a.x + b.x) / 2.0, (a.y + b.y) / 2.0


def twin_scenario(seed: int = 7) -> TwinScenario:
    """Congested grid day: four residential quadrants commute onto a
    central work corridor through signalised junctions, with external
    gate traffic, one school, one university and an hourly bus line."""
    stops = (
        BusStop("bs_w", "e00_01", 100.0, "west end"),
        BusStop("bs_m", "e02_03", 100.0, "middle"),
        BusStop("bs_e", "e03_04", 100.0, "east end"),
    )
    net = grid_network(bus_stops=stops)
    centre = 2 * GRID_SPACING

    quadrants = {"nw": [], "ne": [], "sw": [], "se": []}
    corridor = []
    for eid in sorted(net.edges):
        mx, my = _edge_mid(net, eid)
        if mx == centre or my == centre:
            corridor.append(eid)
        elif mx < centre and my < centre:
            quadrants["nw"].append(eid)
        elif mx > centre and my < centre:
            quadrants["ne"].append(eid)
        elif mx < centre and my > centre:
            quadrants["sw"].append(eid)
        else:
            quadrants["se"].append(eid)

    districts = [
        DistrictStats(
            id=f"d_{name}",
            edge_ids=tuple(edge_ids),
            inhabitants=1800,
            workers=900,
            work_positions=200,
            age_brackets=_TWIN_BRACKETS,
        )
        for name, edge_ids in sorted(quadrants.items())
    ]
    districts.append(
        DistrictStats(
            id="d_centre",
            edge_ids=tuple(corridor),
            inhabitants=0,
            workers=0,
            work_positions=4000,
            age_brackets=(0,) * len(_TWIN_BRACKETS),
        )
    )

    gates = [
        CityGate("gate_nw", in_edge="e00_01", out_edge="e01_00",
                 incoming_share=0.5, outgoing_share=0.5),
        CityGate("gate_se", in_edge="e44_43", out_edge="e43_44",
                 incoming_share=0.5, outgoing_share=0.5),
    ]
    schools = [
        School("school_inner", "e11_12", age_min=6, age_max=17, capacity=150,
               opening_h=8 * 3600.0, closing_h=16 * 3600.0),
        School("uni_south", "e33_32", age_min=18, age_max=120, capacity=80,
               opening_h=9 * 3600.0, closing_h=18 * 3600.0),
    ]
    config = DemandConfig(
        car_rate=0.8,
        car_preference_rate=0.6,
        incoming_total=800,
        outgoing_total=600,
        work_hours=(
            WorkHours(8 * 3600.0, 17 * 3600.0, 0.6),
            WorkHours(6 * 3600.0, 14 * 3600.0, 0.25),
            WorkHours(14 * 3600.0, 22 * 3600.0, 0.15),
        ),
        departure_jitter_sd=900.0,
        free_time_rate=0.1,
        seed=seed,
    )

    detector_edges = [
        # the four approaches of the central junction
        "e12_22", "e21_22", "e23_22", "e32_22",
        # parallel streets one block out, where rerouted traffic shows up
        "e10_11", "e13_14", "e30_31", "e33_34",
    ]
    detectors = [
        Detector(f"det_{eid}", eid, lane=0, position=100.0) for eid in detector_edges
    ]

    bus_lines = [
        BusLine(
            id="bus_east",
            stop_sequence=("bs_w", "bs_m", "bs_e"),
            route=("e00_01", "e01_02", "e02_03", "e03_04"),
            departures=tuple(float(h * 3600) for h in range(6, 21)),
            dwell=10.0,
        )
    ]
    statistics = Statistics(
        districts=tuple(districts), gates=tuple(gates), schools=tuple(schools), config=config
    )
    return TwinScenario(net, statistics, detectors, bus_lines)
