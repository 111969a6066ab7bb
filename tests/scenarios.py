"""Scenarios and checks only the tests use: a symmetric two-route network
for assignment experiments, its trips, the invariants of a route set, and
chains with an edge or bus stop fault the engine refuses."""

import dataclasses
import math

from trafcal.demandgen import Trip
from trafcal.equilibrium import RouteSet
from trafcal.fixtures import GRID_SPEED
from trafcal.netmodel import BusStop, Edge, Junction, RoadNetwork


def two_route_network() -> RoadNetwork:
    """One origin, one destination, two identical single-lane paths
    between them. The entry and exit edges are two-lane so the only
    bottleneck is the route choice itself."""
    junctions = [
        Junction("s", 0.0, 0.0, kind="dead_end"),
        Junction("a", 300.0, 0.0),
        Junction("m", 800.0, 0.0),
        Junction("t", 1100.0, 0.0),
    ]
    edges = [
        Edge("e_in", "s", "a", 300.0, lane_count=2, speed_limit=GRID_SPEED),
        Edge("e_dn", "a", "m", 500.0, lane_count=1, speed_limit=GRID_SPEED),
        Edge("e_up", "a", "m", 500.0, lane_count=1, speed_limit=GRID_SPEED),
        Edge("e_out", "m", "t", 300.0, lane_count=2, speed_limit=GRID_SPEED),
    ]
    return RoadNetwork(junctions, edges)


def two_route_trips(n: int = 200, interval: float = 1.0, begin: float = 0.0) -> list[Trip]:
    return [Trip(f"v{i:04d}", begin + i * interval, "e_in", "e_out", "work") for i in range(n)]


def check_route_set(rs: RouteSet) -> None:
    """The probabilities of `rs` form a simplex, no cost is negative and
    the chosen index names an alternative."""
    total = math.fsum(a.probability for a in rs.alternatives)
    assert abs(total - 1.0) <= 1e-9, f"probabilities sum to {total}"
    assert all(a.probability >= 0 for a in rs.alternatives)
    assert all(a.cost >= 0 for a in rs.alternatives)
    assert 0 <= rs.chosen_index < len(rs.alternatives)


# each fault on e1 of a chain and the message the engine refuses it with
_CHAIN_FAULTS = {
    "no-lane": ({"lane_count": 0}, "edge 'e1': lane_count 0 must be >= 1"),
    "negative-lanes": ({"lane_count": -1}, "edge 'e1': lane_count -1 must be >= 1"),
    "zero-speed": ({"speed_limit": 0.0}, "edge 'e1': speed_limit 0.0 must be > 0"),
    "negative-length": ({"length": -20.0}, "edge 'e1': edge length -20.0 must be > 0"),
    "nan-length": ({"length": math.nan}, "edge 'e1': edge length nan must be > 0"),
    "stop-off-edge": ({}, "bus stop 's': position 500.0 outside edge 'e1'"),
}
CHAIN_FAULTS = tuple(_CHAIN_FAULTS)


def chain_with_fault(fault: str) -> tuple[RoadNetwork, str]:
    """A chain of three 100 m edges e0, e1, e2 with `fault` on e1, one of
    `CHAIN_FAULTS`, and the message the engine refuses it with."""
    change, message = _CHAIN_FAULTS[fault]
    junctions = [
        Junction(f"a{i}", 100.0 * i, 0.0, kind="dead_end" if i in (0, 3) else "plain")
        for i in range(4)
    ]
    edges = [Edge(f"e{i}", f"a{i}", f"a{i + 1}", 100.0) for i in range(3)]
    edges[1] = dataclasses.replace(edges[1], **change)
    stops = [BusStop("s", "e1", 500.0)] if fault == "stop-off-edge" else []
    return RoadNetwork(junctions, edges, bus_stops=stops), message
