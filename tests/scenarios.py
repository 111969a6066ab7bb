"""Scenarios and checks only the tests use: a symmetric two-route network
for assignment experiments, its trips, and the invariants of a route set."""

import math

from trafcal.demandgen import Trip
from trafcal.equilibrium import RouteSet
from trafcal.fixtures import GRID_SPEED
from trafcal.netmodel import Edge, Junction, RoadNetwork


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
