"""Time-stepped vehicle simulation over a road network.

Vehicles follow fixed edge sequences, queue per lane, obey traffic lights,
and optionally reroute mid-trip when equipped with a navigation device.
Induction-loop detectors count front-bumper crossings into fixed windows.

Every step runs the same sub-phases in order: signal update, synchronous
speed update, movement (including edge transitions), junction-blocker
override, teleport of hopelessly stuck vehicles, insertion of due
departures, periodic rerouting, and output sampling. However a vehicle
reaches an edge (driving over the line, a junction-blocker override, a
teleport or its insertion) it enters through one helper. Driving off an
edge goes through one helper too, where detectors, distance and edge times
count the rest of the edge. A teleport takes the vehicle off its lane
without it: nothing counts the rest of the edge it leaves or the edges it
skips, and only their free-flow times join the baseline. Bus stops are
resolved once per trip, before the run. A network with a signal program,
edge or bus stop the engine cannot run (`netmodel.engine_violations`) is
refused before anything is built, and so is the first trip, detector or
bus line it cannot run (`simio.check_scenario`), so the run itself meets
only known, connected edges and unique ids. All randomness comes from
named substreams of the run seed, and every container is walked in a
sorted order, so equal seeds give byte-equal outputs.

Loop layout. Each edge is one `_Edge` record, built once from the network:
its length, limit and free-flow time, its lanes and their detectors, and
its traversal and rerouting statistics, so no step reads the network's
edges. The active edges are kept as sorted ids, and one copy of that order
serves both per-vehicle passes of a step, since the speed pass moves no
vehicle. Both passes are flat loops over locals: an edge is read through
its record, a vehicle's type through its precomputed Krauss constants.
Each junction movement is one shared `_Connection` record, the out edge's
record and its signal, and a vehicle points at the one ending its edge
whenever its route or edge changes, so what a front meets at its stop line
is worked out there alone. The speed pass inlines `carfollow.next_speed`,
`_green` (one signal read per junction and step) and `_best_entry_lane`
with their operations in order; tests hold it to them. Keeping a next
edge's room for the rest of the pass was measured and dropped: fewer than
one front in ten shares a next edge with an earlier one, and the lookups
cost more than they saved. The move pass lists the vehicles that have
stood still long enough for an override or a teleport, so those phases
look at nothing else. Crossing, overrides, teleports and insertion are
cold paths: crossing and overrides use `_green`, `_best_entry_lane`,
`_exit_edge` and `_enter_edge`; teleports and insertion use only
`_best_entry_lane` and `_enter_edge`.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Optional

from trafcal import netmodel
from trafcal.microsim import tls
from trafcal.microsim.carfollow import BUS, CAR, VehicleType
from trafcal.microsim.simio import (
    DAY_S,
    DEFAULT_BUS_DWELL,
    BusLine,
    Detector,
    RoutePlan,
    bus_line_plans,
    check_scenario,
    served_stops,
)

STOP_SPEED = 0.1  # below this a vehicle counts as standing
AT_LINE = 0.5  # metres from the stop line that still count as "at" it
OVERRIDE_MIN_SPACE = 0.1  # rear space a junction-blocker override still needs


@dataclass
class SimConfig:
    """Run parameters; defaults favour whole-day desk runs (drop
    step_length to 0.1 for fidelity).

    `begin`, `end` and `step_length` are finite: an infinite end overflows
    the per-minute counts, an infinite step ends the day at once. An
    infinite `time_to_teleport`, `rerouting_period` or
    `ignore_junction_blocker` means "never": no vehicle is teleported, no
    rerouting round runs, or no blocked vehicle is let into the junction.
    `car` and `bus` are the driving parameters of each vehicle mode."""

    begin: float = netmodel.bounded("(-inf, inf)", 0.0)
    end: float = netmodel.bounded("(-inf, inf)", DAY_S)
    step_length: float = netmodel.bounded("(0, inf)", 1.0)
    ignore_junction_blocker: float = netmodel.bounded("[0, inf]", 15.0)
    time_to_teleport: float = netmodel.bounded("(0, inf]", 300.0)
    rerouting_probability: float = netmodel.bounded("[0, 1]", 0.0)
    rerouting_period: float = netmodel.bounded("(0, inf]", 300.0)
    speed_smoothing: float = netmodel.bounded("[0, 1]", 0.5)
    car: VehicleType = CAR
    bus: VehicleType = BUS
    seed: int = 0

    def __post_init__(self):
        netmodel.check_bounds(self)
        if not self.end > self.begin:
            raise ValueError("end must be after begin")


# one per trip, so without an instance dict
@dataclass(frozen=True, slots=True)
class VehicleResult:
    trip_id: str
    arrived: bool
    depart: float
    insert_time: Optional[float]
    travel_time: Optional[float]
    time_loss: float
    distance: float
    teleports: int
    equipped: bool
    # for trips cut off by the end of the run: time spent so far and how
    # many route edges were fully traversed
    time_in_net: Optional[float] = None
    edges_done: int = 0


@dataclass
class SimOutput:
    """Everything a run reports back."""

    detector_counts: dict[str, list[int]]
    detector_window: dict[str, float]
    begin: float
    running: list[int]
    vehicles: dict[str, VehicleResult]
    totals: dict[str, float]
    edge_mean_time: dict[str, float]


def _kinematics(vtype: VehicleType, dt: float) -> tuple:
    """The constants of one Krauss step of `vtype` over `dt`, each computed
    as `carfollow.next_speed` computes it: (accel * dt, max speed,
    -decel * tau, (decel * tau)^2, 2 * decel, sigma * accel * dt, min gap,
    length)."""
    bt = vtype.decel * vtype.tau
    return (
        vtype.accel * dt, vtype.max_speed, -bt, bt * bt, 2.0 * vtype.decel,
        vtype.sigma * vtype.accel * dt, vtype.min_gap, vtype.length,
    )


# one per network edge: its static data, lanes, each lane's detectors sorted
# by (position, id) or None when it has none, the rerouting speed estimate,
# and running [sum, count] of its traversal times over the run and of its
# speeds over the rerouting period, added in exit order
@dataclass(slots=True, eq=False)
class _Edge:
    id: str
    length: float
    speed_limit: float
    free_flow: float
    lanes: list[deque]
    detectors: Optional[list[list[Detector]]]
    est_speed: float
    run_time: list
    period_speed: list


# a junction movement as a front on its in edge meets it: the out edge and
# its signal as (junction id, index into the state string) or None
@dataclass(frozen=True, slots=True)
class _Connection:
    edge: _Edge
    signal: Optional[tuple[str, int]]


def _in_sorted(items: list, item) -> bool:
    at = bisect.bisect_left(items, item)
    return at < len(items) and items[at] == item


class _Vehicle:
    __slots__ = (
        "trip_id", "vtype", "route", "idx", "lane", "pos", "speed",
        "next_speed", "moved", "insert_time", "depart", "distance",
        "ff_done", "stopped_since", "teleports", "equipped",
        "stops", "dwell", "dwell_until", "edge_entered", "kin", "ahead",
    )

    def __init__(self, plan: RoutePlan, vtype: VehicleType, equipped: bool):
        self.trip_id = plan.trip_id
        self.vtype = vtype
        self.route = list(plan.edges)
        self.idx = 0
        self.lane = 0
        self.pos = 0.0
        self.speed = 0.0
        self.next_speed = 0.0
        self.moved = -1  # the step in which it last reached its stop line
        self.insert_time = 0.0
        self.depart = plan.depart
        self.distance = 0.0
        self.ff_done = 0.0  # free-flow time of edges fully traversed
        self.stopped_since: Optional[float] = None
        self.teleports = 0
        self.equipped = equipped
        self.stops: list[tuple[int, float]] = []
        self.dwell = DEFAULT_BUS_DWELL
        self.dwell_until = -math.inf
        self.edge_entered = 0.0
        self.kin: tuple = ()  # _kinematics of its type
        self.ahead: Optional[_Connection] = None  # see Simulation._look_ahead


def check_run(
    net: netmodel.RoadNetwork,
    plans: list[RoutePlan],
    config: SimConfig,
    detectors: list[Detector] = (),
    bus_lines: list[BusLine] = (),
) -> None:
    """Raise `ValueError` for the first thing a run of `plans` on `net`
    under `config` cannot simulate: the junction, edge or bus stop of the
    first `netmodel.engine_violations`, then the trip, detector or bus line
    `simio.check_scenario` refuses, each named in the message."""
    netmodel.check_runnable(net)
    check_scenario(net, plans, detectors, bus_lines, config.begin)


class Simulation:
    """One simulation run; build it, then call run() once."""

    def __init__(
        self,
        net: netmodel.RoadNetwork,
        plans: list[RoutePlan],
        config: SimConfig,
        detectors: list[Detector] = (),
        bus_lines: list[BusLine] = (),
    ):
        check_run(net, plans, config, detectors, bus_lines)
        self.net = net
        self.config = config
        # mode -> (type, its _kinematics), read at insertion
        self._types = {
            mode: (vtype, _kinematics(vtype, config.step_length))
            for mode, vtype in (("car", config.car), ("bus", config.bus))
        }
        all_plans = list(plans)
        # trip id -> (stops as (route index, position), dwell) for every bus:
        # a line bus stops where its stop sequence says, a bus from a routes
        # file at every stop along its edges
        self._bus_stops: dict[str, tuple[tuple[tuple[int, float], ...], float]] = {}
        along: dict[str, list[float]] = {}
        for s in net.bus_stops.values():
            along.setdefault(s.edge_id, []).append(s.position)
        for plan in all_plans:
            if plan.mode == "bus":
                stops = tuple(
                    (idx, pos)
                    for idx, eid in enumerate(plan.edges)
                    for pos in sorted(along.get(eid, ()))
                )
                self._bus_stops[plan.trip_id] = (stops, DEFAULT_BUS_DWELL)
        for line in bus_lines:
            all_plans.extend(self._expand_bus_line(line))
        self.plans = sorted(all_plans, key=lambda p: (p.depart, p.trip_id))

        # device ownership is drawn once, in departure order, before anything
        # runs; the draw sequence depends only on the seed and the plan list,
        # so sweeping the probability re-uses identical uniforms per trip
        equip_rng = random.Random(f"{config.seed}/equip")
        self._equipped: dict[str, bool] = {}
        for plan in self.plans:
            if plan.mode == "car":
                self._equipped[plan.trip_id] = (
                    equip_rng.random() < config.rerouting_probability
                )
        self._noise = random.Random(f"{config.seed}/noise")

        self.active_edges: list[str] = []  # edges with a vehicle, sorted
        self.vehicles: dict[str, _Vehicle] = {}
        self.results: dict[str, VehicleResult] = {}

        self.controllers = {
            jid: tls.make_controller(prog, config.begin)
            for jid, prog in net.tls_programs.items()
        }
        self._actuated = [
            c for c in self.controllers.values() if isinstance(c, tls.ActuatedTls)
        ]
        self._tls_cache: dict[str, str] = {}
        self.detectors = list(detectors)
        lane_detectors: dict[str, list[list[Detector]]] = {}
        for det in sorted(self.detectors, key=lambda d: (d.position, d.id)):
            lane_detectors.setdefault(
                det.edge_id, [[] for _ in range(net.edges[det.edge_id].lane_count)]
            )[det.lane].append(det)
        self.edges: dict[str, _Edge] = {
            e.id: _Edge(
                e.id, e.length, e.speed_limit, netmodel.free_flow_time(e),
                [deque() for _ in range(e.lane_count)], lane_detectors.get(e.id),
                e.speed_limit, [0.0, 0], [0.0, 0],
            )
            for e in net.edges.values()
        }
        # (in edge, out edge) -> its _Connection, over every junction
        self._connections: dict[tuple[str, str], _Connection] = {
            (ein, eout): _Connection(
                self.edges[eout], (jid, i) if jid in net.tls_programs else None
            )
            for jid in net.junctions
            for i, (ein, eout) in enumerate(net.connections(jid))
        }

        span = config.end - config.begin
        self.counts: dict[str, list[int]] = {}
        self.det_window: dict[str, float] = {}
        for d in self.detectors:
            self.counts[d.id] = [0] * max(1, math.ceil(span / d.window - 1e-9))
            self.det_window[d.id] = d.window
        self.n_minutes = int(span // 60) + 1
        self.running = [0] * self.n_minutes

        self.totals = {
            "loaded": float(len(self.plans)),
            "departed": 0.0,
            "arrived": 0.0,
            "still_running": 0.0,
            "never_inserted": 0.0,
            "teleports": 0.0,
            "collisions": 0.0,
        }

    def _expand_bus_line(self, line: BusLine) -> list[RoutePlan]:
        stops = tuple(served_stops(line, self.net))
        plans = bus_line_plans(line)
        for plan in plans:
            self._bus_stops[plan.trip_id] = (stops, line.dwell)
        return plans

    # -- access helpers -----------------------------------------------------

    def _green(self, conn: _Connection, now: float) -> bool:
        """Whether `conn` has green at `now`, reading a junction's state once
        per step into the cache the speed pass shares; unsignalised is green."""
        if conn.signal is None:
            return True
        jid, i = conn.signal
        state = self._tls_cache.get(jid)
        if state is None:
            state = self._tls_cache[jid] = self.controllers[jid].state(now)
        return state[i] == "G"

    def _best_entry_lane(self, edge: _Edge) -> tuple[int, float, Optional[_Vehicle]]:
        """Lane with the most room at the edge start: (lane, rear space, last vehicle)."""
        best_li, best_space, best_last = 0, -math.inf, None
        for li, lane in enumerate(edge.lanes):
            if lane:
                last = lane[-1]
                space = last.pos - last.kin[7]
            else:
                last = None
                space = edge.length
            if space > best_space:
                best_li, best_space, best_last = li, space, last
        return best_li, best_space, best_last

    def _look_ahead(self, veh: _Vehicle) -> None:
        """Point the vehicle at the _Connection it meets at the end of its
        edge, or None on the last edge of its route. Whatever changes
        `route` or `idx` calls this."""
        j, route = veh.idx + 1, veh.route
        veh.ahead = self._connections[route[j - 1], route[j]] if j < len(route) else None

    def _deactivate_if_empty(self, edge: _Edge) -> None:
        if not any(edge.lanes):
            order = self.active_edges
            del order[bisect.bisect_left(order, edge.id)]

    # -- main loop ----------------------------------------------------------

    def run(self, probe=None) -> SimOutput:
        """Run to the end time; `probe(sim, now)`, when given, is called
        once per executed step after all movements and insertions."""
        cfg = self.config
        dt = cfg.step_length
        begin, end = cfg.begin, cfg.end
        plans = self.plans
        pending_i = 0
        waiting: list[RoutePlan] = []

        next_reroute = begin + cfg.rerouting_period
        next_minute = 0
        k = 0
        now = begin

        while now < end:
            # fast-forward across stretches where nothing can happen
            if not self.vehicles and not waiting:
                if pending_i >= len(plans):
                    break
                target = plans[pending_i].depart
                if target > now:
                    k = max(k, math.ceil((min(target, end) - begin) / dt - 1e-9))
                    now = begin + k * dt
                    for ctrl in self._actuated:
                        ctrl.idle_advance(now)
                    while next_reroute <= now:
                        next_reroute += cfg.rerouting_period
                    # minutes skipped while empty keep their zero count
                    while (
                        next_minute < self.n_minutes
                        and next_minute * 60 < now - begin - 1e-9
                    ):
                        next_minute += 1
                    if now >= end:
                        break

            self._tls_cache = {}
            if self._actuated:
                self._step_actuated(now)
            # the speed pass moves no vehicle, so both passes walk one order
            edges = self.active_edges[:]
            self._compute_speeds(edges, now, dt)
            stalled = self._move(edges, now, dt, k)
            self._blocker_overrides(now, stalled)
            self._teleports(now, stalled)

            while pending_i < len(plans) and plans[pending_i].depart <= now:
                waiting.append(plans[pending_i])
                pending_i += 1
            if waiting:
                waiting = self._insert_waiting(waiting, now)

            if now >= next_reroute:
                self._flush_speed_estimates()
                self._reroute(now)
                while next_reroute <= now:
                    next_reroute += cfg.rerouting_period

            while next_minute < self.n_minutes and next_minute * 60 <= now - begin + 1e-9:
                self.running[next_minute] = len(self.vehicles)
                next_minute += 1

            if probe is not None:
                probe(self, now)

            k += 1
            now = begin + k * dt

        self.totals["still_running"] = float(len(self.vehicles))
        for trip_id in sorted(self.vehicles):
            self._record(self.vehicles[trip_id], arrived=False, end_time=now)
        left_over = waiting + plans[pending_i:]
        self.totals["never_inserted"] = float(len(left_over))
        for plan in left_over:
            self.results[plan.trip_id] = VehicleResult(
                trip_id=plan.trip_id, arrived=False, depart=plan.depart,
                insert_time=None, travel_time=None, time_loss=0.0,
                distance=0.0, teleports=0,
                equipped=self._equipped.get(plan.trip_id, False),
            )
        return self._finish()

    # -- per-step phases ----------------------------------------------------

    def _step_actuated(self, now: float) -> None:
        """Tell each actuated controller whether a vehicle is within
        detection range of the stop line on an approach that has green."""
        for ctrl in self._actuated:
            conns = self.net.connections(ctrl.program.junction_id)
            green = [self.edges[ein] for (ein, _), ch in zip(conns, ctrl.state(now)) if ch == "G"]
            ctrl.step(now, any(
                edge.length - lane[0].pos <= tls.DETECTION_RANGE
                for edge in green
                for lane in edge.lanes if lane
            ))

    def _compute_speeds(self, edges: list[str], now: float, dt: float) -> None:
        """Give every vehicle on `edges` its speed for this step: the Krauss
        step of `carfollow.next_speed`, inlined with the same operations in
        the same order. A lane's front vehicle follows the last vehicle of
        the lane it would enter next, or stops at a line without green."""
        noise = self._noise.random
        sqrt = math.sqrt
        records = self.edges
        tls_cache = self._tls_cache
        controllers = self.controllers
        inf = math.inf
        for eid in edges:
            edge = records[eid]
            length, v_lim = edge.length, edge.speed_limit
            for lane in edge.lanes:
                lead_rear = None
                lead_speed = 0.0
                for veh in lane:
                    pos = veh.pos
                    accel_dt, max_speed, neg_bt, bt2, two_decel, slow_dt, min_gap, vlen = veh.kin
                    if veh.dwell_until > now:
                        veh.next_speed = 0.0
                        lead_rear = pos - vlen
                        lead_speed = veh.speed
                        continue
                    speed = veh.speed
                    v = speed + accel_dt
                    v_max = v_lim if v_lim < max_speed else max_speed
                    if v > v_max:
                        v = v_max
                    if lead_rear is not None:
                        gap = lead_rear - pos - min_gap
                    else:
                        # the front vehicle looks across the junction
                        ahead = veh.ahead
                        if ahead is None:
                            gap = None  # arrival: free run off the end
                        else:
                            signal = ahead.signal
                            if signal is None:
                                green = True
                            else:
                                jid, ci = signal
                                state = tls_cache.get(jid)
                                if state is None:
                                    state = tls_cache[jid] = controllers[jid].state(now)
                                green = state[ci] == "G"
                            if not green:
                                gap = length - pos  # red or amber: the line is a wall
                                lead_speed = 0.0
                            else:
                                # the room and last vehicle _best_entry_lane finds
                                n_edge = ahead.edge
                                n_length = n_edge.length
                                space = -inf
                                last = None
                                for n_lane in n_edge.lanes:
                                    if n_lane:
                                        n_last = n_lane[-1]
                                        n_space = n_last.pos - n_last.kin[7]
                                    else:
                                        n_last = None
                                        n_space = n_length
                                    if n_space > space:
                                        space, last = n_space, n_last
                                if last is None:
                                    gap = None
                                else:
                                    gap = length - pos + space - min_gap
                                    lead_speed = last.speed
                    if gap is not None:
                        if gap <= 0:
                            vs = 0.0
                        else:
                            vs = neg_bt + sqrt(bt2 + lead_speed * lead_speed + two_decel * gap)
                            if vs <= 0.0:
                                vs = 0.0
                        if vs < v:
                            v = vs
                    v = v - slow_dt * noise()
                    if v < 0.0:
                        v = 0.0
                    # a pending stop on this edge caps how far the step reaches
                    stops = veh.stops
                    if stops and stops[0][0] == veh.idx:
                        reach = stops[0][1] - pos
                        if reach >= 0 and v * dt > reach:
                            v = reach / dt
                    veh.next_speed = v
                    lead_rear = pos - vlen
                    lead_speed = speed

    def _move(self, edges: list[str], now: float, dt: float, k: int) -> list[_Vehicle]:
        """Advance every vehicle on `edges` by its new speed. Only a lane's
        front vehicle can leave it; one that cannot holds at the line.

        Returns every vehicle in the network that has stood still for at
        least the shorter of the junction-blocker and teleport thresholds,
        whether it stayed on its edge or crept over the stop line; the two
        phases after this one look at no other vehicle."""
        records = self.edges
        cfg = self.config
        waited = min(cfg.ignore_junction_blocker, cfg.time_to_teleport)
        stop_speed = STOP_SPEED
        inf = math.inf
        vehicles = self.vehicles
        stalled = []
        for eid in edges:
            edge = records[eid]
            length, detected = edge.length, edge.detectors is not None
            for li, lane in enumerate(edge.lanes):
                if not lane:
                    continue
                prev_rear = inf
                front = True  # every vehicle walked so far left the lane
                for veh in tuple(lane):
                    if veh.moved == k:
                        break  # the rest entered this step from other edges
                    v = veh.next_speed
                    pos = veh.pos
                    new_pos = pos + v * dt
                    if new_pos > length:
                        veh.moved = k
                        if front and self._cross(veh, new_pos - length, v, now, dt):
                            # it keeps its waiting clock when it creeps over
                            since = veh.stopped_since
                            if (
                                since is not None and now - since >= waited
                                and veh.trip_id in vehicles
                            ):
                                stalled.append(veh)
                            continue
                        new_pos = length
                        v = 0.0
                    front = False
                    # reached on an edge shorter than a vehicle plus its gap:
                    # held at the line, a vehicle can end past the rear of
                    # the one ahead (the 3 m edges of the override-chain test)
                    if new_pos > prev_rear:
                        self.totals["collisions"] += 1
                        new_pos = prev_rear
                        v = 0.0
                    if new_pos > pos:
                        if detected:
                            self._detector_sweep(edge, li, pos, new_pos, now)
                        if veh.stops:
                            new_pos = self._bus_stop_check(veh, new_pos, now)
                    veh.distance += new_pos - pos
                    veh.pos = new_pos
                    veh.speed = v
                    if v < stop_speed:
                        since = veh.stopped_since
                        if since is None:
                            since = veh.stopped_since = now
                        if now - since >= waited:
                            stalled.append(veh)
                    else:
                        veh.stopped_since = None
                    prev_rear = new_pos - veh.kin[7]
        return stalled

    def _bus_stop_check(self, veh: _Vehicle, new_pos: float, now: float) -> float:
        """Begin a dwell when the step reaches the next scheduled stop."""
        if not veh.stops or veh.stops[0][0] != veh.idx:
            return new_pos
        stop_pos = veh.stops[0][1]
        if new_pos >= stop_pos - 1e-9:
            veh.stops.pop(0)
            veh.dwell_until = now + veh.dwell
            return min(new_pos, stop_pos)
        return new_pos

    def _cross(
        self, veh: _Vehicle, overshoot: float, v: float, now: float, dt: float,
    ) -> bool:
        """Move a front vehicle off its edge: either the trip ends here or
        it enters the next edge. Returns False if it must hold at the line."""
        conn = veh.ahead
        if conn is None:
            self._exit_edge(veh, now, timed=False)
            del self.vehicles[veh.trip_id]
            self.totals["arrived"] += 1
            self._record(veh, arrived=True, end_time=now + dt)
            return True
        if not self._green(conn, now):
            return False
        li_new, space, last = self._best_entry_lane(conn.edge)
        entry = overshoot
        if last is not None:
            limit = space - veh.vtype.min_gap
            if limit < 0:
                return False
            entry = min(entry, limit)
        self._exit_edge(veh, now)
        self._enter_edge(veh, veh.idx + 1, li_new, entry, v, now, driven=True)
        return True

    def _exit_edge(self, veh: _Vehicle, now: float, timed: bool = True) -> None:
        """Drive the front vehicle of a lane over the stop line and off its
        edge: the lane's detectors ahead of it and the metres to the line
        count, and the edge's free-flow time joins the baseline. `timed`
        also records how long the edge took, which an arrival does not."""
        edge = self.edges[veh.route[veh.idx]]
        self._detector_sweep(edge, veh.lane, veh.pos, edge.length, now)
        veh.distance += edge.length - veh.pos
        edge.lanes[veh.lane].popleft()
        self._deactivate_if_empty(edge)
        veh.ff_done += edge.free_flow
        if timed:
            t = now - veh.edge_entered + self.config.step_length
            for run, x in ((edge.run_time, t), (edge.period_speed, edge.length / t)):
                run[0] += x
                run[1] += 1

    def _enter_edge(
        self, veh: _Vehicle, j: int, li: int, pos: float, speed: float,
        now: float, driven: bool, stopped_since: Optional[float] = None,
    ) -> None:
        """Put `veh` on lane `li` of its route edge `j` at `pos`.

        A vehicle that drove in over the stop line (`driven`) trips the new
        lane's detectors up to where it ends, after any stop it reached
        held it back. A placed one (insertion, teleport) trips none and
        skips the stops behind it. `stopped_since`, when given, restarts
        the waiting clock; otherwise a driven vehicle sets it from its
        speed as after any move and a placed one keeps its own."""
        edge = self.edges[veh.route[j]]
        if not driven:
            veh.stops = [s for s in veh.stops if s >= (j, pos)]
        veh.idx = j
        self._look_ahead(veh)
        veh.lane = li
        veh.speed = speed
        veh.edge_entered = now
        edge.lanes[li].append(veh)
        if not _in_sorted(self.active_edges, edge.id):
            bisect.insort(self.active_edges, edge.id)
        veh.pos = self._bus_stop_check(veh, pos, now)
        if driven:
            self._detector_sweep(edge, li, -1.0, veh.pos, now)
            veh.distance += veh.pos
        if stopped_since is not None:
            veh.stopped_since = stopped_since
        elif driven:  # the waiting clock, as after any move
            if speed < STOP_SPEED:
                if veh.stopped_since is None:
                    veh.stopped_since = now
            else:
                veh.stopped_since = None

    def _flush_speed_estimates(self) -> None:
        """Fold the period's observed edge speeds into the running estimate
        of each edge that has any; edges do not depend on each other."""
        alpha = self.config.speed_smoothing
        for edge in self.edges.values():
            total, n = edge.period_speed
            if n:
                edge.est_speed = (1 - alpha) * edge.est_speed + alpha * (total / n)
                edge.period_speed = [0.0, 0]

    def _detector_sweep(self, edge: _Edge, li: int, prev: float, new: float, now: float) -> None:
        for det in edge.detectors[li] if edge.detectors else ():
            if prev < det.position <= new:
                counts = self.counts[det.id]
                w = int((now - self.config.begin) // det.window)
                counts[min(w, len(counts) - 1)] += 1

    def _blocker_overrides(self, now: float, stalled: list[_Vehicle]) -> None:
        """Push a lane's front vehicle that has waited at the line for
        `ignore_junction_blocker` seconds into the next edge if it has any
        room at all. Lanes are taken in the order of the edges active when
        the phase begins, then of lane index. Only a lane whose front is in
        `stalled`, or one an override fills from empty, can have such a
        front."""
        ignore = self.config.ignore_junction_blocker
        records = self.edges
        fronts = set()
        for veh in stalled:
            eid = veh.route[veh.idx]
            if records[eid].lanes[veh.lane][0] is veh:
                fronts.add((eid, veh.lane))
        if not fronts:
            return
        todo = sorted(fronts)  # a sorted list is a heap
        active = self.active_edges[:]  # as the phase begins
        while todo:
            eid, li = heapq.heappop(todo)
            veh = records[eid].lanes[li][0]
            conn = veh.ahead
            if (
                veh.stopped_since is None
                or now - veh.stopped_since < ignore
                # a follower blocked by the next edge parks up to one
                # min_gap short of the line in addition to AT_LINE
                or records[eid].length - veh.pos > veh.vtype.min_gap + AT_LINE
                or conn is None
                or veh.dwell_until > now
                or not self._green(conn, now)
            ):
                continue
            nxt = conn.edge
            li_new, space, _ = self._best_entry_lane(nxt)
            if space <= OVERRIDE_MIN_SPACE:
                continue
            self._exit_edge(veh, now)
            self._enter_edge(
                veh, veh.idx + 1, li_new, 0.0, 0.0, now, driven=True,
                stopped_since=now,
            )
            # a vehicle that fills an empty lane fronts it: the walk still
            # reaches that lane if it comes later and its edge was active
            if (
                nxt.lanes[li_new][0] is veh
                and (nxt.id, li_new) > (eid, li)
                and _in_sorted(active, nxt.id)
            ):
                heapq.heappush(todo, (nxt.id, li_new))

    def _teleports(self, now: float, stalled: list[_Vehicle]) -> None:
        """Relocate vehicles stuck past the threshold to the first edge on
        their remaining route with room; no vehicle is ever dropped, one
        that cannot be placed keeps waiting in place."""
        if not stalled:
            return
        cfg = self.config
        stuck = [
            v for v in stalled
            if v.stopped_since is not None
            and now - v.stopped_since >= cfg.time_to_teleport
            and v.dwell_until <= now
        ]
        for veh in sorted(stuck, key=lambda v: v.trip_id):
            for j in range(veh.idx + 1, len(veh.route)):
                li, space, _ = self._best_entry_lane(self.edges[veh.route[j]])
                if space >= veh.vtype.length + veh.vtype.min_gap:
                    break
            else:
                continue  # no edge ahead has room
            edge = self.edges[veh.route[veh.idx]]
            edge.lanes[veh.lane].remove(veh)
            self._deactivate_if_empty(edge)
            veh.teleports += 1
            self.totals["teleports"] += 1
            # edges skipped over still count toward the free-flow baseline
            for skipped in veh.route[veh.idx:j]:
                veh.ff_done += self.edges[skipped].free_flow
            self._enter_edge(
                veh, j, li, veh.vtype.length, 0.0, now, driven=False,
                stopped_since=now,
            )

    def _insert_waiting(self, waiting: list[RoutePlan], now: float) -> list[RoutePlan]:
        """Insert each waiting plan, in order, whose first edge has room;
        return the plans still waiting. Only an insertion on an edge changes
        it during the round, so an edge's entry lane is looked up once and
        again only after an insertion there: a plan for a full edge is
        passed over without any lookup."""
        entry: dict[str, tuple] = {}  # edge -> _best_entry_lane, this round
        left = []
        for plan in waiting:
            eid = plan.edges[0]
            ent = entry.get(eid)
            if ent is None:
                ent = entry[eid] = self._best_entry_lane(self.edges[eid])
            vtype, kin = self._types[plan.mode]
            if ent[1] < vtype.min_gap:
                left.append(plan)
                continue
            del entry[eid]
            veh = _Vehicle(plan, vtype, self._equipped.get(plan.trip_id, False))
            veh.kin = kin
            stops, veh.dwell = self._bus_stops.get(plan.trip_id, ((), DEFAULT_BUS_DWELL))
            veh.stops = list(stops)
            veh.insert_time = now
            self._enter_edge(veh, 0, ent[0], 0.0, 0.0, now, driven=False)
            self.vehicles[plan.trip_id] = veh
            self.totals["departed"] += 1
        return left

    def _reroute(self, now: float) -> None:
        records = self.edges
        routes = netmodel.CarRoutes(
            self.net, lambda e: (edge := records[e.id]).length / max(edge.est_speed, 0.1)
        )
        for trip_id in sorted(self.vehicles):
            veh = self.vehicles[trip_id]
            if not veh.equipped or veh.ahead is None:
                continue
            new_tail = routes.route(veh.route[veh.idx], veh.route[-1])
            if new_tail is not None and new_tail != veh.route[veh.idx:]:
                veh.route = veh.route[: veh.idx] + new_tail
                self._look_ahead(veh)

    # -- results ------------------------------------------------------------

    def _time_loss(self, veh: _Vehicle, duration: float, arrived: bool) -> float:
        ff = veh.ff_done
        if not arrived and veh.idx < len(veh.route):
            ff += veh.pos / self.edges[veh.route[veh.idx]].speed_limit  # the edge so far
        return max(0.0, duration - ff)

    def _record(self, veh: _Vehicle, arrived: bool, end_time: float) -> None:
        duration = end_time - veh.insert_time
        self.results[veh.trip_id] = VehicleResult(
            trip_id=veh.trip_id,
            arrived=arrived,
            depart=veh.depart,
            insert_time=veh.insert_time,
            travel_time=duration if arrived else None,
            time_loss=self._time_loss(veh, duration, arrived),
            distance=veh.distance,
            teleports=veh.teleports,
            equipped=veh.equipped,
            time_in_net=duration,
            edges_done=veh.idx,
        )

    def _finish(self) -> SimOutput:
        arrived = [r for r in self.results.values() if r.arrived]
        total_dist = netmodel.left_sum(r.distance for r in arrived)
        total_time = netmodel.left_sum(r.travel_time for r in arrived)
        self.totals["avg_travel_time"] = total_time / len(arrived) if arrived else 0.0
        self.totals["avg_time_loss"] = (
            netmodel.left_sum(r.time_loss for r in arrived) / len(arrived) if arrived else 0.0
        )
        self.totals["avg_speed"] = total_dist / total_time if total_time > 0 else 0.0
        edge_mean = {}
        for eid, edge in self.edges.items():
            total, n = edge.run_time
            edge_mean[eid] = total / n if n else edge.free_flow
        return SimOutput(
            detector_counts=self.counts,
            detector_window=dict(self.det_window),
            begin=self.config.begin,
            running=self.running,
            vehicles=dict(self.results),
            totals=dict(self.totals),
            edge_mean_time=edge_mean,
        )
