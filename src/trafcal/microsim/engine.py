"""Time-stepped vehicle simulation over a road network.

Vehicles follow fixed edge sequences, queue per lane, obey traffic lights,
and optionally reroute mid-trip when equipped with a navigation device.
Induction-loop detectors count front-bumper crossings into fixed windows.

Every step runs the same sub-phases in order: signal update, synchronous
speed update, movement (including edge transitions), junction-blocker
override, teleport of hopelessly stuck vehicles, insertion of due
departures, periodic rerouting, and output sampling. However a vehicle
reaches an edge (driving over the line, a junction-blocker override, a
teleport or its insertion) it enters through one helper, and it leaves
through one, so detectors, distance and edge times count every way alike.
Bus stops are resolved once per trip, before the run. All randomness comes
from named substreams of the run seed, and every container is walked in a
sorted order, so equal seeds give byte-equal outputs.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Optional

from trafcal import netmodel
from trafcal.microsim import carfollow, tls
from trafcal.microsim.carfollow import BUS, CAR, VehicleType
from trafcal.microsim.simio import DEFAULT_BUS_DWELL, BusLine, Detector, RoutePlan

STOP_SPEED = 0.1  # below this a vehicle counts as standing
AT_LINE = 0.5  # metres from the stop line that still count as "at" it
OVERRIDE_MIN_SPACE = 0.1  # rear space a junction-blocker override still needs


@dataclass
class SimConfig:
    """Run parameters; defaults favour whole-day desk runs (drop
    step_length to 0.1 for fidelity)."""

    begin: float = 0.0
    end: float = 86400.0
    step_length: float = 1.0
    ignore_junction_blocker: float = 15.0
    time_to_teleport: float = 300.0
    rerouting_probability: float = 0.0
    rerouting_period: float = 300.0
    speed_smoothing: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.step_length <= 0:
            raise ValueError("step_length must be > 0")
        if self.end <= self.begin:
            raise ValueError("end must be after begin")
        if not 0.0 <= self.rerouting_probability <= 1.0:
            raise ValueError("rerouting_probability must be in [0, 1]")
        if self.rerouting_period <= 0:
            raise ValueError("rerouting_period must be > 0")
        if self.time_to_teleport <= 0:
            raise ValueError("time_to_teleport must be > 0")
        if self.ignore_junction_blocker < 0:
            raise ValueError("ignore_junction_blocker must be >= 0")
        if not 0.0 <= self.speed_smoothing <= 1.0:
            raise ValueError("speed_smoothing must be in [0, 1]")


@dataclass(frozen=True)
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


class _Vehicle:
    __slots__ = (
        "trip_id", "vtype", "route", "idx", "lane", "pos", "speed",
        "next_speed", "moved", "insert_time", "depart", "distance",
        "ff_done", "stopped_since", "teleports", "equipped",
        "stops", "dwell", "dwell_until", "edge_entered",
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
        self.moved = -1
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


class Simulation:
    """One simulation run; build it, then call run() once."""

    def __init__(
        self,
        net: netmodel.RoadNetwork,
        plans: list[RoutePlan],
        config: SimConfig,
        detectors: list[Detector] = (),
        bus_lines: list[BusLine] = (),
        vehicle_types: Optional[dict[str, VehicleType]] = None,
    ):
        self.net = net
        self.config = config
        self.vehicle_types = {"car": CAR, "bus": BUS}
        if vehicle_types:
            self.vehicle_types.update(vehicle_types)
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
        for plan in self.plans:
            if plan.depart < config.begin:
                raise ValueError(f"trip '{plan.trip_id}' departs before the run begins")

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

        self.lanes: dict[str, list[deque]] = {
            e.id: [deque() for _ in range(e.lane_count)] for e in net.edges.values()
        }
        self.active_edges: set[str] = set()
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
        # (in_edge, out_edge) -> (junction id, index into the state string)
        self._conn_index: dict[tuple[str, str], tuple[str, int]] = {}
        for jid in net.tls_programs:
            for i, conn in enumerate(net.connections(jid)):
                self._conn_index[conn] = (jid, i)

        self.detectors = list(detectors)
        self._lane_detectors: dict[tuple[str, int], list[Detector]] = {}
        for det in self.detectors:
            self._lane_detectors.setdefault((det.edge_id, det.lane), []).append(det)
        for group in self._lane_detectors.values():
            group.sort(key=lambda d: (d.position, d.id))
        span = config.end - config.begin
        self.counts: dict[str, list[int]] = {}
        self.det_window: dict[str, float] = {}
        self._det_n: dict[str, int] = {}
        for d in self.detectors:
            n = max(1, math.ceil(span / d.window - 1e-9))
            self.counts[d.id] = [0] * n
            self.det_window[d.id] = d.window
            self._det_n[d.id] = n
        self.n_minutes = int(span // 60) + 1
        self.running = [0] * self.n_minutes

        self.edge_time_sum: dict[str, float] = {}
        self.edge_time_n: dict[str, int] = {}
        self._est_speed: dict[str, float] = {
            e.id: e.speed_limit for e in net.edges.values()
        }
        self._period_speed: dict[str, list[float]] = {}

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
        net = self.net
        for eid in line.route:
            if eid not in net.edges:
                raise ValueError(f"bus line '{line.id}': unknown edge '{eid}'")
        stops: list[tuple[int, float]] = []
        cursor = 0
        for sid in line.stop_sequence:
            stop = net.bus_stops.get(sid)
            if stop is None:
                raise ValueError(f"bus line '{line.id}': unknown bus stop '{sid}'")
            if stops and line.route[cursor] == stop.edge_id and stop.position < stops[-1][1]:
                cursor += 1  # behind the previous stop: a later pass over its edge
            while cursor < len(line.route) and line.route[cursor] != stop.edge_id:
                cursor += 1
            if cursor >= len(line.route):
                raise ValueError(
                    f"bus line '{line.id}': stop '{sid}' is not on the route in order"
                )
            stops.append((cursor, stop.position))
        plans = []
        for i, dep in enumerate(line.departures):
            trip_id = f"{line.id}#{i}"
            plans.append(RoutePlan(trip_id, tuple(line.route), float(dep), mode="bus"))
            self._bus_stops[trip_id] = (tuple(stops), line.dwell)
        return plans

    # -- access helpers -----------------------------------------------------

    def _crossing_state(self, ein: str, eout: str, now: float) -> str:
        key = self._conn_index.get((ein, eout))
        if key is None:
            return "G"
        jid, i = key
        state = self._tls_cache.get(jid)
        if state is None:
            state = self.controllers[jid].state(now)
            self._tls_cache[jid] = state
        return state[i] if i < len(state) else "r"

    def _best_entry_lane(self, edge_id: str) -> tuple[int, float, Optional[_Vehicle]]:
        """Lane with the most room at the edge start: (lane, rear space, last vehicle)."""
        best_li, best_space, best_last = 0, -math.inf, None
        length = self.net.edges[edge_id].length
        for li, lane in enumerate(self.lanes[edge_id]):
            if lane:
                last = lane[-1]
                space = last.pos - last.vtype.length
            else:
                last = None
                space = length
            if space > best_space:
                best_li, best_space, best_last = li, space, last
        return best_li, best_space, best_last

    def _deactivate_if_empty(self, eid: str) -> None:
        if not any(self.lanes[eid]):
            self.active_edges.discard(eid)

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
            self._compute_speeds(now, dt)
            self._move(now, dt, k)
            self._blocker_overrides(now)
            self._teleports(now)

            while pending_i < len(plans) and plans[pending_i].depart <= now:
                waiting.append(plans[pending_i])
                pending_i += 1
            if waiting:
                waiting = [p for p in waiting if not self._try_insert(p, now)]

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
            green = {ein for (ein, _), ch in zip(conns, ctrl.state(now)) if ch == "G"}
            ctrl.step(now, any(
                self.net.edges[ein].length - lane[0].pos <= tls.DETECTION_RANGE
                for ein in green & self.active_edges
                for lane in self.lanes[ein] if lane
            ))

    def _compute_speeds(self, now: float, dt: float) -> None:
        net = self.net
        noise = self._noise.random
        for eid in sorted(self.active_edges):
            edge = net.edges[eid]
            v_lim = edge.speed_limit
            for lane in self.lanes[eid]:
                leader: Optional[_Vehicle] = None
                for veh in lane:
                    if veh.dwell_until > now:
                        veh.next_speed = 0.0
                        leader = veh
                        continue
                    vt = veh.vtype
                    if leader is not None:
                        gap = leader.pos - leader.vtype.length - veh.pos - vt.min_gap
                        lead_speed = leader.speed
                    else:
                        gap, lead_speed = self._front_gap(veh, edge, now)
                    v_max = v_lim if v_lim < vt.max_speed else vt.max_speed
                    v = carfollow.next_speed(
                        veh.speed, v_max, gap, lead_speed, vt, dt, noise()
                    )
                    # a pending stop on this edge caps how far the step reaches
                    if veh.stops and veh.stops[0][0] == veh.idx:
                        reach = veh.stops[0][1] - veh.pos
                        if reach >= 0 and v * dt > reach:
                            v = reach / dt
                    veh.next_speed = v
                    leader = veh

    def _front_gap(self, veh: _Vehicle, edge, now: float) -> tuple[float, float]:
        """Gap and leader speed for a lane's front vehicle, looking across
        the junction into the lane it would enter next."""
        remain = edge.length - veh.pos
        if veh.idx + 1 >= len(veh.route):
            return math.inf, 0.0  # arrival: free run off the end
        nxt = veh.route[veh.idx + 1]
        if self._crossing_state(edge.id, nxt, now) != "G":
            return remain, 0.0  # red or amber: the stop line is a wall
        _, space, last = self._best_entry_lane(nxt)
        if last is None:
            return math.inf, 0.0
        return remain + space - veh.vtype.min_gap, last.speed

    def _move(self, now: float, dt: float, k: int) -> None:
        net = self.net
        for eid in sorted(self.active_edges):
            edge = net.edges[eid]
            length = edge.length
            for li, lane in enumerate(self.lanes[eid]):
                prev_rear = math.inf
                i = 0
                while i < len(lane):
                    veh = lane[i]
                    if veh.moved == k:
                        prev_rear = veh.pos - veh.vtype.length
                        i += 1
                        continue
                    veh.moved = k
                    v = veh.next_speed
                    new_pos = veh.pos + v * dt
                    if new_pos > length:
                        if i == 0 and self._cross(
                            veh, eid, new_pos - length, v, now, dt
                        ):
                            continue  # left this lane; deque index stays put
                        new_pos = length
                        v = 0.0
                    if new_pos > prev_rear:  # should be unreachable
                        self.totals["collisions"] += 1
                        new_pos = prev_rear
                        v = 0.0
                    if new_pos > veh.pos:
                        self._detector_sweep(eid, li, veh.pos, new_pos, now)
                        new_pos = self._bus_stop_check(veh, new_pos, now)
                    veh.distance += new_pos - veh.pos
                    veh.pos = new_pos
                    veh.speed = v
                    self._after_move(veh, now)
                    prev_rear = veh.pos - veh.vtype.length
                    i += 1

    def _after_move(self, veh: _Vehicle, now: float) -> None:
        if veh.speed < STOP_SPEED:
            if veh.stopped_since is None:
                veh.stopped_since = now
        else:
            veh.stopped_since = None

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
        self, veh: _Vehicle, eid: str, overshoot: float, v: float, now: float,
        dt: float,
    ) -> bool:
        """Move a front vehicle off its edge: either the trip ends here or
        it enters the next edge. Returns False if it must hold at the line."""
        if veh.idx + 1 >= len(veh.route):
            self._exit_edge(veh, now, timed=False)
            del self.vehicles[veh.trip_id]
            self.totals["arrived"] += 1
            self._record(veh, arrived=True, end_time=now + dt)
            return True
        nxt = veh.route[veh.idx + 1]
        if self._crossing_state(eid, nxt, now) != "G":
            return False
        li_new, space, last = self._best_entry_lane(nxt)
        entry = overshoot
        if last is not None:
            limit = last.pos - last.vtype.length - veh.vtype.min_gap
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
        eid = veh.route[veh.idx]
        edge = self.net.edges[eid]
        self._detector_sweep(eid, veh.lane, veh.pos, edge.length, now)
        veh.distance += edge.length - veh.pos
        self.lanes[eid][veh.lane].popleft()
        self._deactivate_if_empty(eid)
        veh.ff_done += netmodel.free_flow_time(edge)
        if timed:
            t = now - veh.edge_entered + self.config.step_length
            self.edge_time_sum[eid] = self.edge_time_sum.get(eid, 0.0) + t
            self.edge_time_n[eid] = self.edge_time_n.get(eid, 0) + 1
            self._period_speed.setdefault(eid, []).append(edge.length / t)

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
        eid = veh.route[j]
        if not driven:
            veh.stops = [s for s in veh.stops if s >= (j, pos)]
        veh.idx = j
        veh.lane = li
        veh.speed = speed
        veh.edge_entered = now
        self.lanes[eid][li].append(veh)
        self.active_edges.add(eid)
        veh.pos = self._bus_stop_check(veh, pos, now)
        if driven:
            self._detector_sweep(eid, li, -1.0, veh.pos, now)
            veh.distance += veh.pos
        if stopped_since is not None:
            veh.stopped_since = stopped_since
        elif driven:
            self._after_move(veh, now)

    def _flush_speed_estimates(self) -> None:
        """Fold the period's observed edge speeds into the running estimate."""
        alpha = self.config.speed_smoothing
        for eid in sorted(self._period_speed):
            obs = self._period_speed[eid]
            mean = sum(obs) / len(obs)
            self._est_speed[eid] = (1 - alpha) * self._est_speed[eid] + alpha * mean
        self._period_speed.clear()

    def _detector_sweep(self, eid: str, li: int, prev: float, new: float, now: float) -> None:
        group = self._lane_detectors.get((eid, li))
        if not group:
            return
        for det in group:
            if prev < det.position <= new:
                w = min(
                    int((now - self.config.begin) // det.window),
                    self._det_n[det.id] - 1,
                )
                self.counts[det.id][w] += 1

    def _blocker_overrides(self, now: float) -> None:
        cfg = self.config
        for eid in sorted(self.active_edges):
            edge = self.net.edges[eid]
            for lane in self.lanes[eid]:
                if not lane:
                    continue
                veh = lane[0]
                if (
                    veh.stopped_since is None
                    or now - veh.stopped_since < cfg.ignore_junction_blocker
                    # a follower blocked by the next edge parks up to one
                    # min_gap short of the line in addition to AT_LINE
                    or edge.length - veh.pos > veh.vtype.min_gap + AT_LINE
                    or veh.idx + 1 >= len(veh.route)
                    or veh.dwell_until > now
                ):
                    continue
                nxt = veh.route[veh.idx + 1]
                if self._crossing_state(eid, nxt, now) != "G":
                    continue
                li_new, space, _ = self._best_entry_lane(nxt)
                if space <= OVERRIDE_MIN_SPACE:
                    continue
                self._exit_edge(veh, now)
                self._enter_edge(
                    veh, veh.idx + 1, li_new, 0.0, 0.0, now, driven=True,
                    stopped_since=now,
                )

    def _teleports(self, now: float) -> None:
        """Relocate vehicles stuck past the threshold to the first edge on
        their remaining route with room; no vehicle is ever dropped, one
        that cannot be placed keeps waiting in place."""
        cfg = self.config
        stuck = [
            v for v in self.vehicles.values()
            if v.stopped_since is not None
            and now - v.stopped_since >= cfg.time_to_teleport
            and v.dwell_until <= now
        ]
        for veh in sorted(stuck, key=lambda v: v.trip_id):
            dest = None
            for j in range(veh.idx + 1, len(veh.route)):
                li, space, _ = self._best_entry_lane(veh.route[j])
                if space >= veh.vtype.length + veh.vtype.min_gap:
                    dest = (j, li)
                    break
            if dest is None:
                continue
            j, li = dest
            eid = veh.route[veh.idx]
            self.lanes[eid][veh.lane].remove(veh)
            self._deactivate_if_empty(eid)
            veh.teleports += 1
            self.totals["teleports"] += 1
            # edges skipped over still count toward the free-flow baseline
            for skipped in veh.route[veh.idx:j]:
                veh.ff_done += netmodel.free_flow_time(self.net.edges[skipped])
            self._enter_edge(
                veh, j, li, veh.vtype.length, 0.0, now, driven=False,
                stopped_since=now,
            )

    def _try_insert(self, plan: RoutePlan, now: float) -> bool:
        eid = plan.edges[0]
        if eid not in self.net.edges:
            raise KeyError(f"trip '{plan.trip_id}': unknown edge '{eid}'")
        vtype = self.vehicle_types.get(plan.mode, CAR)
        li, space, _ = self._best_entry_lane(eid)
        if space < vtype.min_gap:
            return False
        veh = _Vehicle(plan, vtype, self._equipped.get(plan.trip_id, False))
        stops, veh.dwell = self._bus_stops.get(plan.trip_id, ((), DEFAULT_BUS_DWELL))
        veh.stops = list(stops)
        veh.insert_time = now
        self._enter_edge(veh, 0, li, 0.0, 0.0, now, driven=False)
        self.vehicles[plan.trip_id] = veh
        self.totals["departed"] += 1
        return True

    def _reroute(self, now: float) -> None:
        est = self._est_speed
        routes = netmodel.CarRoutes(
            self.net, lambda edge: edge.length / max(est[edge.id], 0.1)
        )
        for trip_id in sorted(self.vehicles):
            veh = self.vehicles[trip_id]
            if not veh.equipped or veh.vtype.id != "car":
                continue
            if veh.idx + 1 >= len(veh.route):
                continue
            new_tail = routes.route(veh.route[veh.idx], veh.route[-1])
            if new_tail is not None and new_tail != veh.route[veh.idx:]:
                veh.route = veh.route[: veh.idx] + new_tail

    # -- results ------------------------------------------------------------

    def _time_loss(self, veh: _Vehicle, duration: float, arrived: bool) -> float:
        ff = veh.ff_done
        if not arrived and veh.idx < len(veh.route):
            edge = self.net.edges[veh.route[veh.idx]]
            ff += veh.pos / edge.speed_limit  # driven part of the current edge
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
        total_dist = sum(r.distance for r in arrived)
        total_time = sum(r.travel_time for r in arrived)
        self.totals["avg_travel_time"] = total_time / len(arrived) if arrived else 0.0
        self.totals["avg_time_loss"] = (
            sum(r.time_loss for r in arrived) / len(arrived) if arrived else 0.0
        )
        self.totals["avg_speed"] = total_dist / total_time if total_time > 0 else 0.0
        edge_mean = {}
        for eid, edge in self.net.edges.items():
            n = self.edge_time_n.get(eid, 0)
            edge_mean[eid] = (
                self.edge_time_sum[eid] / n if n else netmodel.free_flow_time(edge)
            )
        return SimOutput(
            detector_counts=self.counts,
            detector_window=dict(self.det_window),
            begin=self.config.begin,
            running=self.running,
            vehicles=dict(self.results),
            totals=dict(self.totals),
            edge_mean_time=edge_mean,
        )
