"""Iterative user-equilibrium route assignment.

Each vehicle keeps a small set of alternative routes with costs and choice
probabilities. After every simulated iteration the chosen route's cost is
blended with the experienced travel time and probability mass shifts
pairwise towards cheaper alternatives, until average travel times settle.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field

from trafcal import netmodel
from trafcal.demandgen import Trip, expand_routes
from trafcal.microsim import RoutePlan, SimConfig, Simulation

GAWRON_BETA = 0.9
GAWRON_ALPHA = 0.5
MAX_ALTERNATIVES = 5


@dataclass(frozen=True)
class DuaConfig:
    """Settings of one assignment run: at most `max_iter` simulated rounds,
    converged once the last `window` average travel times agree within
    `tol`; `beta` and `alpha` drive `gawron_update`, and each vehicle keeps
    at most `max_alternatives` routes."""

    max_iter: int = netmodel.bounded("[1, inf)", 50)
    tol: float = netmodel.bounded("[0, inf]", 0.01)
    window: int = netmodel.bounded("[1, inf)", 5)
    beta: float = netmodel.bounded("[0, inf]", GAWRON_BETA)
    alpha: float = netmodel.bounded("[0, 1]", GAWRON_ALPHA)
    max_alternatives: int = netmodel.bounded("[1, inf)", MAX_ALTERNATIVES)

    def __post_init__(self):
        netmodel.check_bounds(self)


# built per trip and route alternative, so without an instance dict
@dataclass(slots=True)
class Alternative:
    route: tuple[str, ...]
    cost: float
    probability: float


@dataclass(slots=True)
class RouteSet:
    """One vehicle's route alternatives; probabilities form a simplex."""

    alternatives: list[Alternative]
    chosen_index: int = 0


@dataclass(frozen=True)
class IterationMetrics:
    iteration: int
    avg_speed: float
    time_loss: float
    avg_travel_time: float


@dataclass
class DuaResult:
    route_sets: dict[str, RouteSet]
    metrics: list[IterationMetrics]
    converged: bool
    final_plans: list[RoutePlan] = field(default_factory=list)
    no_path: list[str] = field(default_factory=list)  # trips left out, unroutable


def _normalise(alternatives: list[Alternative]) -> None:
    """Scale the probabilities to sum to 1, or spread them evenly when
    they sum to 0."""
    total = math.fsum(a.probability for a in alternatives)
    if total > 0:
        for a in alternatives:
            a.probability /= total
    else:
        even = 1.0 / len(alternatives)
        for a in alternatives:
            a.probability = even


def gawron_update(
    rs: RouteSet,
    experienced_cost: float,
    beta: float = GAWRON_BETA,
    alpha: float = GAWRON_ALPHA,
) -> RouteSet:
    """Blend the experienced cost into the chosen route and shift choice
    probability pairwise towards whichever of each pair is now cheaper.

    The update keeps each pair's combined mass, so the simplex is preserved
    up to rounding; a final renormalization removes the rounding.
    """
    if experienced_cost < 0:
        raise ValueError("experienced_cost must be >= 0")
    chosen = rs.alternatives[rs.chosen_index]
    chosen.cost = (1.0 - alpha) * chosen.cost + alpha * experienced_cost
    c_r = chosen.cost
    for i, other in enumerate(rs.alternatives):
        if i == rs.chosen_index:
            continue
        c_s = other.cost
        denom = c_s + c_r
        delta = beta * (c_s - c_r) / denom if denom > 0 else 0.0
        p_r, p_s = chosen.probability, other.probability
        pair = p_r + p_s
        if pair <= 0:
            continue
        p_r_new = p_r * pair / (p_r + p_s * math.exp(-delta))
        # the exchange stays inside the pair mathematically; rounding of
        # the quotient must not push it a last-place unit outside
        p_r_new = min(max(p_r_new, 0.0), pair)
        chosen.probability = p_r_new
        other.probability = pair - p_r_new
    _normalise(rs.alternatives)
    return rs


def convergence_check(
    metrics: list[IterationMetrics], tol: float, window: int
) -> bool:
    """True once the last `window` average travel times agree within tol
    (max pairwise relative deviation); needs that many iterations first."""
    if not metrics:
        raise ValueError("metrics must be nonempty")
    if len(metrics) < window:
        return False
    tail = [m.avg_travel_time for m in metrics[-window:]]
    lo, hi = min(tail), max(tail)
    if lo <= 0:
        return hi == lo
    return (hi - lo) / lo <= tol


def _experienced_cost(
    result, route: tuple[str, ...], net: netmodel.RoadNetwork
) -> float:
    """Travel time actually paid; trips cut off by the end of the run pay
    their time so far plus the free-flow remainder."""
    if result.arrived:
        return result.travel_time
    if result.insert_time is None:
        return netmodel.route_cost(net, route)
    return result.time_in_net + netmodel.route_cost(net, route[result.edges_done:])


def dua_iterate(
    net: netmodel.RoadNetwork,
    trips: list[Trip],
    config: SimConfig,
    params: DuaConfig = DuaConfig(),
    *,
    simulate_final: bool = True,
) -> DuaResult:
    """Simulate, reweigh, and re-choose routes until travel times settle.

    Iteration 0 loads everyone on the free-flow shortest path. Afterwards
    each round simulates the chosen routes with rerouting disabled, folds
    experienced costs into the route sets, derives one new candidate route
    per vehicle from smoothed edge travel times, and samples next choices
    from the updated probabilities.

    The round at the `max_iter` cap ends the loop whatever its simulation
    shows, so `final_plans` are that round's plans as built before it
    runs. With `simulate_final=False` the cap round is not simulated: the
    plans are the same, `metrics` lack its row, and `converged` stays
    False. A run that converges before its cap is unaffected.
    """
    expansion = expand_routes(trips, net)
    route_sets: dict[str, RouteSet] = {}
    for plan in expansion.routes:
        cost = netmodel.route_cost(net, plan.edges)
        route_sets[plan.trip_id] = RouteSet([Alternative(plan.edges, cost, 1.0)])
    departs = {p.trip_id: p.depart for p in expansion.routes}

    # keep assignment runs deterministic and rerouting-free
    sim_cfg = dataclasses.replace(config, rerouting_probability=0.0)

    smooth_cost: dict[str, float] = {
        e.id: netmodel.free_flow_time(e) for e in net.edges.values()
    }
    metrics: list[IterationMetrics] = []
    converged = False
    plans: list[RoutePlan] = []

    for iteration in range(params.max_iter):
        plans = [
            RoutePlan(
                trip_id,
                rs.alternatives[rs.chosen_index].route,
                departs[trip_id],
            )
            for trip_id, rs in sorted(route_sets.items())
        ]
        if not simulate_final and iteration == params.max_iter - 1:
            break
        out = Simulation(net, plans, sim_cfg).run()
        metrics.append(
            IterationMetrics(
                iteration=iteration,
                avg_speed=out.totals["avg_speed"],
                time_loss=out.totals["avg_time_loss"],
                avg_travel_time=out.totals["avg_travel_time"],
            )
        )
        if convergence_check(metrics, params.tol, params.window):
            converged = True
            break
        if iteration == params.max_iter - 1:
            break

        for eid, t in out.edge_mean_time.items():
            smooth_cost[eid] = 0.5 * smooth_cost[eid] + 0.5 * t

        routes = netmodel.CarRoutes(net, lambda edge: smooth_cost[edge.id])
        choice_rng = random.Random(f"{config.seed}/assign/{iteration}")
        for trip_id in sorted(route_sets):
            rs = route_sets[trip_id]
            result = out.vehicles[trip_id]
            gawron_update(
                rs,
                _experienced_cost(result, rs.alternatives[rs.chosen_index].route, net),
                params.beta,
                params.alpha,
            )

            src = rs.alternatives[0].route[0]
            dst = rs.alternatives[0].route[-1]
            candidate = routes.route(src, dst)
            if candidate is not None:
                candidate = tuple(candidate)
                known = {a.route for a in rs.alternatives}
                if candidate not in known:
                    n = len(rs.alternatives) + 1
                    scale = (n - 1) / n
                    for a in rs.alternatives:
                        a.probability *= scale
                    rs.alternatives.append(
                        Alternative(candidate, routes.cost(src, dst), 1.0 / n)
                    )
                    while len(rs.alternatives) > params.max_alternatives:
                        worst = max(
                            range(len(rs.alternatives)),
                            key=lambda i: (rs.alternatives[i].cost, i),
                        )
                        rs.alternatives.pop(worst)
                        _normalise(rs.alternatives)

            weights = [a.probability for a in rs.alternatives]
            rs.chosen_index = choice_rng.choices(
                range(len(rs.alternatives)), weights=weights
            )[0]

    return DuaResult(
        route_sets=route_sets,
        metrics=metrics,
        converged=converged,
        final_plans=plans,
        no_path=expansion.no_path,
    )


def write_metrics_csv(metrics: list[IterationMetrics], path) -> None:
    netmodel.write_csv(path, ("iteration", "avg_speed", "time_loss", "avg_travel_time"), (
        (m.iteration, f"{m.avg_speed:.6f}", f"{m.time_loss:.6f}", f"{m.avg_travel_time:.6f}")
        for m in metrics
    ))
