"""Route assignment: probability updates, convergence, the full loop."""

import copy
import math
import pickle
import random

import pytest

from trafcal import equilibrium
from trafcal.demandgen import Trip, expand_routes
from trafcal.equilibrium import (
    Alternative,
    DuaConfig,
    IterationMetrics,
    RouteSet,
    convergence_check,
    dua_iterate,
    gawron_update,
    write_metrics_csv,
)
from trafcal.microsim import RoutePlan, SimConfig, VehicleResult

import scenarios


def route_set(costs, probs, chosen=0):
    return RouteSet(
        [Alternative((f"e{i}",), c, p) for i, (c, p) in enumerate(zip(costs, probs))],
        chosen_index=chosen,
    )


def metrics_of(travel_times):
    return [
        IterationMetrics(i, 10.0, 5.0, tt) for i, tt in enumerate(travel_times)
    ]


# -- the pairwise update -----------------------------------------------------


def test_gawron_two_routes_frozen():
    rs = route_set([100.0, 100.0], [0.5, 0.5])
    gawron_update(rs, 50.0, beta=0.9, alpha=0.5)
    # blended cost 0.5*100 + 0.5*50 = 75, then a sigmoid shift of the pair
    assert rs.alternatives[0].cost == 75.0
    delta = 0.9 * (100.0 - 75.0) / 175.0
    want = 0.5 / (0.5 + 0.5 * math.exp(-delta))
    assert abs(rs.alternatives[0].probability - want) < 1e-12
    assert abs(rs.alternatives[1].probability - (1.0 - want)) < 1e-12


def test_gawron_equal_costs_keep_probabilities():
    rs = route_set([80.0, 80.0], [0.3, 0.7])
    gawron_update(rs, 80.0, alpha=0.5)
    assert abs(rs.alternatives[0].probability - 0.3) < 1e-12
    assert abs(rs.alternatives[1].probability - 0.7) < 1e-12


def test_gawron_matches_stated_formulas():
    # reference: blend the chosen cost, then shift each pair in index order
    def reference(costs, probs, chosen, experienced, beta, alpha):
        costs = list(costs)
        probs = list(probs)
        costs[chosen] = (1 - alpha) * costs[chosen] + alpha * experienced
        c_r = costs[chosen]
        for i in range(len(costs)):
            if i == chosen:
                continue
            denom = costs[i] + c_r
            delta = beta * (costs[i] - c_r) / denom if denom > 0 else 0.0
            pair = probs[chosen] + probs[i]
            if pair <= 0:
                continue
            p_r = probs[chosen] * pair / (probs[chosen] + probs[i] * math.exp(-delta))
            probs[chosen], probs[i] = p_r, pair - p_r
        total = math.fsum(probs)
        return costs, [p / total for p in probs]

    rng = random.Random(77)
    for _ in range(300):
        k = rng.randint(2, 5)
        costs = [rng.uniform(0.0, 500.0) for _ in range(k)]
        raw = [rng.random() for _ in range(k)]
        probs = [x / sum(raw) for x in raw]
        chosen = rng.randrange(k)
        exp_cost = rng.uniform(0.0, 500.0)
        beta = rng.uniform(0.1, 1.0)
        alpha = rng.uniform(0.1, 1.0)
        want_costs, want_probs = reference(costs, probs, chosen, exp_cost, beta, alpha)
        rs = route_set(costs, probs, chosen)
        gawron_update(rs, exp_cost, beta, alpha)
        for a, wc, wp in zip(rs.alternatives, want_costs, want_probs):
            assert abs(a.cost - wc) < 1e-9
            assert abs(a.probability - wp) < 1e-9


def test_gawron_simplex_preserved():
    rng = random.Random(78)
    for _ in range(5000):
        k = rng.randint(2, 5)
        costs = [rng.uniform(0.0, 400.0) for _ in range(k)]
        raw = [rng.random() for _ in range(k)]
        probs = [x / sum(raw) for x in raw]
        rs = route_set(costs, probs, rng.randrange(k))
        gawron_update(rs, rng.uniform(0.0, 400.0))
        scenarios.check_route_set(rs)


def test_gawron_mass_moves_to_cheaper_route():
    rng = random.Random(79)
    for _ in range(2000):
        costs = [rng.uniform(1.0, 400.0), rng.uniform(1.0, 400.0)]
        p = rng.uniform(0.05, 0.95)
        rs = route_set(costs, [p, 1.0 - p], chosen=0)
        exp_cost = rng.uniform(0.0, 400.0)
        gawron_update(rs, exp_cost)
        blended = rs.alternatives[0].cost
        if blended < costs[1]:
            assert rs.alternatives[0].probability >= p - 1e-12
        elif blended > costs[1]:
            assert rs.alternatives[0].probability <= p + 1e-12


def test_gawron_rejects_negative_cost():
    with pytest.raises(ValueError):
        gawron_update(route_set([1.0, 1.0], [0.5, 0.5]), -1.0)


# -- convergence test --------------------------------------------------------


def test_convergence_needs_full_window():
    assert not convergence_check(metrics_of([100.0, 100.0]), 0.1, 3)


def test_convergence_relative_band():
    assert convergence_check(metrics_of([120.0, 100.0, 101.0, 100.5]), 0.02, 3)
    assert not convergence_check(metrics_of([120.0, 100.0, 101.0, 100.5]), 0.005, 3)


def test_convergence_accepts_a_stable_tail_at_zero_tol():
    # equal averages agree within any tol, 0 included
    assert convergence_check(metrics_of([120.0, 100.0, 100.0]), 0.0, 2)
    assert not convergence_check(metrics_of([100.0, 100.0 + 1e-9]), 0.0, 2)
    assert convergence_check(metrics_of([100.0, 102.0]), 0.02, 2)


def test_convergence_zero_floor():
    assert convergence_check(metrics_of([0.0, 0.0]), 0.1, 2)
    assert not convergence_check(metrics_of([0.0, 1.0]), 0.1, 2)


def test_convergence_empty_rejected():
    with pytest.raises(ValueError):
        convergence_check([], 0.1, 3)


# -- per-trip records ---------------------------------------------------------


@pytest.mark.parametrize("record", [
    RoutePlan("t", ("e0", "e1"), 60.0),
    Trip("t", 60.0, "e0", "e1", "work"),
    VehicleResult("t", False, 60.0, 61.0, None, 2.5, 40.0, 1, True, 30.0, 1),
    Alternative(("e0", "e1"), 12.5, 0.25),
    RouteSet([Alternative(("e0",), 1.0, 0.5), Alternative(("e1",), 2.0, 0.5)], 1),
], ids=lambda record: type(record).__name__)
def test_per_trip_records_have_no_instance_dict(record):
    # one of each is built per trip or per route alternative, so an
    # instance dict would grow memory with both
    assert not hasattr(record, "__dict__")
    # the sweep pool pickles its evaluator's plans under spawn and forkserver
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is type(record)
        assert copied == record


# -- assignment settings -----------------------------------------------------


def test_dua_config_ranges():
    # each field's range is checked by test_netmodel's table of bounded fields
    assert DuaConfig() == DuaConfig(50, 0.01, 5, equilibrium.GAWRON_BETA,
                                    equilibrium.GAWRON_ALPHA, equilibrium.MAX_ALTERNATIVES)


# -- experienced cost fallbacks ----------------------------------------------


def result(**kw):
    base = dict(
        trip_id="t", arrived=True, depart=0.0, insert_time=0.0,
        travel_time=100.0, time_loss=5.0, distance=1000.0, teleports=0,
        equipped=False, time_in_net=100.0, edges_done=2,
    )
    base.update(kw)
    return VehicleResult(**base)


def test_experienced_cost_paths():
    net = scenarios.two_route_network()
    route = ("e_in", "e_dn", "e_out")
    # arrived: pay the actual travel time
    assert equilibrium._experienced_cost(result(), route, net) == 100.0
    # never inserted: pay the free-flow route cost
    ff = equilibrium._experienced_cost(
        result(arrived=False, insert_time=None, travel_time=None), route, net
    )
    want = sum(
        net.edges[e].length / net.edges[e].speed_limit for e in route
    )
    assert abs(ff - want) < 1e-9
    # cut off mid-run: time so far plus free-flow remainder
    cut = equilibrium._experienced_cost(
        result(arrived=False, travel_time=None, time_in_net=40.0, edges_done=1),
        route,
        net,
    )
    rest = sum(net.edges[e].length / net.edges[e].speed_limit for e in route[1:])
    assert abs(cut - (40.0 + rest)) < 1e-9


# -- the assignment loop -----------------------------------------------------


def two_route_result(seed, max_iter=50, **kw):
    net = scenarios.two_route_network()
    trips = scenarios.two_route_trips(n=200, interval=1.0)
    cfg = SimConfig(end=3600.0, step_length=1.0, seed=seed)
    params = DuaConfig(max_iter=max_iter, tol=0.1, window=5)
    return dua_iterate(net, trips, cfg, params, **kw)


def test_two_route_assignment_balances():
    res = two_route_result(seed=0)
    assert res.converged
    assert len(res.metrics) <= 50
    dn = sum(1 for p in res.final_plans if "e_dn" in p.edges)
    up = sum(1 for p in res.final_plans if "e_up" in p.edges)
    assert dn + up == 200
    assert 80 <= dn <= 120
    assert res.metrics[-1].avg_travel_time <= res.metrics[0].avg_travel_time
    for rs in res.route_sets.values():
        scenarios.check_route_set(rs)
        assert len(rs.alternatives) <= equilibrium.MAX_ALTERNATIVES


def test_assignment_deterministic():
    a = two_route_result(seed=3)
    b = two_route_result(seed=3)
    assert a.metrics == b.metrics
    assert [p.edges for p in a.final_plans] == [p.edges for p in b.final_plans]
    c = two_route_result(seed=4)
    assert a.metrics != c.metrics


@pytest.mark.parametrize("max_iter", [1, 3])
def test_capped_run_can_skip_its_final_simulation(sim_runs, max_iter):
    # the cap round ends the loop whatever it shows, so skipping its
    # simulation leaves the routes as they are and drops only its row
    full = two_route_result(0, max_iter)
    assert len(sim_runs) == max_iter and not full.converged
    sim_runs.clear()
    short = two_route_result(0, max_iter, simulate_final=False)
    assert len(sim_runs) == max_iter - 1
    assert short.final_plans == full.final_plans
    assert short.route_sets == full.route_sets
    assert short.metrics == full.metrics[:-1]
    assert not short.converged
    if max_iter == 1:
        free_flow = expand_routes(
            scenarios.two_route_trips(n=200, interval=1.0),
            scenarios.two_route_network(),
        ).routes
        assert short.final_plans == sorted(free_flow, key=lambda p: p.trip_id)


def test_converging_run_ignores_simulate_final(sim_runs):
    full = two_route_result(0)
    full_runs = len(sim_runs)
    sim_runs.clear()
    short = two_route_result(0, simulate_final=False)
    assert full.converged and len(full.metrics) < 50
    assert short == full
    assert len(sim_runs) == full_runs == len(full.metrics)


# -- metrics file ------------------------------------------------------------


def test_metrics_csv(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(metrics_of([100.0, 90.0]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,avg_speed,time_loss,avg_travel_time"
    assert lines[1] == "0,10.000000,5.000000,100.000000"
    assert lines[2] == "1,10.000000,5.000000,90.000000"
