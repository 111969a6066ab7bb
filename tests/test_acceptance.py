"""Top-level acceptance checks, one per guaranteed property.

Each test states its tolerance and asserts its own wall-clock budget, so a
verbose run reads as a pass/fail line per guarantee: objective and routing
oracles, simulation safety and determinism, route-choice invariants,
equilibrium quality, calibration recovery on a twin experiment, ingestion
and report oracles, and the full command-line pipeline.

The twin tests share one run of the five-stage command-line pipeline on the
seed-7 twin (the `twin_run` fixture, once per module): they read its files,
and the pipeline's wall-clock budget sits on the fixture.
"""

import datetime
import json
import math
import random
import subprocess
import time

import pytest

from trafcal import calibrate, dataio, demandgen, equilibrium, fixtures
from trafcal.calibrate import WINDOWS_PER_DAY, nrmse
from trafcal.equilibrium import Alternative, RouteSet, gawron_update
from trafcal.microsim import (
    Detector,
    SimConfig,
    Simulation,
    write_detector_csv,
)
from trafcal.netmodel import (
    CarRoutes,
    Edge,
    Junction,
    RoadNetwork,
    route_cost,
    shortest_paths_from,
)

import scenarios


class Stopwatch:
    def __init__(self, budget_s):
        self.budget_s = budget_s
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.budget_s, f"took {elapsed:.1f}s, budget {self.budget_s}s"


# -- objective oracle ----------------------------------------------------------


def test_nrmse_unit_oracle():
    clock = Stopwatch(1.0)
    # closed form: sqrt((1+0+1)/3) / mean([1,2,3])
    assert abs(nrmse([1, 2, 3], [2, 2, 2]) - math.sqrt(2.0 / 3.0) / 2.0) <= 1e-9
    assert abs(nrmse([1, 2, 3], [2, 2, 2]) - 0.408248) < 1e-6

    rng = random.Random(1001)
    for _ in range(100):
        xs = [rng.uniform(0.1, 100.0) for _ in range(rng.randint(1, 96))]
        assert nrmse(xs, list(xs)) == 0.0

    for _ in range(100):
        n = rng.randint(1, 96)
        xs = [rng.uniform(0.1, 50.0) for _ in range(n)]
        ys = [rng.uniform(0.0, 50.0) for _ in range(n)]
        k = rng.uniform(0.01, 100.0)
        base = nrmse(xs, ys)
        assert abs(nrmse([k * x for x in xs], [k * y for y in ys]) - base) <= 1e-12 * max(1.0, base)
    clock.check()


# -- routing oracle ------------------------------------------------------------


def bellman_ford(net, src, weight_of):
    """Reference edge-to-edge distances with the same cost convention as
    the router: both endpoints of a route are charged."""
    dist = {src: weight_of[src]}
    for _ in range(len(net.edges)):
        changed = False
        for eid in net.edges:
            if eid not in dist:
                continue
            for succ in net.successors[eid]:
                nd = dist[eid] + weight_of[succ]
                if succ not in dist or nd < dist[succ]:
                    dist[succ] = nd
                    changed = True
        if not changed:
            break
    return dist


def random_graph(rng):
    n_junctions = rng.randint(4, 50)
    junctions = [Junction(f"j{i}", float(i), 0.0) for i in range(n_junctions)]
    n_edges = rng.randint(n_junctions, 200)
    edges = []
    for i in range(n_edges):
        a, b = rng.sample(range(n_junctions), 2)
        edges.append(Edge(f"e{i}", f"j{a}", f"j{b}", 100.0))
    # integer weights keep both algorithms exactly comparable
    weight_of = {e.id: float(rng.randint(1, 20)) for e in edges}
    return RoadNetwork(junctions, edges), weight_of


def test_routing_matches_bellman_ford():
    clock = Stopwatch(5.0)
    rng = random.Random(1002)
    unreachable_seen = 0
    for _ in range(100):
        net, weight_of = random_graph(rng)
        src = rng.choice(sorted(net.edges))
        weight = lambda e: weight_of[e.id]
        dist, pred = shortest_paths_from(net, src, weight_of)
        want = bellman_ford(net, src, weight_of)
        assert dist == want  # exact: integer-valued costs

        routes = CarRoutes(net, weight)
        reachable = sorted(dist)
        for dst in rng.sample(reachable, min(3, len(reachable))):
            route = routes.route(src, dst)
            assert route[0] == src and route[-1] == dst
            assert route_cost(net, route, weight) == routes.cost(src, dst) == want[dst]
        missing = [eid for eid in sorted(net.edges) if eid not in dist]
        if missing:
            unreachable_seen += 1
            assert routes.route(src, missing[0]) is None
            assert routes.cost(src, missing[0]) is None
    assert unreachable_seen > 0  # the fixture set exercises the failure path
    clock.check()


# -- simulation safety ---------------------------------------------------------


def test_simulation_safety_and_conservation():
    clock = Stopwatch(120.0)
    net = fixtures.grid_network()
    total_arrived = 0
    for seed in range(10):
        trips = fixtures.rush_trips(net, n=5000, seed=seed)
        plans = demandgen.expand_routes(trips, net).routes
        inserted = set()
        worst_gap = math.inf
        box_ok = True
        balanced = True

        def probe(sim, now):
            nonlocal worst_gap, box_ok, balanced
            for eid in sim.active_edges:
                cap = net.edges[eid].speed_limit
                for lane in sim.edges[eid].lanes:
                    lead = None
                    for veh in lane:
                        if lead is not None:
                            gap = lead.pos - lead.vtype.length - veh.pos
                            if gap < worst_gap:
                                worst_gap = gap
                        v_max = cap if cap < veh.vtype.max_speed else veh.vtype.max_speed
                        if not 0.0 <= veh.speed <= v_max + 1e-9:
                            box_ok = False
                        lead = veh
            inserted.update(sim.vehicles)
            if len(inserted) != len(sim.results) + len(sim.vehicles):
                balanced = False

        out = Simulation(net, plans, SimConfig(seed=seed)).run(probe=probe)
        assert worst_gap >= 0.0, f"seed {seed}: negative gap {worst_gap}"
        assert box_ok, f"seed {seed}: speed outside [0, v_max]"
        assert balanced, f"seed {seed}: departed != arrived + still_running"
        assert out.totals["departed"] == out.totals["arrived"] + out.totals["still_running"]
        assert out.totals["collisions"] == 0
        assert len(inserted) == out.totals["departed"]
        total_arrived += out.totals["arrived"]
    assert total_arrived > 0
    clock.check()


# -- determinism ---------------------------------------------------------------


def grid_detector_run(seed, csv_path):
    net = fixtures.grid_network()
    trips = fixtures.rush_trips(net, n=500, seed=1)
    plans = demandgen.expand_routes(trips, net).routes
    detectors = [
        Detector("d_mid", "e22_23", 0, 50.0),
        Detector("d_west", "e20_21", 0, 50.0),
    ]
    out = Simulation(net, plans, SimConfig(seed=seed), detectors=detectors).run()
    write_detector_csv(out.detector_counts, out.detector_window, out.begin, csv_path)
    return out


def test_detector_output_determinism(tmp_path):
    clock = Stopwatch(60.0)
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    a = grid_detector_run(42, paths[0])
    b = grid_detector_run(42, paths[1])
    c = grid_detector_run(43, paths[2])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert a.vehicles == b.vehicles and a.totals == b.totals
    assert (
        paths[0].read_bytes() != paths[2].read_bytes()
        or a.vehicles != c.vehicles
        or a.totals != c.totals
    )
    clock.check()


# -- route-choice invariants ----------------------------------------------------


def random_route_set(rng):
    k = rng.randint(2, 5)
    raw = [rng.random() + 1e-6 for _ in range(k)]
    total = sum(raw)
    return RouteSet(
        alternatives=[
            Alternative(route=(f"r{i}",), cost=rng.uniform(1.0, 200.0), probability=x / total)
            for i, x in enumerate(raw)
        ],
        chosen_index=rng.randrange(k),
    )


def test_gawron_simplex_invariants():
    clock = Stopwatch(10.0)
    rng = random.Random(1003)
    pool = [random_route_set(rng) for _ in range(200)]
    for step in range(100_000):
        if rng.random() < 0.3:
            rs = random_route_set(rng)
        else:
            rs = rng.choice(pool)
            rs.chosen_index = rng.randrange(len(rs.alternatives))
        experienced = rng.uniform(0.0, 250.0)

        chosen = rs.alternatives[rs.chosen_index]
        blended = 0.5 * chosen.cost + 0.5 * experienced
        costs = [a.cost for a in rs.alternatives]
        costs[rs.chosen_index] = blended
        cheapest = min(range(len(costs)), key=lambda i: (costs[i], i))
        before = rs.alternatives[cheapest].probability

        gawron_update(rs, experienced)
        scenarios.check_route_set(rs)  # sums to 1 within 1e-9, nothing negative
        assert rs.alternatives[cheapest].probability >= before - 1e-9
    clock.check()


# -- equilibrium quality ---------------------------------------------------------


def test_two_route_equilibrium_quality():
    clock = Stopwatch(60.0)
    net = scenarios.two_route_network()
    trips = scenarios.two_route_trips(n=200)
    # the fixture's stochastic noise sits around 6%, so the settled band
    # is wider than the library default
    result = equilibrium.dua_iterate(
        net, trips, SimConfig(seed=0), equilibrium.DuaConfig(max_iter=50, tol=0.1, window=5)
    )
    assert result.converged
    assert len(result.metrics) <= 50
    upper = sum(1 for p in result.final_plans if "e_up" in p.edges)
    assert 80 <= upper <= 120  # 50/50 within 10% of 200 vehicles
    assert result.metrics[-1].avg_travel_time <= result.metrics[0].avg_travel_time
    clock.check()


# -- the seed-7 twin through the command line ---------------------------------


def cli(*args):
    proc = subprocess.run(["trafcal", *args], capture_output=True, text=True, timeout=840)
    assert proc.returncode == 0, f"trafcal {' '.join(args)}:\n{proc.stderr}"
    return proc


@pytest.fixture(scope="module")
def twin_run(tmp_path_factory):
    """The project directory of one run of the five CLI stages on the
    seed-7 twin, with the sweep's grid and seed from `fixture make`."""
    clock = Stopwatch(900.0)
    root = tmp_path_factory.mktemp("twin")
    project = str(root / "project.json")
    cli("fixture", "make", "--seed", "7", "--output-dir", str(root))
    cli("demand", "generate", "--config", project)
    cli("dua", "iterate", "--config", project)
    cli("calib", "sweep", "--config", project, "--workers", "4")
    proc = cli("report", "validate", "--config", project)
    assert "scenario_nrmse" in proc.stdout
    clock.check()
    return root


# -- calibration recovery --------------------------------------------------------


def test_twin_calibration_recovery(twin_run):
    clock = Stopwatch(5.0)
    best_p, _ = calibrate.read_sweep_best(twin_run / "sweep_best.csv")
    assert abs(best_p - fixtures.TWIN_TRUE_P) <= 0.1  # hidden truth: p = 0.6
    clock.check()


# -- ingestion oracle ------------------------------------------------------------


def test_ingestion_matches_brute_force():
    clock = Stopwatch(5.0)
    rng = random.Random(1004)
    dets = ["L01", "L02", "L03"]
    start = datetime.date(2023, 9, 1)
    dates = [start + datetime.timedelta(days=i) for i in range(30)]
    filt = dataio.IngestionFilter(exclude_dates=frozenset(rng.sample(dates, 4)))

    records = []
    surviving = {det: [] for det in dets}
    for det in dets:
        for date in dates:
            day = [
                dataio.RawMeasurement(det, date, w * 900, rng.randint(0, 60))
                for w in range(WINDOWS_PER_DAY)
            ]
            fault = rng.random()
            if fault < 0.1:
                del day[rng.randrange(len(day))]  # hole in the day
            elif fault < 0.2:
                day.append(dataio.RawMeasurement(det, date, 0, 5))  # duplicate
            elif filt.admits(date):
                surviving[det].append(day)
            records.extend(day)
    assert all(surviving.values())

    result = dataio.ingest(records, filt)
    assert result.days_used == {det: len(surviving[det]) for det in dets}
    for det, counts in result.series.items():
        days = surviving[det]
        for w in range(WINDOWS_PER_DAY):
            mean = math.fsum(day[w].count for day in days) / len(days)
            assert abs(counts[w] - mean) <= 1e-12

    for _ in range(3):
        shuffled = records[:]
        rng.shuffle(shuffled)
        again = dataio.ingest(shuffled, filt)
        assert again.series == result.series
        assert again.days_used == result.days_used
    clock.check()


# -- validation report oracle -----------------------------------------------------


def test_validation_report_oracle():
    clock = Stopwatch(5.0)
    rng = random.Random(1005)
    real = {
        f"L{i}": tuple(rng.uniform(4.0, 40.0) for _ in range(WINDOWS_PER_DAY))
        for i in range(6)
    }
    sim = {
        det: tuple(c * (1.0 + 0.02 * i) for c in counts)
        for i, (det, counts) in enumerate(real.items())
    }
    sim["L3"] = tuple(0.5 * c for c in real["L3"])

    report = dataio.validate(real, sim)
    want = sorted((nrmse(real[det], sim[det]), det) for det in real)
    assert [d.detector_id for d in report.per_detector] == [det for _, det in want]
    assert report.best_detector == want[0][1] == "L0"
    assert report.worst_detector == want[-1][1] == "L3"

    mirror = dataio.validate(real, real)
    assert mirror.scenario_nrmse == 0.0
    assert all(ws.absolute_error == 0.0 and ws.window_nrmse == 0.0 for ws in mirror.per_window)
    assert all(d.nrmse == 0.0 for d in mirror.per_detector)
    clock.check()


# -- full pipeline ----------------------------------------------------------------


def test_end_to_end_pipeline(twin_run):
    clock = Stopwatch(5.0)
    report = json.loads((twin_run / "report.json").read_text())
    assert set(report) == {
        "scenario_nrmse", "per_window", "per_detector",
        "best_detector", "worst_detector",
    }
    assert isinstance(report["scenario_nrmse"], float)
    assert math.isfinite(report["scenario_nrmse"]) and report["scenario_nrmse"] >= 0.0
    assert len(report["per_window"]) == WINDOWS_PER_DAY
    detector_ids = {d["detector_id"] for d in report["per_detector"]}
    assert detector_ids
    assert report["best_detector"] in detector_ids
    assert report["worst_detector"] in detector_ids
    assert (twin_run / "per_window.csv").exists()
    assert (twin_run / "per_detector.csv").exists()
    assert (twin_run / "sweep_best.csv").exists()
    clock.check()


def test_twin_same_seed_oracle(twin_run):
    # the measurements and the sweep simulate with one seed, so the true p
    # reproduces them exactly
    clock = Stopwatch(5.0)
    header, *rows = (twin_run / "sweep.csv").read_text().splitlines()
    assert header == "p,nrmse"
    assert [row.split(",")[0] for row in rows] == [f"{p:.4f}" for p in fixtures.TWIN_GRID.points()]
    assert len(rows) == 21
    assert min(rows, key=lambda row: float(row.split(",")[1])) == "0.6000,0.000000"
    assert (twin_run / "sweep_best.csv").read_text().splitlines() == [
        "best_p,best_nrmse", "0.6000,0.000000",
    ]
    assert json.loads((twin_run / "report.json").read_text())["scenario_nrmse"] == 0.0
    clock.check()
