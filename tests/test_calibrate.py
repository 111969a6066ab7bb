"""Calibration objective and probability sweep."""

import concurrent.futures
import dataclasses
import math
import random
import re

import pytest

from trafcal import calibrate, equilibrium
from trafcal.calibrate import (
    DetectorMismatchError,
    DetectorSeries,
    Evaluator,
    GridSpec,
    LengthMismatchError,
    Run,
    SweepResult,
    ZeroMeanError,
    aggregate_series,
    nrmse,
    read_best_series,
    read_sweep_best,
    sim_series,
    simulation_key,
    sweep_rerouting_probability,
    write_best_series,
    write_sweep_best,
    write_sweep_csv,
)
from trafcal.microsim import Detector, RoutePlan, SimConfig, Simulation
from trafcal.microsim.carfollow import BUS, CAR

import scenarios


# -- the objective -----------------------------------------------------------


def test_nrmse_frozen_value():
    # sqrt((1 + 0 + 1) / 3) / mean([1,2,3])
    assert abs(nrmse([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) - 0.408248) < 1e-6
    assert abs(nrmse([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) - math.sqrt(2.0 / 3.0) / 2.0) < 1e-12


def test_nrmse_identity():
    rng = random.Random(55)
    for _ in range(100):
        xs = [rng.uniform(0.1, 50.0) for _ in range(rng.randint(1, 96))]
        assert nrmse(xs, list(xs)) == 0.0


def test_nrmse_scale_covariant():
    rng = random.Random(56)
    for _ in range(100):
        n = rng.randint(1, 96)
        xs = [rng.uniform(0.1, 50.0) for _ in range(n)]
        ys = [rng.uniform(0.0, 50.0) for _ in range(n)]
        k = rng.uniform(0.01, 100.0)
        base = nrmse(xs, ys)
        scaled = nrmse([k * x for x in xs], [k * y for y in ys])
        assert abs(scaled - base) <= 1e-12 * max(1.0, base)


def test_nrmse_errors():
    with pytest.raises(LengthMismatchError):
        nrmse([1.0, 2.0], [1.0])
    with pytest.raises(LengthMismatchError):
        nrmse([], [])
    with pytest.raises(ZeroMeanError):
        nrmse([0.0, 0.0], [1.0, 1.0])


# -- series plumbing ---------------------------------------------------------


def counts(*pairs):
    xs = [0.0] * 96
    for i, v in pairs:
        xs[i] = float(v)
    return tuple(xs)


def test_detector_series_validated():
    DetectorSeries("d", counts((0, 1)))
    with pytest.raises(ValueError):
        DetectorSeries("d", (1.0, 2.0))  # not 96 windows
    with pytest.raises(ValueError):
        DetectorSeries("d", counts((0, -1)))


def test_aggregate_series_sums_windows():
    a = DetectorSeries("a", counts((0, 1), (5, 2)))
    b = DetectorSeries("b", counts((0, 3), (95, 4)))
    agg = aggregate_series([a, b])
    assert agg[0] == 4.0 and agg[5] == 2.0 and agg[95] == 4.0
    assert sum(agg) == 10.0
    with pytest.raises(ValueError):
        aggregate_series([])


def test_sim_series_orders_by_detector():
    net = scenarios.two_route_network()
    dets = [Detector("z", "e_out", 0, 10.0), Detector("a", "e_in", 0, 10.0)]
    plans = [RoutePlan("v0", ("e_in", "e_dn", "e_out"), 0.0)]
    out = Simulation(net, plans, SimConfig(end=86400.0), detectors=dets).run()
    series = sim_series(out)
    assert [s.detector_id for s in series] == ["a", "z"]
    assert sum(series[0].counts) == 1.0


# -- the grid ----------------------------------------------------------------


def test_grid_default_has_101_points():
    pts = GridSpec().points()
    assert len(pts) == 101
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert abs(pts[37] - 0.37) < 1e-12


def test_grid_coarse_and_degenerate():
    assert GridSpec(0.0, 1.0, 0.05).points() == [
        round(0.05 * i, 10) for i in range(21)
    ]
    assert GridSpec(0.5, 0.5, 0.05).points() == [0.5]
    with pytest.raises(ValueError):
        GridSpec(step=0.0)
    with pytest.raises(ValueError):
        GridSpec(p_min=0.8, p_max=0.2)


def test_grid_finer_than_the_written_decimals_is_rejected():
    # sweep.csv writes p with 4 decimals, so 5e-05, 0.0001 and 0.00015
    # would all be written as 0.0001
    with pytest.raises(ValueError, match="step must be >= 0.0001.*4 decimals"):
        GridSpec(0.0, 0.001, 0.00005)
    # 5e-05 and 0.00015 would both be written as 0.0001
    with pytest.raises(ValueError, match="p_min must be a multiple of 0.0001.*4 decimals"):
        GridSpec(0.00005, 0.001, 0.0001)
    with pytest.raises(ValueError, match="step must be a multiple of 0.0001.*4 decimals"):
        GridSpec(0.0, 0.001, 0.00015)
    assert len(GridSpec(0.0, 0.001, 0.0001).points()) == 11
    for grid in (GridSpec(), GridSpec(0.0, 0.9, 0.3), GridSpec(0.0001, 1.0, 0.0333)):
        assert [float(f"{p:.4f}") for p in grid.points()] == grid.points()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["p_min", "p_max", "step"])
def test_grid_values_must_be_finite(key, value):
    # checked before any arithmetic: round() of a NaN or an infinity would
    # raise an error that names no field, or an OverflowError
    interval = re.escape("[0, 1]" if key != "step" else "(0, inf)")
    with pytest.raises(ValueError, match=f"^{key} must be in {interval}, got {value}$"):
        GridSpec(**{key: value})


# -- the sweep ---------------------------------------------------------------


def tiny_sweep_inputs():
    net = scenarios.two_route_network()
    plans = [
        RoutePlan(f"v{i:03d}", ("e_in", "e_dn", "e_out"), float(i)) for i in range(30)
    ]
    dets = [Detector("d", "e_out", 0, 50.0)]
    cfg = SimConfig(end=86400.0, seed=5)
    truth = Simulation(net, plans, cfg, detectors=dets).run()
    real = sim_series(truth)
    return net, plans, dets, real, cfg


def test_single_point_sweep():
    net, plans, dets, real, cfg = tiny_sweep_inputs()
    res = sweep_rerouting_probability(
        net, plans, dets, real, grid=GridSpec(0.5, 0.5, 0.1), base_config=cfg
    )
    assert len(res.entries) == 1
    assert res.best.theta == {"rerouting_probability": 0.5}
    assert res.entries == [res.best]


def test_sweep_scores_truth_seed_at_zero():
    # ground truth was produced at p=0 with the same seed, so that grid
    # point reproduces it bit for bit
    net, plans, dets, real, cfg = tiny_sweep_inputs()
    res = sweep_rerouting_probability(
        net, plans, dets, real, grid=GridSpec(0.0, 1.0, 0.5), base_config=cfg
    )
    assert [run.theta["rerouting_probability"] for run in res.entries] == [0.0, 0.5, 1.0]
    assert res.entries[0].nrmse == 0.0
    assert res.best == res.entries[0]
    assert res.best.series == real  # the best point's run is the truth's


def test_sweep_and_dua_keep_every_base_field(monkeypatch):
    # every field differs from its default, so a field that a derived run
    # rebuilds instead of copying shows up as a mismatch; the scored runs
    # must be the measured day, so only their begin and end keep the defaults
    base = SimConfig(
        begin=10.0, end=86410.0, step_length=0.5, ignore_junction_blocker=20.0,
        time_to_teleport=250.0, rerouting_probability=0.3, rerouting_period=120.0,
        speed_smoothing=0.25, car=dataclasses.replace(CAR, sigma=0.3),
        bus=dataclasses.replace(BUS, length=10.0), seed=9,
    )
    default = SimConfig()
    for f in dataclasses.fields(SimConfig):
        assert getattr(base, f.name) != getattr(default, f.name), f.name
    scored = dataclasses.replace(base, begin=default.begin, end=default.end)

    net = scenarios.two_route_network()
    plans = [RoutePlan(f"v{i:03d}", ("e_in", "e_dn", "e_out"), 10.0 + i) for i in range(10)]
    dets = [Detector("d", "e_out", 0, 50.0)]
    real = sim_series(Simulation(net, plans, scored, detectors=dets).run())

    seen = []

    class Capturing(Simulation):
        def __init__(self, net, plans, config, *args, **kwargs):
            seen.append(config)
            super().__init__(net, plans, config, *args, **kwargs)

    monkeypatch.setattr(calibrate, "Simulation", Capturing)
    monkeypatch.setattr(equilibrium, "Simulation", Capturing)
    sweep_rerouting_probability(
        net, plans, dets, real, grid=GridSpec(0.7, 0.7, 0.1), base_config=scored
    )
    assert seen == [dataclasses.replace(scored, rerouting_probability=0.7)]

    seen.clear()
    theta = {"rerouting_probability": 0.2, "rerouting_period": 60.0}
    Evaluator(net, plans, dets, real, scored).evaluate(theta)
    assert seen == [dataclasses.replace(scored, **theta)]

    seen.clear()
    trips = scenarios.two_route_trips(n=10, begin=10.0)
    equilibrium.dua_iterate(net, trips, base, equilibrium.DuaConfig(max_iter=1))
    assert seen == [dataclasses.replace(base, rerouting_probability=0.0)]


@pytest.fixture
def pool_widths(monkeypatch):
    """The width of each process pool the sweep builds; the pools run
    their points in this process."""
    widths = []

    class RecordingPool:
        """Runs the points in this process and records the pool's width."""

        def __init__(self, max_workers, initializer, initargs):
            widths.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, points):
            return map(fn, points)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(calibrate, "_worker_evaluator", None)
    return widths


def test_sweep_pool_is_no_wider_than_its_grid(pool_widths):
    # a fork pool starts all its processes at once: 16 workers on a
    # 3-point grid would fork 13 that never get a point
    net, plans, dets, real, cfg = tiny_sweep_inputs()
    grid = GridSpec(0.0, 1.0, 0.5)
    serial = sweep_rerouting_probability(net, plans, dets, real, grid, base_config=cfg)
    pooled = sweep_rerouting_probability(net, plans, dets, real, grid, base_config=cfg, workers=16)
    assert pool_widths == [3]
    assert pooled == serial
    # one point needs no pool at all
    sweep_rerouting_probability(
        net, plans, dets, real, GridSpec(0.5, 0.5, 0.1), base_config=cfg, workers=16
    )
    assert pool_widths == [3]


@pytest.mark.parametrize("bad, message", [
    ("trip", "trip 'v000': duplicate trip id"),
    ("detector", "detector 'd': unknown edge 'nowhere'"),
])
def test_sweep_refuses_a_scenario_before_any_pool(pool_widths, bad, message):
    # each worker would refuse it again, as `simulation failed at {...}`
    net, plans, dets, real, cfg = tiny_sweep_inputs()
    if bad == "trip":
        plans = plans + plans[:1]
    else:
        dets = [Detector("d", "nowhere", 0, 50.0)]
    with pytest.raises(ValueError) as caught:
        sweep_rerouting_probability(
            net, plans, dets, real, GridSpec(0.0, 1.0, 0.5), base_config=cfg, workers=16
        )
    assert str(caught.value) == message
    assert pool_widths == []


def test_sweep_checks_detector_ids():
    net, plans, dets, real, cfg = tiny_sweep_inputs()
    stray = [DetectorSeries("other", counts((0, 1)))]
    with pytest.raises(DetectorMismatchError) as caught:
        sweep_rerouting_probability(
            net, plans, dets, stray, grid=GridSpec(0.5, 0.5, 0.1), base_config=cfg
        )
    assert (caught.value.missing, caught.value.extra) == (["other"], ["d"])
    with pytest.raises(DetectorMismatchError):
        sweep_rerouting_probability(
            net, plans, [], real, grid=GridSpec(0.5, 0.5, 0.1), base_config=cfg
        )
    with pytest.raises(ValueError, match="^scoring needs at least one detector$"):
        sweep_rerouting_probability(
            net, plans, [], [], grid=GridSpec(0.5, 0.5, 0.1), base_config=cfg
        )


def test_evaluators_in_one_process_keep_their_own_inputs(pool_widths):
    # the worker's evaluator is module state: a pool must run the points of
    # the evaluator that built it, not those of the last one built
    net, plans, dets, real, cfg = tiny_sweep_inputs()
    other_plans = plans[::2]
    other_real = sim_series(Simulation(net, other_plans, cfg, detectors=dets).run())
    first = Evaluator(net, plans, dets, real, cfg)
    second = Evaluator(net, other_plans, dets, other_real, dataclasses.replace(cfg, seed=6))
    thetas = [{"rerouting_probability": p} for p in (0.0, 0.5, 1.0)]
    serial = [first.evaluate_all(thetas, 1), second.evaluate_all(thetas, 1)]
    assert all(a.series != b.series for a, b in zip(*serial))
    pooled = [first.evaluate_all(thetas, 2), second.evaluate_all(thetas, 2)]
    assert pooled == serial
    # and the first again, after the second's pool set the worker global
    assert first.evaluate_all(thetas, 2) == serial[0]
    assert pool_widths == [2, 2, 2]


# -- files -------------------------------------------------------------------


def test_sweep_csv_round_trip(tmp_path):
    entries = [Run({"rerouting_probability": 0.0}, 0.25, []),
               Run({"rerouting_probability": 0.05}, 0.125, [])]
    res = SweepResult(entries, best=entries[1])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,nrmse"
    assert lines[1:] == ["0.0000,0.250000", "0.0500,0.125000"]

    best = tmp_path / "best.csv"
    write_sweep_best(res, best)
    assert best.read_text().splitlines() == ["best_p,best_nrmse", "0.0500,0.125000"]
    assert read_sweep_best(best) == (0.05, 0.125)


def test_sweep_csv_bad_header(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("probability,value\n0.1,0.2\n")
    with pytest.raises(ValueError, match="bad header"):
        read_sweep_best(path)
    path.write_text("best_p,best_nrmse\n")
    with pytest.raises(ValueError, match="expected one summary row, found 0"):
        read_sweep_best(path)


def test_best_series_round_trip(tmp_path):
    series = [DetectorSeries("b", counts((3, 2))), DetectorSeries("a", counts((0, 1)))]
    best = Run({"rerouting_probability": 0.25}, 0.5, series)
    res = SweepResult([best], best)
    path = tmp_path / "best.json"
    write_best_series(res, "k" * 64, path)
    assert read_best_series(path) == ("k" * 64, sorted(series, key=lambda s: s.detector_id))
    path.write_text('{"inputs": "k", "p": 1, "counts": {"a": [1.5]}}')
    with pytest.raises(ValueError, match=re.escape(
        f"{path}: top level: field 'counts.a[0]' has wrong type"
    )):
        read_best_series(path)


def test_simulation_key_covers_files_and_every_setting(tmp_path):
    net, routes = tmp_path / "net.json", tmp_path / "routes.json"
    net.write_text('{"edges": []}')
    routes.write_text("{}")
    cfg = SimConfig(seed=3, rerouting_probability=0.3)
    key = simulation_key((net, routes, None), cfg)
    assert key == simulation_key((net, routes, None), SimConfig(seed=3, rerouting_probability=0.3))
    others = [
        simulation_key((net, routes), cfg),
        simulation_key((routes, net, None), cfg),
        simulation_key((net, routes, routes), cfg),
        simulation_key((net, routes, None), dataclasses.replace(cfg, seed=4)),
        simulation_key((net, routes, None), dataclasses.replace(cfg, rerouting_probability=0.3 + 1e-12)),
        simulation_key((net, routes, None), dataclasses.replace(cfg, end=86399.0)),
        simulation_key((net, routes, None), dataclasses.replace(
            cfg, car=dataclasses.replace(CAR, sigma=0.25))),
        simulation_key((net, routes, None), dataclasses.replace(
            cfg, bus=dataclasses.replace(BUS, length=10.0))),
    ]
    routes.write_text("{} ")
    others.append(simulation_key((net, routes, None), cfg))
    assert len({key, *others}) == len(others) + 1


def test_simulation_key_covers_the_package_source(tmp_path, monkeypatch):
    pkg = tmp_path / "pkg"
    (pkg / "microsim").mkdir(parents=True)
    engine = pkg / "microsim" / "engine.py"
    engine.write_text("STEP = 1\n")
    monkeypatch.setattr(calibrate, "__file__", str(pkg / "calibrate.py"))
    key = simulation_key((), SimConfig())
    engine.write_text("STEP = 2\n")
    assert simulation_key((), SimConfig()) != key
