"""Calibration objective and probability sweep."""

import concurrent.futures
import dataclasses
import math
import random
import re

import pytest

from trafcal import calibrate, dataio, equilibrium, netmodel
from trafcal.calibrate import (
    DetectorMismatchError,
    Evaluator,
    GridSpec,
    LengthMismatchError,
    Run,
    SweepResult,
    ZeroMeanError,
    aggregate_series,
    nrmse,
    read_sweep_best,
    score,
    simulation_key,
    sweep_rerouting_probability,
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
    # a malformed day is refused wherever one can arrive: in a run read
    # from a file, and in a measured day given to `score` or an `Evaluator`
    net, plans, dets, real, cfg = tiny_sweep_inputs()
    Run("k", {}, real)
    malformed = [
        ((1.0, 2.0), "^detector 'd': expected 96 windows, got 2$"),
        (counts((0, -1)), "^detector 'd': counts must be finite and >= 0$"),
        (counts((0, math.nan)), "^detector 'd': counts must be finite and >= 0$"),
        (counts((0, math.inf)), "^detector 'd': counts must be finite and >= 0$"),
    ]
    for day, message in malformed:
        bad = {"d": day}
        with pytest.raises(ValueError, match=message):
            Run("k", {}, bad)
        with pytest.raises(ValueError, match=message):
            score(bad, real)
        with pytest.raises(ValueError, match=message):
            score(real, bad)
        with pytest.raises(ValueError, match=message):
            Evaluator(net, plans, dets, bad, cfg)


def test_aggregate_series_sums_windows():
    agg = aggregate_series({"b": counts((0, 3), (95, 4)), "a": counts((0, 1), (5, 2))})
    assert agg[0] == 4.0 and agg[5] == 2.0 and agg[95] == 4.0
    assert sum(agg) == 10.0
    with pytest.raises(ValueError):
        aggregate_series({})


def measured(out):
    """A simulation's detector counts as a measured day of float counts."""
    return {d: tuple(map(float, c)) for d, c in out.detector_counts.items()}


def test_evaluated_run_orders_by_detector():
    net = scenarios.two_route_network()
    dets = [Detector("z", "e_out", 0, 10.0), Detector("a", "e_in", 0, 10.0)]
    plans = [RoutePlan("v0", ("e_in", "e_dn", "e_out"), 0.0)]
    cfg = SimConfig(end=86400.0)
    real = {d.id: counts((0, 1)) for d in dets}
    run = Evaluator(net, plans, dets, real, cfg).evaluate({})
    assert list(run.counts) == ["a", "z"]
    assert run.counts["a"] == tuple(map(int, counts((0, 1))))
    assert run.key == simulation_key((), cfg)


def test_score_does_not_depend_on_the_order_of_the_series():
    # fractional means, as `ingest` averages days, whose float sum moves
    # with the order of its terms
    rng = random.Random(57)
    real, sim = (
        {d: tuple(rng.randint(1, 40) / 3 for _ in range(96)) for d in "abc"}
        for _ in range(2)
    )
    real_rev, sim_rev = (dict(reversed(day.items())) for day in (real, sim))
    assert list(real_rev) == ["c", "b", "a"]
    # summed in the order the reversed day holds them, the totals differ
    assert [c + b + a for c, b, a in zip(*real_rev.values())] != aggregate_series(real)
    assert aggregate_series(real) == aggregate_series(real_rev)
    assert score(real, sim) == score(real_rev, sim_rev) == score(real_rev, sim)
    assert score(real, sim) == nrmse(aggregate_series(real), aggregate_series(sim))


def test_integer_counts_score_as_their_floats():
    # the sweep and the report score a run's integer counts; summed as
    # ints they must give the bytes of sweep.csv, report.json and
    # per_window.csv that float counts gave
    net, plans, dets, _, cfg = tiny_sweep_inputs()
    dets = dets + [Detector("e", "e_in", 0, 50.0)]
    real = measured(Simulation(net, plans, cfg, detectors=dets).run())
    rng = random.Random(58)
    real = {d: tuple(c + rng.randint(0, 5) / 7 for c in values) for d, values in real.items()}
    run = Evaluator(net, plans, dets, real, cfg).evaluate({"rerouting_probability": 0.5})
    assert all(type(c) is int for values in run.counts.values() for c in values)
    as_floats = {d: tuple(map(float, values)) for d, values in run.counts.items()}
    assert score(real, run.counts) == score(real, as_floats)
    assert dataio.validate(real, run.counts) == dataio.validate(real, as_floats)


def test_a_repeated_detector_is_refused_by_the_sweep_and_the_report(monkeypatch):
    # a day is a mapping, so it cannot repeat a detector and `real + real`
    # cannot be written; what can still repeat is an id in the detector
    # list, which is refused before any simulation
    net, plans, dets, real, cfg = tiny_sweep_inputs()
    repeated = dets + dets

    def no_run(self):
        raise AssertionError("simulated a refused scenario")

    monkeypatch.setattr(Simulation, "run", no_run)
    with pytest.raises(ValueError, match="^detector 'd': duplicate detector id$"):
        Evaluator(net, plans, repeated, real, cfg)
    with pytest.raises(ValueError, match="^detector 'd': duplicate detector id$"):
        sweep_rerouting_probability(
            net, plans, repeated, real, grid=GridSpec(0.0, 0.0, 0.1), base_config=cfg
        )


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
    real = measured(Simulation(net, plans, cfg, detectors=dets).run())
    return net, plans, dets, real, cfg


def test_single_point_sweep():
    net, plans, dets, real, cfg = tiny_sweep_inputs()
    res = sweep_rerouting_probability(
        net, plans, dets, real, grid=GridSpec(0.5, 0.5, 0.1), base_config=cfg
    )
    assert len(res.entries) == len(res.scores) == 1
    assert res.entries[0].theta == {"rerouting_probability": 0.5}
    assert res.best() == (res.entries[0], res.scores[0])


def test_sweep_scores_truth_seed_at_zero():
    # ground truth was produced at p=0 with the same seed, so that grid
    # point reproduces it bit for bit
    net, plans, dets, real, cfg = tiny_sweep_inputs()
    res = sweep_rerouting_probability(
        net, plans, dets, real, grid=GridSpec(0.0, 1.0, 0.5), base_config=cfg
    )
    assert [run.theta["rerouting_probability"] for run in res.entries] == [0.0, 0.5, 1.0]
    assert res.scores[0] == 0.0
    assert res.best() == (res.entries[0], 0.0)
    assert res.entries[0].counts == real  # the best point's run is the truth's


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
    real = measured(Simulation(net, plans, scored, detectors=dets).run())

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
    stray = {"other": counts((0, 1))}
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
            net, plans, [], {}, grid=GridSpec(0.5, 0.5, 0.1), base_config=cfg
        )


def test_evaluators_in_one_process_keep_their_own_inputs(pool_widths):
    # the worker's evaluator is module state: a pool must run the points of
    # the evaluator that built it, not those of the last one built
    net, plans, dets, real, cfg = tiny_sweep_inputs()
    other_plans = plans[::2]
    other_real = measured(Simulation(net, other_plans, cfg, detectors=dets).run())
    first = Evaluator(net, plans, dets, real, cfg)
    second = Evaluator(net, other_plans, dets, other_real, dataclasses.replace(cfg, seed=6))
    thetas = [{"rerouting_probability": p} for p in (0.0, 0.5, 1.0)]
    serial = [first.evaluate_all(thetas, 1), second.evaluate_all(thetas, 1)]
    assert all(a.counts != b.counts for a, b in zip(*serial))
    pooled = [first.evaluate_all(thetas, 2), second.evaluate_all(thetas, 2)]
    assert pooled == serial
    # and the first again, after the second's pool set the worker global
    assert first.evaluate_all(thetas, 2) == serial[0]
    assert pool_widths == [2, 2, 2]


# -- files -------------------------------------------------------------------


def test_sweep_csv_round_trip(tmp_path):
    entries = [Run("k0", {"rerouting_probability": 0.0}, {}),
               Run("k1", {"rerouting_probability": 0.05}, {})]
    res = SweepResult(entries, [0.25, 0.125])
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


def test_swept_run_round_trip(tmp_path):
    by_id = {"b": tuple(map(int, counts((3, 2)))), "a": tuple(map(int, counts((0, 1))))}
    kept = [Run(str(i) * 64, {"rerouting_probability": p}, by_id) for i, p in enumerate((0.25, 0.5))]
    path = tmp_path / "sweep_series.json"
    netmodel.write_records(kept, path, "runs")
    assert netmodel.read_records(path, "runs", Run, ValueError) == kept
    doc = '{"runs": [{"key": "k", "theta": {"rerouting_probability": 1}, "counts": {"a": %s}}]}'
    path.write_text(doc % ([1.5] + [0] * 95))
    with pytest.raises(ValueError, match=re.escape(
        f"{path}: runs[0]: field 'counts.a[0]' has wrong type"
    )):
        netmodel.read_records(path, "runs", Run, ValueError)
    path.write_text(doc % [1])
    with pytest.raises(ValueError, match=re.escape(
        f"{path}: runs[0]: detector 'a': expected 96 windows, got 1"
    )):
        netmodel.read_records(path, "runs", Run, ValueError)


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
