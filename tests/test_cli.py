"""Command-line pipeline: exit codes, produced files, config handling."""

import argparse
import dataclasses
import datetime
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from trafcal import cli, dataio, demandgen, equilibrium, fixtures, netmodel
from trafcal.demandgen import (
    AGE_BRACKETS,
    DemandConfig,
    DistrictStats,
    Statistics,
    WorkHours,
    read_trips,
    save_statistics,
)
from trafcal.microsim import (
    BusLine,
    Detector,
    RoutePlan,
    SimConfig,
    Simulation,
    load_route_plans,
    save_bus_lines,
    save_detectors,
    save_route_plans,
)
from trafcal.microsim.carfollow import BUS, CAR
from trafcal.microsim.simio import check_scenario
from trafcal.netmodel import (
    Edge,
    Junction,
    RoadNetwork,
    load_network,
    save_network,
)

import scenarios

H = 3600.0
TUESDAY = datetime.date(2023, 9, 5)


def two_way_chain():
    junctions = [
        Junction(f"a{i}", 100.0 * i, 0.0, kind="dead_end" if i in (0, 3) else "plain")
        for i in range(4)
    ]
    edges = [Edge(f"e{i}", f"a{i}", f"a{i+1}", 100.0) for i in range(3)]
    edges += [Edge(f"r{i}", f"a{i+1}", f"a{i}", 100.0) for i in range(3)]
    return RoadNetwork(junctions, edges)


def age_counts(n):
    out = [0] * len(AGE_BRACKETS)
    out[[b[0] for b in AGE_BRACKETS].index(30)] = n
    return tuple(out)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A tiny but complete project: network, statistics, routes, detectors,
    and one Tuesday of measurements taken from a default-config run."""
    root = tmp_path_factory.mktemp("cli_ws")
    net = two_way_chain()
    save_network(net, root / "net.json")

    home = DistrictStats(
        id="d_home", edge_ids=("e0",), inhabitants=20, workers=8, work_positions=0,
        age_brackets=age_counts(20),
    )
    work = DistrictStats(
        id="d_work", edge_ids=("e2",), inhabitants=0, workers=0, work_positions=10,
        age_brackets=age_counts(0),
    )
    demand = DemandConfig(
        car_rate=1.0, car_preference_rate=0.5, incoming_total=0,
        outgoing_total=0, work_hours=(WorkHours(8 * H, 17 * H, 1.0),),
    )
    save_statistics(Statistics(districts=(home, work), config=demand), root / "statistics.json")

    plans = [RoutePlan(f"t{i:02d}", ("e0", "e1", "e2"), 60.0 * (i + 1)) for i in range(12)]
    save_route_plans(plans, root / "routes.json")
    detectors = [Detector("det_mid", "e2", 0, 50.0)]
    save_detectors(detectors, root / "detectors.json")

    # ground truth with the same defaults the CLI resolves to (seed 0, p 0)
    out = Simulation(net, plans, SimConfig(), detectors).run()
    records = [
        dataio.RawMeasurement(det_id, TUESDAY, i * 900, count)
        for det_id, counts in sorted(out.detector_counts.items())
        for i, count in enumerate(counts)
    ]
    dataio.write_measurements_csv(records, root / "measurements.csv")
    return root


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(args):
    return cli.main([str(a) for a in args])


def write_one_trip(path):
    """A trips file for the `ws` network: one trip along the chain."""
    demandgen.write_trips([demandgen.Trip("t0", 60.0, "e0", "e2", "work")], path)


# -- exit codes ----------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(group in out for group in cli._GROUPS)


def test_usage_errors_exit_two(ws, tmp_path, capsys):
    assert run([]) == 2  # no subcommand
    assert run(["net", "validate", "--no-such-flag"]) == 2
    assert run(["net", "validate"]) == 2  # --network neither given nor in config
    capsys.readouterr()
    assert run(["report", "validate",
                "--network", ws / "net.json",
                "--routes", ws / "routes.json",
                "--detectors", ws / "detectors.json",
                "--measurements", ws / "measurements.csv",
                "--output-dir", tmp_path]) == 2  # no --p, no sweep_best.csv
    assert "sweep_best" in capsys.readouterr().err


def test_missing_input_file_exits_three(tmp_path, capsys):
    assert run(["net", "validate", "--network", tmp_path / "nope.json"]) == 3
    assert "error:" in capsys.readouterr().err


def test_bad_config_file_exits_two(ws, tmp_path, capsys):
    cfg = tmp_path / "project.json"
    cfg.write_text('{"surprise": 1}\n')
    assert run(["net", "validate", "--config", cfg]) == 2
    assert "project.json: top level: unknown field 'surprise'" in capsys.readouterr().err
    cfg.write_text("{not json")
    assert run(["net", "validate", "--config", cfg]) == 2
    assert "project.json: line 1 column 2" in capsys.readouterr().err
    # wrong types and unknown section keys name the file and the key
    for doc, key in (
        ({"seed": "abc"}, "'seed'"),
        ({"seed": True}, "'seed'"),
        ({"workers": 2.0}, "'workers'"),
        ({"paths": []}, "'paths'"),
        ({"paths": {"network": 5}}, "'paths.network'"),
        ({"paths": {"nets": "a.json"}}, "['nets']"),
        ({"sim": "ab"}, "'sim'"),
        ({"demand": {"bogus": 1}}, "unknown demand keys ['bogus']"),
    ):
        cfg.write_text(json.dumps(doc) + "\n")
        assert run(["net", "validate", "--config", cfg]) == 2, doc
        err = capsys.readouterr().err
        assert "project.json" in err and key in err, (doc, err)
    # a section that becomes a dataclass is type-checked by the stage that
    # decodes it, and a bool is no number
    write_one_trip(tmp_path / "trips.json")
    inputs = {
        "demand": ["demand", "generate", "--statistics", ws / "statistics.json"],
        "sim": ["sim", "run", "--routes", ws / "routes.json"],
        "sweep": ["calib", "sweep", "--routes", ws / "routes.json",
                  "--detectors", ws / "detectors.json",
                  "--measurements", ws / "measurements.csv"],
        "equilibrium": ["dua", "iterate", "--trips", tmp_path / "trips.json"],
    }
    for section, key, value in (
        ("demand", "car_rate", "x"),
        ("sim", "rerouting_probability", True),
        ("sweep", "step", "0.1"),
        ("equilibrium", "max_iter", "x"),
        ("equilibrium", "max_iter", True),
    ):
        cfg.write_text(json.dumps({section: {key: value}}) + "\n")
        argv = [*inputs[section], "--network", ws / "net.json", "--output-dir", tmp_path / "out"]
        assert run([*argv, "--config", cfg]) == 2, section
        err = capsys.readouterr().err
        assert "project.json" in err and f"field '{key}' has wrong type" in err, (section, err)


def test_bad_sim_settings_exit_two_before_any_output(ws, tmp_path, capsys):
    # fixture make reads the same sections as the stages and rejects them
    # the same way, before it writes a single file
    cfg = tmp_path / "project.json"
    out = tmp_path / "out"
    for doc, message in (
        ({"sim": {"step_length": 0}}, "bad simulation settings"),
        ({"sweep": {"step": 0}}, "bad sweep grid"),
        ({"equilibrium": {"max_iter": 0}}, "bad assignment settings"),
        ({"equilibrium": {"window": 0}}, "bad assignment settings"),
        ({"equilibrium": {"alpha": 7.0}}, "bad assignment settings"),
        ({"equilibrium": {"max_iter": "x"}}, "field 'max_iter' has wrong type"),
        ({"demand": {"car_rate": 1.5}}, "bad demand settings"),
        ({"workers": -5}, "workers must be >= 1, got -5"),
    ):
        cfg.write_text(json.dumps(doc) + "\n")
        assert run(["fixture", "make", "--config", cfg, "--output-dir", out]) == 2, doc
        assert message in capsys.readouterr().err, doc
        assert not out.exists() or not any(out.iterdir()), doc
    # a flag out of its range is rejected the same way
    scenario = ["--network", ws / "net.json", "--routes", ws / "routes.json", "--output-dir", out]
    assert run(["sim", "run", *scenario, "--time-to-teleport", "-5"]) == 2
    assert "time_to_teleport must be in (0, inf], got -5.0" in capsys.readouterr().err
    for workers in ("0", "-5"):
        assert run(["calib", "sweep", *scenario, "--detectors", ws / "detectors.json",
                    "--measurements", ws / "measurements.csv", "--workers", workers]) == 2
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
    # and so is NaN, which a JSON config file can carry: a day with NaN as
    # its rerouting period would run without a single rerouting round
    for key, message in (("rerouting_period", "rerouting_period must be in (0, inf], got nan"),
                         ("end", "end must be in (-inf, inf), got nan")):
        cfg.write_text(json.dumps({"sim": {key: math.nan}}) + "\n")
        assert "NaN" in cfg.read_text()
        assert run(["sim", "run", *scenario, "--config", cfg]) == 2, key
        assert f"bad simulation settings: {message}" in capsys.readouterr().err
    write_one_trip(tmp_path / "trips.json")
    assert run(["dua", "iterate", "--network", ws / "net.json", "--trips", tmp_path / "trips.json",
                "--window", "0", "--output-dir", out]) == 2
    assert "bad assignment settings: window must be in [1, inf), got 0" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_bad_settings_exit_two_before_reading_inputs(ws, tmp_path, capsys):
    # each stage decodes its settings before it opens an input file, so a
    # bad setting is named even when an input does not exist
    missing = tmp_path / "missing.json"
    scenario = ["--network", missing, "--routes", missing, "--detectors", missing]
    for argv, message in (
        (["sim", "run", *scenario, "--end", "-1"], "end must be after begin"),
        (["calib", "sweep", *scenario, "--measurements", missing, "--grid-step", "0.00005"],
         "step must be >= 0.0001"),
        (["report", "validate", *scenario, "--measurements", missing, "--p", "0.5",
          "--rerouting-period", "0"], "rerouting_period must be in (0, inf], got 0.0"),
        (["report", "validate", *scenario, "--measurements", missing, "--p", "1.5"],
         "bad simulation settings: rerouting_probability must be in [0, 1], got 1.5"),
        (["dua", "iterate", "--network", missing, "--trips", missing, "--tol", "-1"],
         "tol must be in [0, inf], got -1.0"),
        (["data", "ingest", "--measurements", missing, "--include-weekdays", "Funday"],
         "unknown weekday 'Funday'"),
        (["data", "ingest", "--measurements", missing, "--date-from", "2023-09-10",
          "--date-to", "2023-09-01"], "bad ingestion filter: date_range start must not be after its end"),
    ):
        assert run([*argv, "--output-dir", tmp_path / "out"]) == 2, argv
        assert message in capsys.readouterr().err, argv
    # `demand generate` reads its statistics first: their `config` is the
    # base of its settings; the network comes after the settings
    cfg = tmp_path / "project.json"
    cfg.write_text(json.dumps({"demand": {"car_rate": 1.5}}) + "\n")
    assert run(["demand", "generate", "--network", missing, "--statistics", ws / "statistics.json",
                "--config", cfg, "--output-dir", tmp_path / "out"]) == 2
    assert "bad demand settings: car_rate must be in [0, 1], got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_statistics_range_error_names_the_file(ws, tmp_path, capsys):
    doc = json.loads((ws / "statistics.json").read_text())
    doc["config"]["car_rate"] = 1.5
    path = tmp_path / "statistics.json"
    path.write_text(json.dumps(doc))
    assert run(["demand", "generate", "--network", ws / "net.json", "--statistics", path,
                "--output-dir", tmp_path / "out"]) == 3
    assert f"{path}: config: car_rate must be in [0, 1], got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_vehicle_types_are_run_settings(ws, tmp_path, capsys, sim_runs):
    # `sim.car` and `sim.bus` are whole records: a partial one is refused,
    # and a range error names the record it is in
    cfg = tmp_path / "project.json"
    argv = ["sim", "run", "--network", ws / "net.json", "--routes", ws / "routes.json",
            "--output-dir", tmp_path / "out", "--config", cfg]
    car = netmodel.record_to(CAR)
    for sim, message in (
        ({"bus": {"sigma": 0}}, f"{cfg}: sim.bus: missing field 'accel'"),
        ({"car": {**car, "sigma": 1.5}},
         "bad simulation settings: car: sigma must be in [0, 1], got 1.5"),
        ({"bus": {**car, "length": math.nan}},
         "bad simulation settings: bus: length must be in (0, inf), got nan"),
        ({"car": {**car, "tau": math.nan}},
         "bad simulation settings: car: tau must be in [0, inf), got nan"),
    ):
        cfg.write_text(json.dumps({"sim": sim}) + "\n")
        assert run(argv) == 2, sim
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists() and not sim_runs
    # a whole record reaches the run
    cfg.write_text(json.dumps({"sim": {"bus": {**netmodel.record_to(BUS), "sigma": 0}}}) + "\n")
    assert run(argv) == 0
    assert [(c.car, c.bus) for c in sim_runs] == [(CAR, dataclasses.replace(BUS, sigma=0.0))]


def test_a_nan_gate_share_is_refused_by_name(tmp_path, capsys):
    # a share or count outside its range, NaN included, is refused where the
    # statistics file is read; before, apportioning the gate flows raised a
    # bare ValueError, and a negative share was apportioned as given
    twin = fixtures.twin_scenario(7)
    save_network(twin.net, tmp_path / "net.json")
    path = tmp_path / "statistics.json"
    for key, index, field, value, interval in (
        ("gates", 0, "incoming_share", math.nan, "[0, 1]"),
        ("gates", 1, "incoming_share", -0.5, "[0, 1]"),
        ("districts", 0, "workers", -1, "[0, inf)"),
    ):
        doc = netmodel.record_to(twin.statistics)
        doc[key][index][field] = value
        netmodel.write_json(doc, path)
        assert run(["demand", "generate", "--network", tmp_path / "net.json",
                    "--statistics", path, "--output-dir", tmp_path / "out"]) == 3
        assert capsys.readouterr().err == (
            f"error: DemandError: {path}: {key}[{index}]: {field} must be in {interval},"
            f" got {value}\n")
    assert not (tmp_path / "out").exists()


def test_shift_hours_are_checked_where_they_are_read(ws, tmp_path, capsys):
    # a shift opening at NaN wrote NaN departures into trips.json; in a
    # project's demand section it is a usage error, a statistics file names itself
    shifts = [{"opening_h": math.nan, "closing_h": 17 * H, "worker_share": 1.0}]
    cfg = tmp_path / "project.json"
    cfg.write_text(json.dumps({"demand": {"work_hours": shifts}}) + "\n")
    generate = ["demand", "generate", "--network", ws / "net.json", "--output-dir", tmp_path / "out"]
    assert run([*generate, "--statistics", ws / "statistics.json", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: bad demand settings: work_hours[0]: opening_h must precede closing_h\n")
    doc = json.loads((ws / "statistics.json").read_text())
    doc["config"]["work_hours"] = shifts
    path = tmp_path / "statistics.json"
    path.write_text(json.dumps(doc))
    assert run([*generate, "--statistics", path]) == 3
    assert capsys.readouterr().err == (
        f"error: DemandError: {path}: config: work_hours[0]: opening_h must precede closing_h\n")
    assert not (tmp_path / "out").exists()


def test_demand_generate_reports_the_departures_it_clamps(ws, tmp_path, capsys):
    # shift hours written as hours (8 for 08:00) put every outbound leg
    # before midnight, where generation clamps it to the first second
    generate = ["demand", "generate", "--network", ws / "net.json",
                "--statistics", ws / "statistics.json"]
    assert run([*generate, "--output-dir", tmp_path / "seconds"]) == 0
    assert "clamps" not in capsys.readouterr().err
    shifts = [{"opening_h": 8.0, "closing_h": 17.0, "worker_share": 1.0}]
    cfg = tmp_path / "project.json"
    cfg.write_text(json.dumps({"demand": {"work_hours": shifts}}) + "\n")
    assert run([*generate, "--config", cfg, "--output-dir", tmp_path / "hours"]) == 0
    trips = read_trips(tmp_path / "hours" / "trips.json")
    clamped = sum(t.depart == 0.0 for t in trips)
    assert 0 < clamped < len(trips)
    assert (
        f"[seed 0] {clamped} of {len(trips)} departures sit at the first or last second of the day, "
        "where generation clamps them; opening_h and closing_h are seconds of the day\n"
    ) in capsys.readouterr().err


def test_non_finite_settings_exit_two(tmp_path, capsys):
    # a NaN or an infinity in a grid or run setting is a usage error naming
    # its field: rounding an infinite grid step, or sizing the per-minute
    # counts of an endless day, would raise OverflowError and exit 3
    missing = tmp_path / "missing.json"
    scenario = ["--network", missing, "--routes", missing, "--detectors", missing]
    sweep = ["calib", "sweep", *scenario, "--measurements", missing]
    cfg = tmp_path / "project.json"
    for section, key, value, flag, interval in (
        ("sweep", "step", math.nan, None, "(0, inf)"),
        ("sweep", "step", math.inf, "--grid-step", "(0, inf)"),
        ("sweep", "p_min", math.inf, None, "[0, 1]"),
        ("sweep", "p_max", -math.inf, "--p-max", "[0, 1]"),
        ("sim", "begin", -math.inf, "--begin", "(-inf, inf)"),
        ("sim", "end", math.inf, "--end", "(-inf, inf)"),
        ("sim", "step_length", math.inf, "--step-length", "(0, inf)"),
    ):
        argv = sweep if section == "sweep" else ["sim", "run", *scenario]
        label = "sweep grid" if section == "sweep" else "simulation settings"
        message = f"bad {label}: {key} must be in {interval}, got {value}"
        cfg.write_text(json.dumps({section: {key: value}}) + "\n")
        assert run([*argv, "--config", cfg, "--output-dir", tmp_path / "out"]) == 2, key
        assert message in capsys.readouterr().err, key
        if flag is not None:
            assert run([*argv, f"{flag}={value}", "--output-dir", tmp_path / "out"]) == 2, flag
            assert message in capsys.readouterr().err, flag
    assert not (tmp_path / "out").exists()


def test_flag_surface():
    # every subcommand's flags, in `--help` order
    common = ["-h", "--help", "--config", "--seed", "--output-dir"]
    sim = ["--begin", "--end", "--step-length", "--time-to-teleport",
           "--ignore-junction-blocker", "--rerouting-probability", "--rerouting-period"]
    # the stages that set the probability themselves take no flag for it,
    # and those that score a run none for the bounds of the day they score
    sim_set = [f for f in sim if f != "--rerouting-probability"]
    sim_scored = sim_set[2:]
    scenario = ["--network", "--routes", "--detectors", "--bus-lines"]
    expected = {
        ("net", "validate"): [*common, "--network"],
        ("demand", "generate"): [*common, "--network", "--statistics"],
        ("sim", "run"): [*common, *sim, *scenario],
        ("dua", "iterate"): [*common, *sim_set, "--network", "--trips", "--max-iter", "--tol",
                             "--window"],
        ("calib", "sweep"): [*common, *sim_scored, *scenario, "--measurements", "--p-min",
                             "--p-max", "--grid-step", "--workers"],
        ("data", "ingest"): [*common, "--measurements", "--include-weekdays", "--exclude-dates",
                             "--date-from", "--date-to"],
        ("report", "validate"): [*common, *sim_scored, *scenario, "--measurements", "--p"],
        ("fixture", "make"): common,
    }

    def choices(parser):
        return next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ).choices

    seen = {
        (group, action): [s for a in sub._actions for s in a.option_strings]
        for group, groups in choices(cli.build_parser()).items()
        for action, sub in choices(groups).items()
    }
    assert seen == expected
    assert list(seen) == list(expected)


def test_fixture_make_writes_the_settings_it_used(tmp_path, monkeypatch):
    # a partial section overlays the twin's settings key by key, and the
    # written project reruns them at the seed the truth ran at
    seen = []

    def capture(net, trips, config, params, *, simulate_final=True):
        seen.append((config.seed, params, simulate_final))
        return equilibrium.DuaResult({}, [], False, [])

    monkeypatch.setattr(equilibrium, "dua_iterate", capture)
    cfg = tmp_path / "config.json"
    cfg.write_text('{"sim": {"rerouting_period": 120.0}, "equilibrium": {"max_iter": 2}}\n')
    out = tmp_path / "out"
    assert run(["fixture", "make", "--config", cfg, "--seed", "7", "--output-dir", out]) == 0
    params = equilibrium.DuaConfig(max_iter=2, tol=0.05, window=3)
    assert seen == [(7, params, False)]
    project = json.loads((out / "project.json").read_text())
    assert project["equilibrium"] == netmodel.record_to(params)
    assert project["sweep"] == netmodel.record_to(fixtures.TWIN_GRID)
    assert project["seed"] == 7 and project["sim"] == {"rerouting_period": 120.0}
    later = cli.build_parser().parse_args(["sim", "run", "--config", str(out / "project.json")])
    assert cli._Ctx(later).settings("sim").seed == 7


def test_fixture_make_generates_the_demand_section(tmp_path, monkeypatch):
    # a `demand` section overlays the twin's demand for the truth, and the
    # written statistics carry it on to `demand generate`
    seen = []

    def capture(net, trips, config, params, *, simulate_final=True):
        assert simulate_final is False
        seen.append(len(trips))
        return equilibrium.DuaResult({}, [], False, [])

    monkeypatch.setattr(equilibrium, "dua_iterate", capture)
    configs = {}
    for name, doc in (("plain", {}), ("no_cars", {"demand": {"car_rate": 0.0}})):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc) + "\n")
        out = tmp_path / name
        assert run(["fixture", "make", "--config", cfg, "--seed", "7", "--output-dir", out]) == 0
        configs[name] = json.loads((out / "statistics.json").read_text())["config"]
    twin = fixtures.twin_scenario(7).statistics.config
    assert configs["plain"] == netmodel.record_to(twin)
    # the truth's demand runs at the run seed, as `demand generate` will
    assert configs["no_cars"] == {**netmodel.record_to(twin), "car_rate": 0.0}
    assert seen[1] < seen[0]


def test_fixture_make_skips_the_capped_rounds_simulation(tmp_path, monkeypatch, sim_runs):
    # the bench's assignment stops at its cap of 2 rounds; the truth is
    # built from the same routes when the cap round is also simulated
    cfg = tmp_path / "config.json"
    cfg.write_text('{"equilibrium": {"max_iter": 2, "window": 2}}\n')

    def make(name):
        sim_runs.clear()
        out = tmp_path / name
        assert run(["fixture", "make", "--config", cfg, "--seed", "5", "--output-dir", out]) == 0
        return len(sim_runs), (out / "measurements.csv").read_bytes()

    skipped = make("skipped")
    dua_iterate = equilibrium.dua_iterate
    monkeypatch.setattr(
        equilibrium, "dua_iterate",
        lambda *args, simulate_final: dua_iterate(*args, simulate_final=True),
    )
    full = make("full")
    assert (skipped[0], full[0]) == (2, 3)
    assert skipped[1] == full[1]


@pytest.mark.parametrize("sim, got", [
    ({"end": 43200}, "0 to 43200 s"),
    ({"begin": 3600, "end": 90000}, "3600 to 90000 s"),
])
def test_fixture_make_refuses_a_truth_that_is_not_the_measured_day(
    tmp_path, sim_runs, capsys, sim, got
):
    # its counts become a day of measurements, so a truth run of another
    # span is refused before any file is written
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"sim": sim}) + "\n")
    out = tmp_path / "out"
    assert run(["fixture", "make", "--config", cfg, "--output-dir", out]) == 3
    assert capsys.readouterr().err == (
        f"error: ValueError: scoring needs a run from 0 to 86400 s, got {got}\n")
    assert not out.exists()
    assert sim_runs == []


# -- net validate --------------------------------------------------------------


def test_net_validate_clean(ws, capsys):
    assert run(["net", "validate", "--network", ws / "net.json"]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_net_validate_reports_violations(tmp_path, capsys):
    junctions = [
        Junction("a", 0.0, 0.0, kind="dead_end"),
        Junction("b", 10.0, 0.0),
        Junction("x", 0.0, 10.0),
        Junction("y", 10.0, 10.0),
    ]
    edges = [
        Edge("ab", "a", "b", 10.0),
        Edge("ba", "b", "a", 10.0),
        Edge("xy", "x", "y", 10.0, bus_only=True),  # unreachable island
    ]
    path = tmp_path / "bad.json"
    save_network(RoadNetwork(junctions, edges), path)
    assert run(["net", "validate", "--network", path]) == 1
    out = capsys.readouterr().out
    assert "1 violations" in out
    assert "UNREACHABLE" in out


# -- pipeline steps ------------------------------------------------------------


def test_demand_generate_outputs_are_pinned(tmp_path, capsys):
    # the seed-7 twin's demand: any change to trip sampling, route expansion
    # or the two writers must leave these bytes alone
    twin = fixtures.twin_scenario(7)
    save_network(twin.net, tmp_path / "net.json")
    save_statistics(twin.statistics, tmp_path / "statistics.json")
    out = tmp_path / "out"
    assert run(["demand", "generate", "--seed", 7, "--network", tmp_path / "net.json",
                "--statistics", tmp_path / "statistics.json", "--output-dir", out]) == 0
    assert capsys.readouterr().out == "4924 trips, 4924 routed\n"
    assert digest(out / "trips.json") == (
        "863d8a377330b77a76a6706f5c528ca440f63cc2f8b663b51c5c47487f93556c")
    assert digest(out / "routes.json") == (
        "dc6556bef9412e5ec0a6ed42125e5890ff4cb876851159ff7e1a2b4e57fdc49c")


def test_demand_generate(ws, tmp_path, capsys):
    rc = run(["demand", "generate", "--network", ws / "net.json",
              "--statistics", ws / "statistics.json", "--output-dir", tmp_path])
    assert rc == 0
    table = read_trips(tmp_path / "trips.json")
    net = load_network(ws / "net.json")
    plans = load_route_plans(tmp_path / "routes.json")
    check_scenario(net, plans)
    assert len(table) > 0
    assert 0 < len(plans) <= len(table)
    assert f"{len(table)} trips, {len(plans)} routed" in capsys.readouterr().out


def test_sim_run_outputs(ws, tmp_path, capsys):
    rc = run(["sim", "run", "--network", ws / "net.json",
              "--routes", ws / "routes.json", "--detectors", ws / "detectors.json",
              "--output-dir", tmp_path])
    assert rc == 0
    assert "arrived 12/12" in capsys.readouterr().out
    summary = json.loads((tmp_path / "sim_summary.json").read_text())
    assert summary["arrived"] == 12
    assert summary["collisions"] == 0
    assert list(summary) == sorted(summary)
    counts = (tmp_path / "detector_counts.csv").read_text().splitlines()
    assert counts[0] == "detector_id,window_start_s,count"
    assert len(counts) == 1 + 96
    # one vehicle is on the road from minute 1 to minute 12
    running = (tmp_path / "running.csv").read_text().splitlines()
    assert running[:4] == ["minute,count", "0,0", "1,1", "2,1"]
    assert running[13:16] == ["12,1", "13,0", "14,0"]


def test_sim_run_actuated_grid(tmp_path, capsys):
    # the same routed rush trips on the grid with static and with actuated
    # signals: actuation cuts an empty green short, so trips lose less time
    routes = tmp_path / "routes.json"
    summaries = {}
    for logic in ("static", "actuated"):
        net = fixtures.grid_network(logic=logic)
        if logic == "static":
            trips = fixtures.rush_trips(net, 500, seed=1)
            save_route_plans(demandgen.expand_routes(trips, net).routes, routes)
        save_network(net, tmp_path / f"{logic}.net.json")
        out = tmp_path / logic
        assert run(["sim", "run", "--network", tmp_path / f"{logic}.net.json",
                    "--routes", routes, "--seed", "1", "--output-dir", out]) == 0
        assert "arrived 500/500" in capsys.readouterr().out
        summaries[logic] = json.loads((out / "sim_summary.json").read_text())
    for summary in summaries.values():
        assert summary["loaded"] == summary["arrived"] == 500
        assert summary["collisions"] == 0
    assert summaries["actuated"]["avg_time_loss"] < summaries["static"]["avg_time_loss"]


def test_sim_run_refuses_phase_states_of_the_wrong_length(tmp_path, capsys, twin_with_phase_states):
    # the twin network with every phase state cut to one character: `net
    # validate` reports PHASE_ARITY, and the engine does not simulate it
    net = twin_with_phase_states(1)
    save_network(net, tmp_path / "net.json")
    save_route_plans([RoutePlan("v0", ("e00_01",), 0.0)], tmp_path / "routes.json")
    assert run(["net", "validate", "--network", tmp_path / "net.json"]) != 0
    assert "PHASE_ARITY" in capsys.readouterr().out
    assert run(["sim", "run", "--network", tmp_path / "net.json",
                "--routes", tmp_path / "routes.json", "--output-dir", tmp_path / "out"]) == 3
    jid = next(iter(net.tls_programs))
    assert f"junction '{jid}': phase 0 state length 1 != connection count" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sim_summary.json").exists()


@pytest.mark.parametrize("fault", scenarios.CHAIN_FAULTS)
def test_sim_run_refuses_edge_and_stop_faults(tmp_path, capsys, fault):
    # the engine names the edge or bus stop `net validate` reports
    net, message = scenarios.chain_with_fault(fault)
    save_network(net, tmp_path / "net.json")
    save_route_plans([RoutePlan("v0", ("e0", "e1", "e2"), 0.0)], tmp_path / "routes.json")
    assert run(["net", "validate", "--network", tmp_path / "net.json"]) == 1
    capsys.readouterr()
    assert run(["sim", "run", "--network", tmp_path / "net.json",
                "--routes", tmp_path / "routes.json", "--output-dir", tmp_path / "out"]) == 3
    assert capsys.readouterr().err.endswith(f"error: ValueError: {message}\n")
    # and so does assignment, whose routing divided by a zero speed
    write_one_trip(tmp_path / "trips.json")
    assert run(["dua", "iterate", "--network", tmp_path / "net.json",
                "--trips", tmp_path / "trips.json", "--output-dir", tmp_path / "out"]) == 3
    assert capsys.readouterr().err.endswith(f"error: ValueError: {message}\n")
    assert not (tmp_path / "out").exists()


def sim_run_scenario(ws, tmp_path, plans, lines=None):
    save_route_plans(plans, tmp_path / "routes.json")
    args = ["sim", "run", "--network", ws / "net.json", "--routes", tmp_path / "routes.json",
            "--output-dir", tmp_path / "out"]
    if lines is not None:
        save_bus_lines(lines, tmp_path / "bus_lines.json")
        args += ["--bus-lines", tmp_path / "bus_lines.json"]
    return run(args)


def test_sim_run_refuses_a_repeated_trip_id(ws, tmp_path, capsys):
    # two trips named `a` would load 2 and arrive 1, losing a vehicle
    plans = [RoutePlan("a", ("e0", "e1"), 0.0), RoutePlan("a", ("e0", "e1"), 30.0)]
    assert sim_run_scenario(ws, tmp_path, plans) == 3
    assert capsys.readouterr().err.endswith("\nerror: ValueError: trip 'a': duplicate trip id\n")
    assert not (tmp_path / "out" / "sim_summary.json").exists()


def test_sim_run_refuses_a_departure_that_is_no_time(ws, tmp_path, capsys):
    # a NaN departure would keep the trips after it from ever being inserted
    plans = [RoutePlan("a", ("e0", "e1"), math.nan), RoutePlan("b", ("e0", "e1"), 30.0)]
    assert sim_run_scenario(ws, tmp_path, plans) == 3
    assert capsys.readouterr().err.endswith(
        "\nerror: ValueError: trip 'a': depart must be finite, got nan\n")


def test_sim_run_refuses_a_bus_line_listed_twice(ws, tmp_path, capsys):
    # its buses would share trip ids
    line = BusLine("L", (), ("e0", "e1", "e2"), (0.0, 600.0))
    plans = [RoutePlan("a", ("e0", "e1"), 0.0)]
    assert sim_run_scenario(ws, tmp_path, plans, [line]) == 0
    capsys.readouterr()
    assert sim_run_scenario(ws, tmp_path, plans, [line, line]) == 3
    assert capsys.readouterr().err.endswith(
        "\nerror: ValueError: bus line 'L': duplicate bus line id\n")


def _retimed(pick, duration, min_duration, max_duration):
    """A new-phases function: each phase `pick(k, phase)` takes gets these
    durations."""
    return lambda phases: tuple(
        dataclasses.replace(ph, duration=duration, min_duration=min_duration, max_duration=max_duration)
        if pick(k, ph) else ph
        for k, ph in enumerate(phases)
    )


def _every(k, ph):
    return True


def _amber(k, ph):
    return "G" not in ph.state


def _green(k, ph):
    return "G" in ph.state


def _lowercase_green(phases):
    return tuple(dataclasses.replace(ph, state=ph.state.replace("G", "g")) for ph in phases)


# logic, the new phases of one junction's program, the code `net validate`
# gives them and its message, which `sim run` repeats
@pytest.mark.parametrize("logic, phases, code, message", [
    pytest.param("static", lambda phases: (), "EMPTY_PROGRAM", "program has no phases",
                 id="empty-static"),
    pytest.param("actuated", lambda phases: (), "EMPTY_PROGRAM", "program has no phases",
                 id="empty-actuated"),
    pytest.param("static", _lowercase_green,
                 "PHASE_STATE_CHARS", "phase 0 state has characters outside G/r/y", id="g-for-G"),
    pytest.param("static", _retimed(lambda k, ph: k == 1, 0.0, 0.0, 0.0),
                 "NONPOSITIVE_PHASE_DURATION", "phase 1 duration 0.0 must be > 0", id="static-0s-phase"),
    # a static cycle of 0 s has no length, and an actuated program of 0 s
    # phases never returns from idle_advance
    pytest.param("static", _retimed(_every, 0.0, 0.0, 0.0),
                 "NONPOSITIVE_PHASE_DURATION", "phase 0 duration 0.0 must be > 0", id="static-0s-cycle"),
    pytest.param("actuated", _retimed(_every, 0.0, 0.0, 0.0),
                 "NONPOSITIVE_PHASE_DURATION", "phase 0 duration 0.0 must be > 0", id="actuated-0s-phases"),
    pytest.param("actuated", _retimed(_amber, -1.0, -1.0, -1.0),
                 "NONPOSITIVE_PHASE_DURATION", "phase 1 duration -1.0 must be > 0",
                 id="actuated-negative-amber"),
    # a green phase cut at 0 s holds no time even with a positive duration
    pytest.param("actuated", _retimed(_green, fixtures.GREEN_S, 0.0, 0.0),
                 "PHASE_DURATION_BOUNDS", "phase 0 durations must satisfy min <= duration <= max",
                 id="actuated-green-cut-at-0s"),
])
def test_net_validate_and_sim_run_refuse_the_same_programs(tmp_path, capsys, logic, phases, code, message):
    grid = fixtures.grid_network(logic=logic)
    jid = min(grid.tls_programs)
    programs = [
        dataclasses.replace(prog, phases=phases(prog.phases)) if prog.junction_id == jid else prog
        for prog in grid.tls_programs.values()
    ]
    net = RoadNetwork(grid.junctions.values(), grid.edges.values(), programs)
    save_network(net, tmp_path / "net.json")
    save_route_plans([RoutePlan("v0", ("e00_01",), 0.0)], tmp_path / "routes.json")
    assert run(["net", "validate", "--network", tmp_path / "net.json"]) == 1
    assert f"{code} {jid}: {message}" in capsys.readouterr().out
    assert run(["sim", "run", "--network", tmp_path / "net.json",
                "--routes", tmp_path / "routes.json", "--output-dir", tmp_path / "out"]) == 3
    assert f"error: ValueError: junction '{jid}': {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sim_run_is_idempotent_and_leaves_inputs_alone(ws, tmp_path):
    inputs = sorted(ws.glob("*.json")) + [ws / "measurements.csv"]
    before = {p.name: digest(p) for p in inputs}
    dirs = [tmp_path / "one", tmp_path / "two"]
    for d in dirs:
        assert run(["sim", "run", "--network", ws / "net.json",
                    "--routes", ws / "routes.json",
                    "--detectors", ws / "detectors.json",
                    "--output-dir", d]) == 0
    for name in ("detector_counts.csv", "running.csv", "sim_summary.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    assert {p.name: digest(p) for p in inputs} == before


def test_dua_iterate(ws, tmp_path, capsys):
    assert run(["demand", "generate", "--network", ws / "net.json",
                "--statistics", ws / "statistics.json", "--output-dir", tmp_path]) == 0
    rc = run(["dua", "iterate", "--network", ws / "net.json",
              "--trips", tmp_path / "trips.json",
              "--max-iter", "2", "--tol", "0.5", "--window", "2",
              "--output-dir", tmp_path])
    assert rc == 0
    assert "iterations 2" in capsys.readouterr().out
    net = load_network(ws / "net.json")
    plans = load_route_plans(tmp_path / "dua_routes.json")
    assert plans
    check_scenario(net, plans)
    metrics = (tmp_path / "dua_metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("iteration,")
    assert len(metrics) == 3


def test_dua_iterate_logs_the_trips_it_left_out(ws, tmp_path, capsys):
    demandgen.write_trips([
        demandgen.Trip("t0", 60.0, "e0", "e2", "work"),
        demandgen.Trip("t1", 90.0, "e0", "nope", "work"),
    ], tmp_path / "trips.json")
    assert run(["dua", "iterate", "--network", ws / "net.json", "--trips", tmp_path / "trips.json",
                "--max-iter", "2", "--tol", "0.5", "--window", "2",
                "--output-dir", tmp_path]) == 0
    assert "1 trips had no route and were left out" in capsys.readouterr().err
    assert [p.trip_id for p in load_route_plans(tmp_path / "dua_routes.json")] == ["t0"]


def test_calib_sweep_single_point(ws, tmp_path, capsys):
    rc = run(["calib", "sweep", "--network", ws / "net.json",
              "--routes", ws / "routes.json", "--detectors", ws / "detectors.json",
              "--measurements", ws / "measurements.csv",
              "--p-min", "0", "--p-max", "0", "--grid-step", "0.05",
              "--output-dir", tmp_path])
    assert rc == 0
    assert "best_p 0.0000 best_nrmse 0.000000" in capsys.readouterr().out
    sweep = (tmp_path / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "p,nrmse"
    assert len(sweep) == 2  # one grid point, one row
    best = (tmp_path / "sweep_best.csv").read_text().splitlines()
    assert best == ["best_p,best_nrmse", "0.0000,0.000000"]


def test_calib_sweep_refuses_a_repeated_trip_id_once(ws, tmp_path, capsys):
    # checked before the pool starts, not in each worker at each point
    save_route_plans([RoutePlan("a", ("e0", "e1"), 0.0), RoutePlan("a", ("e0", "e1"), 30.0)],
                     tmp_path / "routes.json")
    rc = run(["calib", "sweep", "--network", ws / "net.json",
              "--routes", tmp_path / "routes.json", "--detectors", ws / "detectors.json",
              "--measurements", ws / "measurements.csv",
              "--p-min", "0", "--p-max", "1", "--grid-step", "0.5", "--workers", "2",
              "--output-dir", tmp_path / "out"])
    assert rc == 3
    assert capsys.readouterr().err.endswith("\nerror: ValueError: trip 'a': duplicate trip id\n")
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_report_validate_explicit_p(ws, tmp_path, capsys):
    rc = run(["report", "validate", "--network", ws / "net.json",
              "--routes", ws / "routes.json", "--detectors", ws / "detectors.json",
              "--measurements", ws / "measurements.csv",
              "--p", "0.0", "--output-dir", tmp_path])
    assert rc == 0
    assert "scenario_nrmse 0.000000" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["scenario_nrmse"] == 0.0
    assert (tmp_path / "per_window.csv").exists()
    assert (tmp_path / "per_detector.csv").exists()


def test_report_validate_picks_up_swept_best(ws, tmp_path, capsys):
    common = ["--network", ws / "net.json", "--routes", ws / "routes.json",
              "--detectors", ws / "detectors.json",
              "--measurements", ws / "measurements.csv", "--output-dir", tmp_path]
    assert run(["calib", "sweep", *common,
                "--p-min", "0", "--p-max", "0", "--grid-step", "0.05"]) == 0
    assert run(["report", "validate", *common]) == 0  # p comes from sweep_best.csv
    assert "p=0.0" in capsys.readouterr().err
    assert (tmp_path / "report.json").exists()


def test_calib_sweep_rejects_a_grid_finer_than_its_output(ws, tmp_path, capsys):
    # p is written with 4 decimals: 5e-05, 0.0001 and 0.00015 would all read 0.0001
    cfg = tmp_path / "project.json"
    cfg.write_text(json.dumps({"sweep": {"p_max": 0.001, "step": 0.00005}}) + "\n")
    rc = run(["calib", "sweep", "--config", cfg, "--network", ws / "net.json",
              "--routes", ws / "routes.json", "--detectors", ws / "detectors.json",
              "--measurements", ws / "measurements.csv", "--output-dir", tmp_path / "out"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad sweep grid: step must be >= 0.0001" in err and "4 decimals" in err
    assert not (tmp_path / "out").exists()


def test_calib_sweep_output_does_not_depend_on_workers(ws, tmp_path):
    common = ["--network", ws / "net.json", "--routes", ws / "routes.json",
              "--detectors", ws / "detectors.json",
              "--measurements", ws / "measurements.csv",
              "--p-min", "0", "--p-max", "1", "--grid-step", "0.25"]
    for workers in (1, 2):
        assert run(["calib", "sweep", *common, "--workers", workers,
                    "--output-dir", tmp_path / f"w{workers}"]) == 0
    for name in ("sweep.csv", "sweep_best.csv", cli.SWEPT_SERIES):
        assert digest(tmp_path / "w1" / name) == digest(tmp_path / "w2" / name), name


# -- reuse of the swept counts ---------------------------------------------------

REPORT_FILES = ("report.json", "per_window.csv", "per_detector.csv")


@pytest.fixture
def swept(ws, tmp_path):
    """A copy of the `ws` scenario with an empty bus-lines file, swept over
    p = 0, 0.5, 1; returns the flags both calibration stages take."""
    for name in ("net.json", "routes.json", "detectors.json", "measurements.csv"):
        shutil.copy(ws / name, tmp_path / name)
    save_bus_lines([], tmp_path / "bus_lines.json")
    common = ["--network", tmp_path / "net.json", "--routes", tmp_path / "routes.json",
              "--detectors", tmp_path / "detectors.json",
              "--bus-lines", tmp_path / "bus_lines.json",
              "--measurements", tmp_path / "measurements.csv",
              "--output-dir", tmp_path / "out"]
    assert run(["calib", "sweep", *common, "--p-min", "0", "--p-max", "1",
                "--grid-step", "0.5"]) == 0
    return common


def validate_report(common, *flags):
    """`report validate` with `flags`; returns the bytes of its outputs."""
    assert run(["report", "validate", *common, *flags]) == 0
    out = common[-1]
    return {name: (out / name).read_bytes() for name in REPORT_FILES}


def fresh_report(common, *flags):
    """The same report with nothing kept to reuse."""
    kept = common[-1] / cli.SWEPT_SERIES
    saved = kept.read_bytes()
    kept.unlink()
    try:
        return validate_report(common, *flags)
    finally:
        kept.write_bytes(saved)


def test_report_validate_reuses_the_swept_counts(swept, monkeypatch, capsys):
    def no_run(sim, probe=None):
        raise AssertionError("report validate simulated a run the sweep made")

    kept = json.loads((swept[-1] / cli.SWEPT_SERIES).read_text())
    assert set(kept) == {"inputs", "p", "counts"}
    assert kept["p"] == 0.0 and set(kept["counts"]) == {"det_mid"}
    with monkeypatch.context() as m:
        m.setattr(Simulation, "run", no_run)
        reused = validate_report(swept)
        # an explicit --p equal to the swept best names the same run
        assert validate_report(swept, "--p", "0") == reused
    assert "reusing the swept counts" in capsys.readouterr().err
    assert fresh_report(swept) == reused
    assert f"no {cli.SWEPT_SERIES}: simulating" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["net.json", "routes.json", "detectors.json", "bus_lines.json"])
def test_report_validate_simulates_when_an_input_file_changed(swept, sim_runs, capsys, name):
    path = swept[-1].parent / name
    path.write_text(path.read_text() + "\n")  # same records, other bytes
    report = validate_report(swept)
    assert len(sim_runs) == 1
    assert "is from other inputs: simulating" in capsys.readouterr().err
    assert fresh_report(swept) == report


def test_report_validate_simulates_for_changed_routes(swept, sim_runs):
    routes = swept[-1].parent / "routes.json"
    plans = load_route_plans(routes)
    save_route_plans(plans[:6], routes)
    report = validate_report(swept)
    assert len(sim_runs) == 1
    assert json.loads(report["report.json"])["scenario_nrmse"] > 0
    assert fresh_report(swept) == report


@pytest.mark.parametrize("flags", [
    ["--seed", "1"],
    ["--time-to-teleport", "200"],
    ["--p", "0.5"],
])
def test_report_validate_simulates_another_run(swept, sim_runs, capsys, flags):
    report = validate_report(swept, *flags)
    assert len(sim_runs) == 1
    assert "is from other inputs: simulating" in capsys.readouterr().err
    assert fresh_report(swept, *flags) == report


@pytest.mark.parametrize("text", [
    "{not json",
    "[]",
    '{"inputs": "x", "p": 0.0}',
    '{"inputs": 1, "p": 0.0, "counts": {}}',
    '{"inputs": "x", "p": 0.0, "counts": {"det_mid": [1, 2]}}',
    '{"inputs": "x", "p": 0.0, "counts": {"det_mid": "many"}}',
])
def test_report_validate_simulates_past_a_corrupt_file(swept, sim_runs, capsys, text):
    want = fresh_report(swept)
    sim_runs.clear()
    (swept[-1] / cli.SWEPT_SERIES).write_text(text)
    assert validate_report(swept) == want
    assert len(sim_runs) == 1
    assert f"unreadable {cli.SWEPT_SERIES}" in capsys.readouterr().err


def test_report_validate_simulates_past_a_repeated_key(swept, sim_runs, capsys):
    # `json` alone keeps the last of a repeated key, so these counts would
    # be reused under the other `inputs`
    want = fresh_report(swept)
    sim_runs.clear()
    path = swept[-1] / cli.SWEPT_SERIES
    path.write_text(path.read_text().replace("{", '{"inputs": "other",', 1))
    assert validate_report(swept) == want
    assert len(sim_runs) == 1
    assert "repeated key 'inputs')" in capsys.readouterr().err


def test_report_validate_simulates_for_other_detectors(swept, sim_runs, capsys):
    path = swept[-1] / cli.SWEPT_SERIES
    kept = json.loads(path.read_text())
    kept["counts"]["elsewhere"] = kept["counts"]["det_mid"]
    netmodel.write_json(kept, path)
    report = validate_report(swept)
    assert len(sim_runs) == 1
    assert "names other detectors: simulating" in capsys.readouterr().err
    assert fresh_report(swept) == report


def test_report_validate_checks_detectors_before_simulating(swept, sim_runs, capsys):
    (swept[-1] / cli.SWEPT_SERIES).unlink()
    save_detectors([Detector("elsewhere", "e2", 0, 50.0)], swept[-1].parent / "detectors.json")
    assert run(["report", "validate", *swept]) == 3
    assert "DetectorMismatchError: detector sets differ" in capsys.readouterr().err
    assert sim_runs == []


@pytest.mark.parametrize("stage, flags, message", [
    (["calib", "sweep"], ["--window"],
     "detector 'det_mid': scoring needs a 900 s window, got 300 s"),
    # neither stage takes `--begin` or `--end`; the `sim` section of a
    # config still can move them
    (["calib", "sweep"], {"sim": {"end": 43200.0}},
     "scoring needs a run from 0 to 86400 s, got 0 to 43200 s"),
    (["report", "validate", "--p", "0"], ["--window"],
     "detector 'det_mid': scoring needs a 900 s window, got 300 s"),
    # a day-long run shifted off midnight would count its windows from
    # `begin`, the measurements theirs from midnight
    (["calib", "sweep"], {"sim": {"begin": 3600.0, "end": 90000.0}},
     "scoring needs a run from 0 to 86400 s, got 3600 to 90000 s"),
    (["report", "validate", "--p", "0"], {"sim": {"begin": 3600.0, "end": 90000.0}},
     "scoring needs a run from 0 to 86400 s, got 3600 to 90000 s"),
])
def test_scoring_refuses_a_run_without_the_days_quarter_hours(
    swept, sim_runs, capsys, stage, flags, message
):
    # the measured series hold 96 quarter-hours of one day; a run that
    # cannot give them is refused before it simulates
    (swept[-1] / cli.SWEPT_SERIES).unlink()
    if flags == ["--window"]:
        save_detectors([Detector("det_mid", "e2", 0, 50.0, window=300.0)],
                       swept[-1].parent / "detectors.json")
        flags = []
    else:  # a project config
        cfg = swept[-1].parent / "project.json"
        cfg.write_text(json.dumps(flags) + "\n")
        flags = ["--config", cfg]
    assert run([*stage, *swept, *flags]) == 3
    assert capsys.readouterr().err.endswith(f"error: ValueError: {message}\n")
    assert sim_runs == []


# -- project config ------------------------------------------------------------


def test_config_file_supplies_paths(ws, tmp_path, capsys):
    cfg = ws / "project.json"
    cfg.write_text(json.dumps({
        "seed": 0,
        "paths": {
            "network": "net.json",  # relative to the config file
            "statistics": "statistics.json",
            "output_dir": str(tmp_path),
        },
    }) + "\n")
    assert run(["demand", "generate", "--config", cfg]) == 0
    assert (tmp_path / "trips.json").exists()
    assert "[seed 0]" in capsys.readouterr().err


def test_seed_flag_overrides_config(ws, tmp_path, capsys):
    cfg = ws / "project_seeded.json"
    cfg.write_text(json.dumps({
        "seed": 3,
        "paths": {"network": "net.json", "statistics": "statistics.json"},
    }) + "\n")
    assert run(["demand", "generate", "--config", cfg,
                "--seed", "7", "--output-dir", tmp_path]) == 0
    assert "[seed 7]" in capsys.readouterr().err


SCENARIO = ["--network", "{ws}/net.json", "--routes", "{ws}/routes.json",
            "--detectors", "{ws}/detectors.json"]


@pytest.mark.parametrize("stage, section", [
    (["demand", "generate", "--network", "{ws}/net.json",
      "--statistics", "{ws}/statistics.json"], "demand"),
    (["sim", "run", *SCENARIO], "sim"),
    (["dua", "iterate", "--network", "{ws}/net.json", "--trips", "{tmp}/trips.json",
      "--max-iter", "1"], "sim"),
    (["calib", "sweep", *SCENARIO, "--measurements", "{ws}/measurements.csv",
      "--p-max", "0"], "sim"),
    (["report", "validate", *SCENARIO, "--measurements", "{ws}/measurements.csv",
      "--p", "0.5"], "sim"),
    (["fixture", "make"], "sim"),
    (["fixture", "make"], "demand"),
], ids=["demand-generate", "sim-run", "dua-iterate", "calib-sweep", "report-validate",
        "fixture-make-sim", "fixture-make-demand"])
def test_each_stage_runs_at_the_seed_it_logs(ws, tmp_path, capsys, monkeypatch, sim_runs,
                                             stage, section):
    # the run seed is the only seed: a section may not carry one, and
    # every record a stage builds runs at the seed it logs
    built = sim_runs  # every SimConfig and DemandConfig the stage runs with
    generate_trips = demandgen.generate_trips

    def spied(stats, net):
        built.append(stats.config)
        return generate_trips(stats, net)

    def assigned(net, trips, config, params, *, simulate_final):
        built.append(config)
        return equilibrium.DuaResult({}, [], False, [])

    monkeypatch.setattr(demandgen, "generate_trips", spied)
    if stage[0] == "fixture":  # the truth's routes are not needed here
        monkeypatch.setattr(equilibrium, "dua_iterate", assigned)
    write_one_trip(tmp_path / "trips.json")
    argv = [a.format(ws=ws, tmp=tmp_path) for a in stage]
    cfg = tmp_path / "project.json"
    out = tmp_path / "out"

    cfg.write_text(json.dumps({"seed": 5, section: {"seed": 3}}) + "\n")
    assert run([*argv, "--config", cfg, "--output-dir", out]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: unknown {section} keys ['seed']\n"
    assert not out.exists() and built == []

    cfg.write_text(json.dumps({"seed": 5}) + "\n")
    assert run([*argv, "--config", cfg, "--output-dir", out]) == 0
    err = capsys.readouterr().err
    assert err and all(line.startswith("[seed 5] ") for line in err.splitlines())
    assert built and {c.seed for c in built} == {5}


# -- data ingest ---------------------------------------------------------------


def test_data_ingest(ws, tmp_path, capsys):
    rc = run(["data", "ingest", "--measurements", ws / "measurements.csv",
              "--output-dir", tmp_path])
    assert rc == 0
    assert "det_mid=1" in capsys.readouterr().out
    summary = json.loads((tmp_path / "ingest_summary.json").read_text())
    assert summary == {"days_used": {"det_mid": 1}}
    lines = (tmp_path / "real_series.csv").read_text().splitlines()
    assert lines[0] == "detector_id,window_start_s,count"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:2] for row in rows] == [["det_mid", str(w * 900)] for w in range(96)]
    assert sum(int(row[2]) for row in rows) == 12  # every fixture vehicle crossed once


def test_data_ingest_filter_flags(ws, tmp_path, capsys):
    base = ["data", "ingest", "--measurements", ws / "measurements.csv",
            "--output-dir", tmp_path]
    assert run([*base, "--include-weekdays", "Mo,Tue"]) == 2  # unknown name
    assert capsys.readouterr().err == "error: unknown weekday 'Mo'\n"
    # a list that names no weekday is refused, not read as the default
    for empty in ("", " , "):
        assert run([*base, "--include-weekdays", empty]) == 2
        assert capsys.readouterr().err == "error: --include-weekdays names no weekday\n"
    assert run([*base, "--date-from", "2023-09-01"]) == 2  # missing --date-to
    capsys.readouterr()
    # filters that reject the only day of data surface as a runtime failure
    assert run([*base, "--exclude-dates", str(TUESDAY)]) == 3
    assert "no day of data" in capsys.readouterr().err
    assert run([*base, "--include-weekdays", "Tue",
                "--date-from", "2023-09-01", "--date-to", "2023-09-30"]) == 0


@pytest.mark.parametrize("flags, bad", [
    (["--exclude-dates", "20230905"], "20230905"),
    (["--exclude-dates", "2023-09-06,2023-W36-2"], "2023-W36-2"),
    (["--date-from", "2023-W36-2", "--date-to", "2023-09-30"], "2023-W36-2"),
    (["--date-from", "2023-09-01", "--date-to", "20230930"], "20230930"),
])
def test_data_ingest_date_flags_are_yyyy_mm_dd(ws, tmp_path, capsys, flags, bad):
    # Python 3.11 would read each of these as a date; 3.10 refuses them
    rc = run(["data", "ingest", "--measurements", ws / "measurements.csv", *flags,
              "--output-dir", tmp_path])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: bad date '{bad}': Invalid isoformat string: '{bad}'\n")


INGEST = ["data", "ingest", "--measurements", "{ws}/measurements.csv", "--output-dir", "{out}"]


@pytest.mark.parametrize("flags, message", [
    ([*INGEST, "--date-from", "", "--date-to", ""], "--date-from names no date"),
    ([*INGEST, "--date-from", "", "--date-to", "2023-09-30"], "--date-from names no date"),
    ([*INGEST, "--date-from", "2023-09-01", "--date-to", " "], "--date-to names no date"),
    ([*INGEST, "--exclude-dates", ""], "--exclude-dates names no date"),
    ([*INGEST, "--exclude-dates", " , "], "--exclude-dates names no date"),
    ([*INGEST, "--config", ""], "--config names no file"),
    (["net", "validate", "--config", "{project}", "--network", ""], "--network names no file"),
    (["net", "validate", "--network", ""], "--network names no file"),
    ([*INGEST, "--config", "{project}", "--measurements", ""], "--measurements names no file"),
    ([*INGEST, "--config", "{project}", "--output-dir", ""], "--output-dir names no directory"),
    ([*INGEST, "--output-dir", ""], "--output-dir names no directory"),
])
def test_flags_given_empty_are_refused(ws, tmp_path, capsys, monkeypatch, flags, message):
    # a given but empty value is not read as the flag left out, nor
    # replaced by the config's value
    monkeypatch.chdir(tmp_path)  # where an empty --output-dir would write
    out = tmp_path / "out"
    project = tmp_path / "project.json"
    project.write_text(json.dumps({"paths": {
        "network": str(ws / "net.json"),
        "measurements": str(ws / "measurements.csv"),
        "output_dir": str(out),
    }}) + "\n")
    rc = run([flag.format(ws=ws, out=out, project=project) for flag in flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["project.json"]


@pytest.mark.parametrize("paths, stage, message", [
    ({"network": ""}, ["net", "validate"], "paths.network names no file"),
    ({"network": " , "}, ["net", "validate"], "paths.network names no file"),
    ({"measurements": "{ws}/measurements.csv", "output_dir": ""}, ["data", "ingest"],
     "paths.output_dir names no directory"),
], ids=["network-empty", "network-blanks", "output-dir-empty"])
def test_config_paths_given_empty_are_refused(ws, tmp_path, capsys, monkeypatch,
                                              paths, stage, message):
    # an empty path in the config names no file, as an empty flag does; it
    # is not the config's own directory
    monkeypatch.chdir(tmp_path)
    project = tmp_path / "project.json"
    project.write_text(json.dumps({"paths": {
        k: v.format(ws=ws) for k, v in paths.items()
    }}) + "\n")
    assert run([*stage, "--config", project]) == 2
    assert capsys.readouterr().err == f"error: {project}: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["project.json"]


def test_data_ingest_outputs_are_pinned(tmp_path, capsys):
    # two weeks of three detectors, one with a comma in its id; d1 misses a
    # window on the 6th and d2 reports one twice on the 12th, so each keeps
    # 5 of the 6 Tue/Wed/Thu days and the quoted id all 6
    rows = []
    for d, det in enumerate(("d1", "d2", '"a,b"')):
        for day in range(4, 18):
            date = f"2023-09-{day:02d}"
            for w in range(96):
                if (det, day, w) == ("d1", 6, 10):
                    continue
                count = (7 * w + 13 * d + 31 * day) % 50 + (w // 24) * 9
                rows.append(f"{det},{date},{w * 900},{count}")
                if (det, day, w) == ("d2", 12, 20):
                    rows.append(f"{det},{date},{w * 900},{count + 5}")
    path = tmp_path / "loops.csv"
    path.write_text("detector_id,date,window_start_s,count\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert run(["data", "ingest", "--measurements", path, "--output-dir", out]) == 0
    assert "days used a,b=6, d1=5, d2=5" in capsys.readouterr().out
    # any change to the reader or to `ingest` must leave these bytes alone
    assert digest(out / "real_series.csv") == (
        "245351fad0a0592afb802725a473ca30e0119d889f159a28ed1ff590902e064b")
    assert digest(out / "ingest_summary.json") == (
        "cc2f53f0ac2061b4cbe9356ef528604feba73c379772d8b99709fdce6afa9cca")


@pytest.mark.parametrize("bad_cells, message", [
    ("0,-1", "record for 'd1': negative count"),
    ("450,1", "record for 'd1': window_start 450 not a quarter-hour of the day"),
])
@pytest.mark.parametrize("bad_day, flags", [
    ("2023-09-09", []),  # a Saturday, outside the default Tue/Wed/Thu
    ("2023-09-06", ["--exclude-dates", "2023-09-06"]),  # an excluded Wednesday
])
def test_data_ingest_checks_rows_on_dropped_days(tmp_path, capsys, bad_cells, message,
                                                 bad_day, flags):
    # the filter would drop the bad row's day, yet the row must still fail
    rows = [f"d1,{TUESDAY},{w * 900},3" for w in range(96)]
    rows.insert(40, f"d1,{bad_day},{bad_cells}")
    path = tmp_path / "loops.csv"
    path.write_text("detector_id,date,window_start_s,count\n" + "\n".join(rows) + "\n")
    rc = run(["data", "ingest", "--measurements", path, *flags,
              "--output-dir", tmp_path / "out"])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"error: MeasurementFormatError: {path}: line 42: {message}\n"
    )


# -- import footprint ----------------------------------------------------------

FOOTPRINT = """
import json, sys
from trafcal import cli

def loaded():
    heavy = ("concurrent.futures.process", "multiprocessing", "hashlib")
    return [name for name in heavy if name in sys.modules]

ws, out = sys.argv[1:]
scenario = ["--network", f"{ws}/net.json", "--routes", f"{ws}/routes.json",
            "--detectors", f"{ws}/detectors.json"]
stages = {"import": loaded()}
assert cli.main(["sim", "run", *scenario, "--output-dir", f"{out}/sim"]) == 0
stages["sim run"] = loaded()
assert cli.main(["calib", "sweep", *scenario, "--measurements", f"{ws}/measurements.csv",
                 "--p-min", "0", "--p-max", "1", "--grid-step", "0.5", "--workers", "2",
                 "--output-dir", f"{out}/sweep"]) == 0
stages["calib sweep"] = loaded()
print(json.dumps(stages))
"""


def test_only_a_pooled_sweep_loads_the_process_pool(ws, tmp_path):
    # a fresh interpreter: this one has loaded every module the tests use
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, str(ws), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout.splitlines()[-1])
    assert stages["import"] == []
    assert stages["sim run"] == []
    assert "concurrent.futures.process" in stages["calib sweep"]


# -- installed entry point -----------------------------------------------------


def test_console_script_runs():
    proc = subprocess.run(
        ["trafcal", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "trafcal" in proc.stdout


def test_module_api_matches_script(ws, capsys):
    # the same argv goes through main() and the installed script
    argv = ["net", "validate", "--network", str(ws / "net.json")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    proc = subprocess.run(
        ["trafcal", *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert "0 violations" in proc.stdout
