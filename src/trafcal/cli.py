"""Command-line pipeline driver.

One executable, eight subcommands: validate a network, generate demand,
run a simulation, iterate to user equilibrium, sweep the rerouting
probability, ingest measurements, emit a validation report, and write the
bundled fixtures. Every run takes its inputs from an optional project
config file plus flags (flags win) and logs with the active seed so runs
can be reproduced exactly.

Exit codes: 0 success, 1 validation violations, 2 usage error, 3 runtime
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import os
import sys
import typing

from trafcal import calibrate, dataio, demandgen, equilibrium, fixtures, netmodel
from trafcal.microsim import (
    SimConfig,
    Simulation,
    load_bus_lines,
    load_detectors,
    load_route_plans,
    save_bus_lines,
    save_detectors,
    save_route_plans,
    write_detector_csv,
    write_running_csv,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

# every sweep run's simulated counts, kept for `report validate`
SWEPT_SERIES = "sweep_series.json"

# each settings section of a project config: the record it becomes and the
# label of the error its range check raises; `_SECTION_KEYS`, after the
# subcommand table, lists the keys of every object section
_SECTIONS = {
    "sim": (SimConfig, "simulation settings"),
    "demand": (demandgen.DemandConfig, "demand settings"),
    "sweep": (calibrate.GridSpec, "sweep grid"),
    "equilibrium": (equilibrium.DuaConfig, "assignment settings"),
}


class UsageError(Exception):
    pass


@dataclasses.dataclass
class ProjectConfig:
    """The record of a project config file."""

    seed: int = 0
    workers: int = 1
    paths: dict[str, str] = dataclasses.field(default_factory=dict)
    sim: dict[str, typing.Any] = dataclasses.field(default_factory=dict)
    demand: dict[str, typing.Any] = dataclasses.field(default_factory=dict)
    sweep: dict[str, typing.Any] = dataclasses.field(default_factory=dict)
    equilibrium: dict[str, typing.Any] = dataclasses.field(default_factory=dict)


def load_project(path) -> ProjectConfig:
    """Read a project config: `paths` may hold only known path keys, each
    naming a file or directory, and each section only its own keys."""
    cfg = netmodel.read_record(path, ProjectConfig, UsageError)
    for key, known in _SECTION_KEYS.items():
        bad = set(getattr(cfg, key)) - set(known)
        if bad:
            raise UsageError(f"{path}: unknown {key} keys {sorted(bad)}")
    for k, v in cfg.paths.items():
        _given(f"{path}: paths.{k}", v, "directory" if k == "output_dir" else "file")
    # relative paths are taken relative to the config file's directory
    base = os.path.dirname(os.path.abspath(path))
    return dataclasses.replace(cfg, paths={
        k: v if os.path.isabs(v) else os.path.join(base, v) for k, v in cfg.paths.items()
    })


class _Ctx:
    """Resolved invocation: config file values overlaid with flags."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        config = _given("--config", args.config, "file")
        self.cfg = load_project(config) if config is not None else ProjectConfig()
        self.seed = args.seed if args.seed is not None else self.cfg.seed
        workers = getattr(args, "workers", None)
        self.workers = workers if workers is not None else self.cfg.workers
        if self.workers < 1:
            raise UsageError(f"workers must be >= 1, got {self.workers}")
        out = _given("--output-dir", args.output_dir, "directory")
        self.output_dir = out if out is not None else self.cfg.paths.get("output_dir", ".")

    def log(self, msg: str) -> None:
        print(f"[seed {self.seed}] {msg}", file=sys.stderr)

    def path(self, key: str, required: bool = True):
        flag = "--" + key.replace("_", "-")
        value = _given(flag, getattr(self.args, key), "file")
        if value is None:
            value = self.cfg.paths.get(key)
        if value is None and required:
            raise UsageError(f"missing {flag} (not given and not in config)")
        return value

    def out_path(self, name: str) -> str:
        os.makedirs(self.output_dir, exist_ok=True)
        return os.path.normpath(os.path.join(self.output_dir, name))

    def settings(self, section: str, base=None, **overrides):
        """The record of a settings section. Each later source wins: the
        record's defaults, `base`, the config section, the flags named like
        its keys, the `overrides`, then the run seed for a record with a
        seed, which nothing overrides. A value of the wrong type or out of
        its range is a usage error."""
        cls, label = _SECTIONS[section]
        values = netmodel.record_to(base) if base is not None else {}
        values.update(getattr(self.cfg, section))
        for key in _SECTION_KEYS[section]:
            flag = getattr(self.args, key, None)
            if flag is not None:
                values[key] = flag
        values.update(overrides)
        if "seed" in cls.__dataclass_fields__:
            values["seed"] = self.seed
        where = f"{self.args.config}: {section}"
        try:
            return netmodel.record_from(cls, values, where, UsageError)
        except UsageError as exc:
            if not isinstance(exc.__cause__, ValueError):  # a wrong type
                raise
            # what follows `where` is the message, after the name of the
            # nested record it comes from, such as "car: "
            raise UsageError(f"bad {label}: {str(exc)[len(where) + 1:].lstrip()}") from exc


def _scenario(ctx: _Ctx, detectors_required: bool) -> tuple:
    """The paths of the scenario's files (network, routes, detectors or
    None, bus lines or None), then the network, plans, detectors and bus
    lines they hold."""
    paths = (
        ctx.path("network"),
        ctx.path("routes"),
        ctx.path("detectors", detectors_required),
        ctx.path("bus_lines", required=False),
    )
    net = netmodel.load_network(paths[0])
    plans = load_route_plans(paths[1])
    detectors = load_detectors(paths[2]) if paths[2] else []
    lines = load_bus_lines(paths[3]) if paths[3] else []
    return paths, net, plans, detectors, lines


def _swept_run(ctx: _Ctx, paths, config: SimConfig, detectors) -> typing.Optional[calibrate.Run]:
    """The run `calib sweep` kept for `config` on `paths`, or None, with
    the reason logged, when there is none to reuse."""
    path = os.path.normpath(os.path.join(ctx.output_dir, SWEPT_SERIES))
    if not os.path.exists(path):
        ctx.log(f"no {SWEPT_SERIES}: simulating")
        return None
    try:
        runs = netmodel.read_records(path, "runs", calibrate.Run, ValueError)
    except (OSError, ValueError) as exc:
        ctx.log(f"unreadable {SWEPT_SERIES} ({exc}): simulating")
        return None
    key = calibrate.simulation_key(paths, config)
    kept = next((run for run in runs if run.key == key), None)
    if kept is None:
        ctx.log(f"{SWEPT_SERIES} holds no run of these inputs and settings: simulating")
        return None
    if sorted(kept.counts) != sorted(d.id for d in detectors):
        ctx.log(f"{SWEPT_SERIES} names other detectors: simulating")
        return None
    # equal keys are equal settings, so the kept run is at this p
    ctx.log(f"reusing the swept counts of p={config.rerouting_probability} in {path}")
    return kept


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_net_validate(ctx: _Ctx) -> int:
    net = netmodel.load_network(ctx.path("network"))
    violations = netmodel.validate_network(net)
    ctx.log(f"checked {len(net.edges)} edges, {len(net.junctions)} junctions")
    print(f"{len(violations)} violations")
    for v in violations:
        print(f"{v.code} {v.subject_id}: {v.message}")
    return EXIT_VIOLATIONS if violations else EXIT_OK


def _generate_trips(
    ctx: _Ctx, stats: demandgen.Statistics, net: netmodel.RoadNetwork
) -> list[demandgen.Trip]:
    """`demandgen.generate_trips`, logging how many departures it clamped
    into the day: a shift hour written in hours, not seconds, causes that."""
    trips = demandgen.generate_trips(stats, net)
    clamped = sum(t.depart in (0.0, demandgen.LAST_DEPART_S) for t in trips)
    if clamped:
        ctx.log(
            f"{clamped} of {len(trips)} departures sit at the first or last second "
            "of the day, where generation clamps them; opening_h and closing_h "
            "are seconds of the day"
        )
    return trips


def cmd_demand_generate(ctx: _Ctx) -> int:
    # the statistics file's `config` is the base the demand settings overlay
    stats = demandgen.load_statistics(ctx.path("statistics"))
    stats = dataclasses.replace(stats, config=ctx.settings("demand", base=stats.config))
    net = netmodel.load_network(ctx.path("network"))
    trips = _generate_trips(ctx, stats, net)
    expanded = demandgen.expand_routes(trips, net)
    trips_path = ctx.out_path("trips.json")
    routes_path = ctx.out_path("routes.json")
    demandgen.write_trips(trips, trips_path)
    save_route_plans(expanded.routes, routes_path)
    ctx.log(f"generated {len(trips)} trips -> {trips_path}")
    ctx.log(f"expanded {len(expanded.routes)} routes -> {routes_path}")
    if expanded.no_path:
        ctx.log(f"{len(expanded.no_path)} trips had no route and were left out")
    print(f"{len(trips)} trips, {len(expanded.routes)} routed")
    return EXIT_OK


def cmd_sim_run(ctx: _Ctx) -> int:
    config = ctx.settings("sim")
    _, net, plans, detectors, lines = _scenario(ctx, detectors_required=False)
    ctx.log(f"simulating {len(plans)} vehicles, p={config.rerouting_probability}")
    out = Simulation(net, plans, config, detectors, lines).run()
    if detectors:
        write_detector_csv(
            out.detector_counts, out.detector_window, out.begin,
            ctx.out_path("detector_counts.csv"),
        )
    write_running_csv(out.running, ctx.out_path("running.csv"))
    netmodel.write_json(dict(sorted(out.totals.items())), ctx.out_path("sim_summary.json"))
    ctx.log(f"outputs in {ctx.output_dir}")
    print(
        f"arrived {int(out.totals['arrived'])}/{int(out.totals['departed'])}"
        f" avg_travel_time {out.totals['avg_travel_time']:.1f}s"
    )
    return EXIT_OK


def cmd_dua_iterate(ctx: _Ctx) -> int:
    config = ctx.settings("sim")
    params = ctx.settings("equilibrium")
    net = netmodel.load_network(ctx.path("network"))
    trips = demandgen.read_trips(ctx.path("trips"))
    ctx.log(f"assignment over {len(trips)} trips, {params}")
    result = equilibrium.dua_iterate(net, trips, config, params)
    routes_path = ctx.out_path("dua_routes.json")
    save_route_plans(result.final_plans, routes_path)
    equilibrium.write_metrics_csv(result.metrics, ctx.out_path("dua_metrics.csv"))
    last = result.metrics[-1]
    ctx.log(
        f"{'converged' if result.converged else 'stopped'} after "
        f"{len(result.metrics)} iterations -> {routes_path}"
    )
    if result.no_path:
        ctx.log(f"{len(result.no_path)} trips had no route and were left out")
    print(
        f"iterations {len(result.metrics)} converged {result.converged}"
        f" avg_travel_time {last.avg_travel_time:.1f}s"
    )
    return EXIT_OK


def cmd_calib_sweep(ctx: _Ctx) -> int:
    grid = ctx.settings("sweep")
    config = ctx.settings("sim")
    paths, net, plans, detectors, lines = _scenario(ctx, detectors_required=True)
    real = dataio.ingest(dataio.read_measurements_csv(ctx.path("measurements"))).series
    ctx.log(
        f"sweeping p over [{grid.p_min}, {grid.p_max}] step {grid.step}"
        f" with {ctx.workers} workers"
    )
    result = calibrate.sweep_rerouting_probability(
        net, plans, detectors, real, grid,
        base_config=config, bus_lines=lines, workers=ctx.workers, inputs=paths,
    )
    calibrate.write_sweep_csv(result, ctx.out_path("sweep.csv"))
    calibrate.write_sweep_best(result, ctx.out_path("sweep_best.csv"))
    netmodel.write_records(result.entries, ctx.out_path(SWEPT_SERIES), "runs")
    ctx.log(f"swept {len(result.entries)} points -> {ctx.out_path('sweep.csv')}")
    ctx.log(f"kept the counts of {len(result.entries)} runs -> {ctx.out_path(SWEPT_SERIES)}")
    best, best_nrmse = result.best()
    print(f"best_p {best.theta['rerouting_probability']:.4f} best_nrmse {best_nrmse:.6f}")
    return EXIT_OK


def _parse_date(text: str) -> datetime.date:
    try:
        return dataio.iso_date(text)
    except ValueError as exc:
        raise UsageError(f"bad date '{text}': {exc}") from exc


def _given(flag: str, text: typing.Optional[str], what: str) -> typing.Optional[str]:
    """The value of `flag` (a flag, or a config key with its file), None
    if it was not given. A value of only commas and whitespace names no
    `what`: it is refused, not read as the flag's absence."""
    if text is not None and not text.replace(",", " ").strip():
        raise UsageError(f"{flag} names no {what}")
    return text


def _ingestion_filter(args: argparse.Namespace) -> dataio.IngestionFilter:
    kwargs = {}
    weekdays = _given("--include-weekdays", args.include_weekdays, "weekday")
    if weekdays is not None:
        names = [name.strip() for name in weekdays.split(",")]
        for name in names:
            if name not in dataio.WEEKDAY_NAMES:
                raise UsageError(f"unknown weekday '{name}'")
        kwargs["include_weekdays"] = frozenset(dataio.WEEKDAY_NAMES[name] for name in names)
    excluded = _given("--exclude-dates", args.exclude_dates, "date")
    if excluded is not None:
        kwargs["exclude_dates"] = frozenset(_parse_date(d.strip()) for d in excluded.split(","))
    first = _given("--date-from", args.date_from, "date")
    last = _given("--date-to", args.date_to, "date")
    if first is not None or last is not None:
        if first is None or last is None:
            raise UsageError("--date-from and --date-to must be given together")
        kwargs["date_range"] = (_parse_date(first), _parse_date(last))
    try:
        return dataio.IngestionFilter(**kwargs)
    except ValueError as exc:
        raise UsageError(f"bad ingestion filter: {exc}") from exc


def cmd_data_ingest(ctx: _Ctx) -> int:
    filt = _ingestion_filter(ctx.args)
    records = dataio.read_measurements_csv(ctx.path("measurements"))
    result = dataio.ingest(records, filt)
    series_path = ctx.out_path("real_series.csv")
    dataio.series_to_csv(result.series, 0.0, series_path)
    days_used = dict(sorted(result.days_used.items()))
    netmodel.write_json({"days_used": days_used}, ctx.out_path("ingest_summary.json"))
    ctx.log(f"{len(records)} records -> {len(result.series)} series ({series_path})")
    print(
        f"{len(result.series)} detectors, days used "
        + ", ".join(f"{k}={v}" for k, v in days_used.items())
    )
    return EXIT_OK


def cmd_report_validate(ctx: _Ctx) -> int:
    p = ctx.args.p
    if p is None:
        best_path = os.path.join(ctx.output_dir, "sweep_best.csv")
        if not os.path.exists(best_path):
            raise UsageError("--p not given and no sweep_best.csv in output dir")
        p = calibrate.read_sweep_best(best_path)[0]
    config = ctx.settings("sim", rerouting_probability=p)
    paths, net, plans, detectors, lines = _scenario(ctx, detectors_required=True)
    real = dataio.ingest(dataio.read_measurements_csv(ctx.path("measurements"))).series
    ctx.log(f"validation run at p={p}")
    run = _swept_run(ctx, paths, config, detectors)
    if run is None:
        run = calibrate.Evaluator(net, plans, detectors, real, config, lines, paths).evaluate({})
    report = dataio.validate(real, run.counts)
    dataio.write_report(
        report,
        ctx.out_path("report.json"),
        ctx.out_path("per_window.csv"),
        ctx.out_path("per_detector.csv"),
    )
    ctx.log(f"report in {ctx.output_dir}")
    print(
        f"scenario_nrmse {report.scenario_nrmse:.6f}"
        f" best {report.best_detector} worst {report.worst_detector}"
    )
    return EXIT_OK


def cmd_fixture_make(ctx: _Ctx) -> int:
    # the truth runs at the run seed, and so do the stages that read the
    # written project
    seed = ctx.seed
    scenario = fixtures.twin_scenario(seed)
    # the assignment runs these settings without rerouting
    truth_cfg = ctx.settings("sim", rerouting_probability=scenario.true_p)
    # the truth's counts become measurements, which hold one whole day
    calibrate.check_scored_day(truth_cfg)
    dua_params = ctx.settings("equilibrium", base=fixtures.TWIN_DUA)
    grid = ctx.settings("sweep", base=fixtures.TWIN_GRID)
    # the truth's demand, at the run seed like its simulation; the written
    # statistics carry it on to `demand generate`
    stats = dataclasses.replace(scenario.statistics, config=ctx.settings(
        "demand", base=scenario.statistics.config
    ))
    out = ctx.out_path  # ensures the directory exists

    grid_path = out("grid.net.json")
    netmodel.save_network(fixtures.grid_network(), grid_path)
    net_path = out("twin_network.json")
    netmodel.save_network(scenario.net, net_path)
    stats_path = out("statistics.json")
    demandgen.save_statistics(stats, stats_path)
    det_path = out("detectors.json")
    save_detectors(scenario.detectors, det_path)
    lines_path = out("bus_lines.json")
    save_bus_lines(scenario.bus_lines, lines_path)
    ctx.log(f"grid and twin inputs in {ctx.output_dir}")

    # ground truth: the exact pipeline a user will run, ending in one
    # simulation at the hidden true rerouting probability
    trips = _generate_trips(ctx, stats, scenario.net)
    ctx.log(f"twin demand: {len(trips)} trips")
    # only the routes are read, so the cap round that cannot change them
    # is not simulated
    dua = equilibrium.dua_iterate(
        scenario.net, trips, truth_cfg, dua_params, simulate_final=False
    )
    truth = Simulation(
        scenario.net, dua.final_plans, truth_cfg,
        scenario.detectors, scenario.bus_lines,
    ).run()
    records = []
    for det_id, counts in sorted(truth.detector_counts.items()):
        for date in fixtures.TWIN_DATES:
            for i, count in enumerate(counts):
                records.append(
                    dataio.RawMeasurement(det_id, date, i * dataio.WINDOW_S, count)
                )
    meas_path = out("measurements.csv")
    dataio.write_measurements_csv(records, meas_path)
    ctx.log(f"ground truth at p={scenario.true_p} -> {meas_path}")

    project = {
        "seed": seed,
        "workers": ctx.workers,
        "paths": {
            "network": "twin_network.json",
            "statistics": "statistics.json",
            "trips": "trips.json",
            "routes": "dua_routes.json",
            "detectors": "detectors.json",
            "bus_lines": "bus_lines.json",
            "measurements": "measurements.csv",
            "output_dir": ".",
        },
        "sim": ctx.cfg.sim,
        "sweep": netmodel.record_to(grid),
        "equilibrium": netmodel.record_to(dua_params),
    }
    netmodel.write_json(project, out("project.json"))
    print(f"fixtures written to {ctx.output_dir} (true p = {scenario.true_p})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Command:
    """One subcommand: its handler and help, the path keys it reads, the
    settings sections whose flags it takes, its own (flag, type, help), and
    the section keys that take no flag: those it sets itself, or that have
    one usable value (`calibrate.check_scored_day`)."""

    handler: typing.Callable[[_Ctx], int]
    help: str
    paths: tuple = ()
    sections: tuple = ()
    flags: tuple = ()
    sets: tuple = ()


_SCENARIO = ("network", "routes", "detectors", "bus_lines")
# the scoring stages set the probability and score the whole day only
_SCORED = ("begin", "end", "rerouting_probability")

# each group of subcommands and its help
_GROUPS = {
    "net": "network tools", "demand": "demand generation", "sim": "simulation",
    "dua": "user equilibrium", "calib": "calibration", "data": "measurement data",
    "report": "validation reports", "fixture": "bundled scenarios",
}

_COMMANDS = {
    ("net", "validate"): _Command(cmd_net_validate, "check a network file", ("network",)),
    ("demand", "generate"): _Command(
        cmd_demand_generate, "trips and free-flow routes", ("network", "statistics"),
    ),
    ("sim", "run"): _Command(cmd_sim_run, "run one simulation", _SCENARIO, ("sim",)),
    ("dua", "iterate"): _Command(
        cmd_dua_iterate, "iterate assignment to equilibrium",
        ("network", "trips"), ("sim", "equilibrium"), sets=("rerouting_probability",),
    ),
    ("calib", "sweep"): _Command(
        cmd_calib_sweep, "grid sweep of the rerouting probability",
        (*_SCENARIO, "measurements"), ("sim", "sweep"), (("--workers", int, None),),
        _SCORED,
    ),
    ("data", "ingest"): _Command(
        cmd_data_ingest, "average raw counts into daily series", ("measurements",),
        flags=(
            ("--include-weekdays", None, "comma list, e.g. Tue,Wed,Thu"),
            ("--exclude-dates", None, "comma list of ISO dates"),
            ("--date-from", None, None), ("--date-to", None, None),
        ),
    ),
    ("report", "validate"): _Command(
        cmd_report_validate, "score a simulation against data",
        (*_SCENARIO, "measurements"), ("sim",),
        (("--p", float, "rerouting probability to validate"),), _SCORED,
    ),
    ("fixture", "make"): _Command(cmd_fixture_make, "write the grid and twin fixtures"),
}

# the keys of each settings section that a flag overlays; each flag is named
# like its key, but `--grid-step` sets the sweep's `step`
_SECTION_FLAGS = {
    "sim": ("begin", "end", "step_length", "time_to_teleport", "ignore_junction_blocker",
            "rerouting_probability", "rerouting_period"),
    "equilibrium": ("max_iter", "tol", "window"),
    "sweep": ("p_min", "p_max", "step"),
}

# the keys each object section of a project config may hold; a record's
# `seed` is the run seed, which no section sets
_SECTION_KEYS = {
    "paths": (*dict.fromkeys(k for c in _COMMANDS.values() for k in c.paths), "output_dir"),
    **{
        section: tuple(f.name for f in dataclasses.fields(cls) if f.name != "seed")
        for section, (cls, _) in _SECTIONS.items()
    },
}


def _add_section_flags(sub: argparse.ArgumentParser, section: str, sets: tuple) -> None:
    types = typing.get_type_hints(_SECTIONS[section][0])
    for key in _SECTION_FLAGS[section]:
        if key in sets:
            continue
        flag = "--grid-step" if key == "step" else "--" + key.replace("_", "-")
        sub.add_argument(flag, dest=key, type=types[key])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafcal",
        description="microscopic traffic simulation and scenario calibration",
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups = {
        group: top.add_parser(group, help=text).add_subparsers(dest="action", required=True)
        for group, text in _GROUPS.items()
    }
    for (group, action), command in _COMMANDS.items():
        sub = groups[group].add_parser(action, help=command.help)
        sub.set_defaults(handler=command.handler)
        sub.add_argument("--config", help="project config JSON")
        sub.add_argument("--seed", type=int, help="override the run seed")
        sub.add_argument("--output-dir", help="directory for output files")
        # the path flags follow the first section's flags, where `--help`
        # has always listed them
        for section in command.sections[:1]:
            _add_section_flags(sub, section, command.sets)
        for key in command.paths:
            sub.add_argument("--" + key.replace("_", "-"))
        for section in command.sections[1:]:
            _add_section_flags(sub, section, command.sets)
        for flag, type_, text in command.flags:
            sub.add_argument(flag, type=type_, help=text)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        ctx = _Ctx(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(ctx)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - boundary: report, do not crash
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())
