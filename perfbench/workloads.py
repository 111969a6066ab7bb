"""The three benchmark workloads.

Each workload sets up its inputs from the seed, then runs timed passes.
A pass is a fixed list of operations (a CLI stage, a simulation, or an
ingest); every operation is checked by an oracle and counted.

- twin-pipeline: the paper's calibration loop on the twin fixture, as a
  user runs it through the CLI. The only workload that reaches
  `equilibrium`, the `calibrate` process pool, rerouting, Dijkstra inside
  the engine, detectors and bus stops; it also has a large insertion
  backlog.
- rush-day: three day-long runs of the 5x5 static-signal grid with 5,000
  rush-hour trips each, rerouting off, no detectors, no bus lines. Almost
  all of its time is car-following and movement; it makes no Dijkstra
  calls inside the engine and keeps a near-empty insertion backlog.
- loops-ingest: about 1 M synthetic loop-count records with planted
  faulty days, ingested by the CLI. No simulation; the CSV write sits in
  set-up and the read in the timed part.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time

import loopgen
import oracles
import tracing
from trafcal import cli, dataio, demandgen, fixtures
from trafcal.microsim import SimConfig, Simulation

RUSH_TRIPS = 5000
RUSH_SEEDS = 3
# a coarse sweep that still contains the hidden p = 0.6: 0.0, 0.3, 0.6, 0.9
TWIN_SWEEP = {"p_min": 0.0, "p_max": 0.9, "step": 0.3}
# two assignment iterations: the first re-routes, the second re-simulates
TWIN_EQUILIBRIUM = {"max_iter": 2, "tol": 0.05, "window": 2}
TWIN_OUTPUTS = (
    "routes.json", "dua_routes.json", "dua_metrics.csv", "sweep.csv",
    "report.json", "per_window.csv", "per_detector.csv",
)
INGEST_OUTPUTS = ("real_series.csv", "ingest_summary.json")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_json(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class Ops:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)
        return not problems


def timed(fn, *args):
    """Run one operation; returns (result, seconds)."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def sweep_workers() -> int:
    return min(len(os.sched_getaffinity(0)), 2)


class Workload:
    """Base: `setup(i)` prepares inputs (index 0 is kept for the passes),
    `run_pass(tracer)` returns {operation: seconds} or None when an
    operation failed; after a pass, `digests` holds SHA-256 of its
    outputs. `workload_metrics(stage_s)` turns the per-operation times of
    the untraced passes into {name: (values, unit)}."""

    def __init__(self, seed: int, work_dir: str, ops: Ops):
        self.seed = seed
        self.work_dir = work_dir
        self.ops = ops
        self.digests: dict[str, str] = {}

    def _cli(self, tracer, stage: str, argv: list[str]) -> list[str]:
        """Run one CLI stage in-process; returns its violations."""
        captured = io.StringIO()
        span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            with span:
                code = cli.main(argv)
        problems = oracles.check_exit(stage, code)
        if problems:
            problems.append(captured.getvalue().strip()[-500:])
        return problems


class TwinPipeline(Workload):
    name = "twin-pipeline"

    def setup(self, index: int) -> None:
        out = os.path.join(self.work_dir, f"twin{index}")
        os.makedirs(out)
        cfg_path = os.path.join(out, "bench_config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"equilibrium": TWIN_EQUILIBRIUM, "sweep": TWIN_SWEEP}, fh)
        problems = self._cli(None, "fixture_make", [
            "fixture", "make", "--config", cfg_path, "--seed", str(self.seed),
            "--output-dir", out,
        ])
        self.ops.record("fixture make", problems)
        if index == 0:
            self.out = out

    def run_pass(self, tracer):
        project = os.path.join(self.out, "project.json")
        stages = (
            ("demand_generate", ["demand", "generate"], None),
            ("dua_iterate", ["dua", "iterate"], None),
            ("calib_sweep", ["calib", "sweep", "--workers", str(sweep_workers())],
             oracles.check_sweep),
            ("report_validate", ["report", "validate"], oracles.check_report),
        )
        times = {}
        for stage, argv, check in stages:
            problems, elapsed = timed(
                self._cli, tracer, stage, argv + ["--config", project]
            )
            if not problems and check is not None:
                problems = check(self.out)
            if not self.ops.record(stage, problems):
                return None
            times[stage] = elapsed
        self.digests = {
            name: sha256_file(os.path.join(self.out, name)) for name in TWIN_OUTPUTS
        }
        return times

    def workload_metrics(self, stage_s):
        return {
            "dua_s": (stage_s["dua_iterate"], "s"),
            "sweep_s": (stage_s["calib_sweep"], "s"),
            "report_s": (stage_s["report_validate"], "s"),
        }


class RushDay(Workload):
    name = "rush-day"

    def setup(self, index: int) -> None:
        net = fixtures.grid_network()
        plans = []
        for s in range(self.seed, self.seed + RUSH_SEEDS):
            trips = fixtures.rush_trips(net, RUSH_TRIPS, seed=s)
            plans.append((s, demandgen.expand_routes(trips, net).routes))
        if index == 0:
            self.net, self.plans = net, plans

    def run_pass(self, tracer):
        times = {}
        self.veh_steps = 0.0
        for s, plans in self.plans:
            config = SimConfig(seed=s)
            try:
                out, times[f"run_{s}"] = timed(
                    lambda: Simulation(self.net, plans, config).run()
                )
            except Exception as exc:  # noqa: BLE001 - an oracle or the engine failed
                self.ops.record(f"run seed {s}", [f"{type(exc).__name__}: {exc}"])
                return None
            self.ops.record(f"run seed {s}", [])
            self.digests[f"totals_seed{s}"] = sha256_json(out.totals)
            self.veh_steps += tracing.vehicle_steps(out, config.step_length)
        return times

    def workload_metrics(self, stage_s):
        walls = [sum(t) for t in zip(*stage_s.values())]
        return {"veh_steps_per_s": ([self.veh_steps / w for w in walls], "1/s")}


class LoopsIngest(Workload):
    name = "loops-ingest"

    def setup(self, index: int) -> None:
        data = loopgen.generate(self.seed)
        path = os.path.join(self.work_dir, f"loops{index}.csv")
        dataio.write_measurements_csv(data.records, path)
        if index == 0:
            self.csv_path = path
            self.n_records = len(data.records)
            self.exclude = ",".join(d.isoformat() for d in data.exclude_dates)
            self.expected = data.expected_days
        else:
            os.remove(path)

    def run_pass(self, tracer):
        out = os.path.join(self.work_dir, "ingest")
        problems, elapsed = timed(self._cli, tracer, "data_ingest", [
            "data", "ingest", "--measurements", self.csv_path,
            "--include-weekdays", loopgen.INCLUDE_WEEKDAYS,
            "--exclude-dates", self.exclude, "--output-dir", out,
        ])
        if not problems:
            problems = oracles.check_days_used(
                os.path.join(out, "ingest_summary.json"), self.expected
            )
        if not self.ops.record("data ingest", problems):
            return None
        self.digests = {name: sha256_file(os.path.join(out, name)) for name in INGEST_OUTPUTS}
        return {"data_ingest": elapsed}

    def workload_metrics(self, stage_s):
        return {
            "records_per_s": ([self.n_records / t for t in stage_s["data_ingest"]], "1/s"),
        }


WORKLOADS = {w.name: w for w in (TwinPipeline, RushDay, LoopsIngest)}
