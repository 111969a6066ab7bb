"""Detector-count calibration: NRMSE objective, evaluator and sweep.

An `Evaluator` runs one simulation per theta, a set of `SimConfig` fields,
and scores it by the normalized root mean square error between aggregated
real and simulated detector series. The sweep evaluates every grid
probability and picks the one with the smallest error (ties to the smaller).
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from trafcal import netmodel
from trafcal.microsim import BusLine, Detector, RoutePlan, SimConfig, Simulation, check_run
from trafcal.microsim.engine import SimOutput
from trafcal.microsim.simio import DAY_S, WINDOW_S, WINDOWS_PER_DAY

SWEEP_BEST_HEADER = ("best_p", "best_nrmse")
# p is written with 4 decimals, so a finer grid would write distinct
# points as the same number
MIN_GRID_STEP = 0.0001


class ZeroMeanError(ValueError):
    """Raised when the measured series has zero mean and cannot normalize."""


class LengthMismatchError(ValueError):
    """Raised when the two series disagree in length."""


class DetectorMismatchError(ValueError):
    def __init__(self, missing: list[str], extra: list[str]):
        super().__init__(
            f"detector sets differ: missing from sim {missing}, unexpected {extra}"
        )
        self.missing = missing
        self.extra = extra


@dataclass(frozen=True)
class DetectorSeries:
    """One detector's daily counts in 96 quarter-hour windows."""

    detector_id: str
    counts: tuple[float, ...]

    def __post_init__(self):
        if len(self.counts) != WINDOWS_PER_DAY:
            raise ValueError(
                f"detector '{self.detector_id}': expected {WINDOWS_PER_DAY} "
                f"windows, got {len(self.counts)}"
            )
        for x in self.counts:
            if not math.isfinite(x) or x < 0:
                raise ValueError(
                    f"detector '{self.detector_id}': counts must be finite and >= 0"
                )


@dataclass(frozen=True)
class GridSpec:
    p_min: float = netmodel.bounded("[0, 1]", 0.0)
    p_max: float = netmodel.bounded("[0, 1]", 1.0)
    step: float = netmodel.bounded("(0, inf)", 0.01)

    def __post_init__(self):
        # before any arithmetic: round() of an infinity or NaN raises an
        # error that names no field
        netmodel.check_bounds(self)
        # every point must read back from sweep_best.csv as the p it was
        if self.step < MIN_GRID_STEP:
            raise ValueError(
                f"step must be >= {MIN_GRID_STEP}, got {self.step}:"
                " sweep.csv and sweep_best.csv write p with 4 decimals"
            )
        for key in ("p_min", "step"):
            value = getattr(self, key)
            if abs(value / MIN_GRID_STEP - round(value / MIN_GRID_STEP)) > 1e-6:
                raise ValueError(
                    f"{key} must be a multiple of {MIN_GRID_STEP}, got {value}:"
                    " sweep.csv and sweep_best.csv write p with 4 decimals"
                )
        if not self.p_min <= self.p_max:
            raise ValueError("grid bounds must satisfy p_min <= p_max")

    def points(self) -> list[float]:
        out = []
        i = 0
        while True:
            p = round(self.p_min + i * self.step, 10)
            if p > self.p_max + 1e-12:
                break
            out.append(min(p, 1.0))
            i += 1
        return out


@dataclass(frozen=True)
class Run:
    """One simulation's theta (the `SimConfig` fields it set), NRMSE and series."""

    theta: dict[str, float]
    nrmse: float
    series: list[DetectorSeries]


@dataclass
class SweepResult:
    entries: list[Run]  # in grid order
    best: Run


def nrmse(real: Sequence[float], sim: Sequence[float]) -> float:
    """Root mean square deviation normalized by the mean of the measured
    series (and only the measured one)."""
    if len(real) != len(sim):
        raise LengthMismatchError(
            f"series lengths differ: {len(real)} vs {len(sim)}"
        )
    if not real:
        raise LengthMismatchError("series must contain at least one value")
    n = len(real)
    mean_real = math.fsum(real) / n
    if mean_real <= 0:
        raise ZeroMeanError("mean of the measured series must be > 0")
    sq = math.fsum((r - s) * (r - s) for r, s in zip(real, sim))
    return math.sqrt(sq / n) / mean_real


def aggregate_series(series: Sequence[DetectorSeries]) -> list[float]:
    """Window-wise total over detectors."""
    if not series:
        raise ValueError("aggregate needs at least one series")
    out = [0.0] * WINDOWS_PER_DAY
    for s in series:
        for i, x in enumerate(s.counts):
            out[i] += x
    return out


def sim_series(out: SimOutput) -> list[DetectorSeries]:
    """Detector series from a simulation run, in detector-id order."""
    return [
        DetectorSeries(det_id, tuple(float(x) for x in out.detector_counts[det_id]))
        for det_id in sorted(out.detector_counts)
    ]


def check_detector_sets(real_ids: set[str], sim_ids: set[str]) -> None:
    """Refuse to score simulated detectors other than the measured ones, or
    no detectors at all."""
    if real_ids != sim_ids:
        raise DetectorMismatchError(sorted(real_ids - sim_ids), sorted(sim_ids - real_ids))
    if not real_ids:
        raise ValueError("scoring needs at least one detector")


def check_scored_day(config: SimConfig) -> None:
    """Refuse a run that is not the measured day: the engine counts its
    windows from `begin`, the measurements theirs from midnight."""
    if config.begin != 0 or config.end != DAY_S:
        raise ValueError(
            f"scoring needs a run from 0 to {DAY_S:g} s,"
            f" got {config.begin:g} to {config.end:g} s"
        )


@dataclass
class Evaluator:
    """Runs and scores simulations of one scenario against the measured
    series; refuses detectors other than those of `real`, a scenario the
    engine cannot run (`microsim.check_run`), and a run or detector window
    that does not give the day's quarter-hours (`check_scored_day`), before
    any simulation."""

    net: netmodel.RoadNetwork
    plans: list[RoutePlan]
    detectors: list[Detector]
    real: list[DetectorSeries]
    base: SimConfig
    bus_lines: Sequence[BusLine] = ()

    def __post_init__(self):
        check_scored_day(self.base)
        check_detector_sets({s.detector_id for s in self.real}, {d.id for d in self.detectors})
        check_run(self.net, self.plans, self.base, self.detectors, self.bus_lines)
        for d in self.detectors:
            if d.window != WINDOW_S:
                raise ValueError(f"detector '{d.id}': scoring needs a {WINDOW_S:g} s window, got {d.window:g} s")
        self.real_total = aggregate_series(self.real)

    def evaluate(self, theta: dict[str, float]) -> Run:
        """Simulate `base` with the `SimConfig` fields in `theta` set."""
        cfg = dataclasses.replace(self.base, **theta)
        try:
            out = Simulation(self.net, self.plans, cfg, self.detectors, self.bus_lines).run()
        except Exception as exc:
            raise RuntimeError(f"simulation failed at {theta}: {exc}") from exc
        series = sim_series(out)
        return Run(theta, nrmse(self.real_total, aggregate_series(series)), series)

    def evaluate_all(self, thetas: list[dict[str, float]], workers: int) -> list[Run]:
        """`evaluate` of each theta, in input order, on up to `workers`
        processes, which receive this evaluator once and then each theta."""
        # a fork pool starts all its processes at once, needed or not
        workers = min(workers, len(thetas))
        if workers <= 1:
            return [self.evaluate(theta) for theta in thetas]
        # imported here, so only a pooled sweep loads multiprocessing and logging
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(self,)
        ) as pool:
            return list(pool.map(_evaluate_in_worker, thetas))


# the evaluator of the pool a worker process serves, set once in each worker
_worker_evaluator: Optional[Evaluator] = None


def _init_worker(evaluator: Evaluator) -> None:
    global _worker_evaluator
    _worker_evaluator = evaluator


def _evaluate_in_worker(theta: dict[str, float]) -> Run:
    return _worker_evaluator.evaluate(theta)


def sweep_rerouting_probability(
    net: netmodel.RoadNetwork,
    routes: list[RoutePlan],
    detectors: list[Detector],
    real: list[DetectorSeries],
    grid: GridSpec = GridSpec(),
    base_config: Optional[SimConfig] = None,
    bus_lines: Sequence[BusLine] = (),
    workers: int = 1,
) -> SweepResult:
    """Score every grid probability with the same routes and the seed and
    other settings of `base_config`, on up to `workers` processes; the
    outcome is the same however many ran."""
    base = base_config if base_config is not None else SimConfig()
    thetas = [{"rerouting_probability": p} for p in grid.points()]
    entries = Evaluator(net, routes, detectors, real, base, bus_lines).evaluate_all(thetas, workers)
    best = min(entries, key=lambda run: (run.nrmse, run.theta["rerouting_probability"]))
    return SweepResult(entries, best)


def simulation_key(input_paths: Sequence[Optional[str]], config: SimConfig) -> str:
    """SHA-256 that names one simulation run: the bytes of each input file
    in order (None, an input not given, hashes as a fixed marker), every
    field of `config`, the Python version and the source of this package.
    Runs with equal keys give equal outputs."""
    # imported here, so only the stages that key a run load OpenSSL
    import hashlib

    h = hashlib.sha256()

    def part(label: str, data: bytes) -> None:
        h.update(f"{label} {len(data)}\n".encode())
        h.update(data)

    for path in input_paths:
        if path is None:
            part("absent", b"")
        else:
            with open(path, "rb") as fh:
                part("file", fh.read())
    part("config", json.dumps(netmodel.record_to(config), sort_keys=True).encode())
    part("python", sys.version.encode())
    package = Path(__file__).resolve().parent
    for source in sorted(package.rglob("*.py")):
        part(source.relative_to(package).as_posix(), source.read_bytes())
    return h.hexdigest()


def _csv_row(run: Run) -> tuple[str, str]:
    return f"{run.theta['rerouting_probability']:.4f}", f"{run.nrmse:.6f}"


def write_sweep_csv(result: SweepResult, path) -> None:
    netmodel.write_csv(path, ("p", "nrmse"), map(_csv_row, result.entries))


def write_sweep_best(result: SweepResult, path) -> None:
    netmodel.write_csv(path, SWEEP_BEST_HEADER, [_csv_row(result.best)])


def read_sweep_best(path) -> tuple[float, float]:
    """The (best p, best NRMSE) row `write_sweep_best` wrote."""
    rows = netmodel.read_csv(
        path, SWEEP_BEST_HEADER, ValueError, lambda row: (float(row[0]), float(row[1]))
    )
    if len(rows) != 1:
        raise ValueError(f"{path}: expected one summary row, found {len(rows)}")
    return rows[0]


@dataclass(frozen=True)
class SweptSeries:
    """The record of `sweep_best_series.json`."""

    inputs: str
    p: float
    counts: dict[str, tuple[int, ...]]


def write_best_series(result: SweepResult, inputs: str, path) -> None:
    """The best point's simulated counts, under `inputs`, the
    `simulation_key` of the run that made them."""
    counts = {s.detector_id: tuple(int(x) for x in s.counts) for s in result.best.series}
    p = result.best.theta["rerouting_probability"]
    netmodel.write_json(netmodel.record_to(SweptSeries(inputs, p, counts)), path)


def read_best_series(path) -> tuple[str, list[DetectorSeries]]:
    """The (inputs, series) `write_best_series` wrote; a file of any other
    shape is a ValueError."""
    swept = netmodel.read_record(path, SweptSeries, ValueError)
    series = [
        DetectorSeries(det_id, tuple(float(x) for x in values))
        for det_id, values in sorted(swept.counts.items())
    ]
    return swept.inputs, series
