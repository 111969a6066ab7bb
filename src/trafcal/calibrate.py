"""Detector-count calibration: run record, scorer, evaluator and sweep.

A day's counts are held one way: a mapping from detector id to its 96
quarter-hour window counts, as `dataio.ingest(...).series` gives the
measured day and `Run.counts` keeps a simulated one. An `Evaluator`
simulates one `Run` per theta, a set of `SimConfig` fields. `score`,
which the sweep and `dataio.validate` both call, gives a run's normalized
root mean square error against the measured counts, each summed over
detectors. The sweep evaluates every grid probability and picks the one
with the smallest error (ties to the smaller).
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from trafcal import netmodel
from trafcal.microsim import BusLine, Detector, RoutePlan, SimConfig, Simulation, check_run
from trafcal.microsim.simio import DAY_S, WINDOW_S, WINDOWS_PER_DAY

SWEEP_BEST_HEADER = ("best_p", "best_nrmse")
# p is written with 4 decimals, so a finer grid would write distinct
# points as the same number
MIN_GRID_STEP = 0.0001

# A day's counts: each detector id to its 96 quarter-hour window counts.
DayCounts = Mapping[str, Sequence[float]]


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


def check_day(counts: DayCounts) -> None:
    """Refuse a detector without exactly 96 window counts, or a count that
    is not finite and >= 0."""
    for det_id, values in counts.items():
        if len(values) != WINDOWS_PER_DAY:
            raise ValueError(
                f"detector '{det_id}': expected {WINDOWS_PER_DAY} windows, got {len(values)}"
            )
        for x in values:
            if not math.isfinite(x) or x < 0:
                raise ValueError(f"detector '{det_id}': counts must be finite and >= 0")


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
    """One simulated run, as `Evaluator.evaluate` returns it and
    `sweep_series.json` keeps it: the `simulation_key` of the run, its
    theta (the `SimConfig` fields it set) and its day: each detector id
    to its 96 integer window counts."""

    key: str
    theta: dict[str, float]
    counts: dict[str, tuple[int, ...]]

    def __post_init__(self):
        check_day(self.counts)  # a malformed day is refused on read


@dataclass
class SweepResult:
    entries: list[Run]  # in grid order
    scores: list[float]  # the `score` of each entry

    def best(self) -> tuple[Run, float]:
        """The entry of the smallest score, ties to the smaller p, and its score."""
        return min(zip(self.entries, self.scores), key=lambda e: (e[1], e[0].theta["rerouting_probability"]))


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


def aggregate_series(counts: DayCounts) -> list[float]:
    """Window-wise total over detectors, summed in detector-id order."""
    if not counts:
        raise ValueError("aggregate needs at least one series")
    out = [0.0] * WINDOWS_PER_DAY
    for det_id in sorted(counts):
        for i, x in enumerate(counts[det_id]):
            out[i] += x
    return out


def check_detector_ids(real_ids: Iterable[str], sim_ids: Iterable[str]) -> None:
    """Refuse to score simulated detectors other than the measured ones, or
    no detectors at all."""
    real_set, sim_set = set(real_ids), set(sim_ids)
    if real_set != sim_set:
        raise DetectorMismatchError(sorted(real_set - sim_set), sorted(sim_set - real_set))
    if not real_set:
        raise ValueError("scoring needs at least one detector")


def score(real: DayCounts, sim: DayCounts) -> float:
    """The scenario error of a run: the NRMSE of the simulated against the
    measured counts, each summed over detectors window by window in
    detector-id order, whatever order the mappings hold them in. Refuses
    what `check_detector_ids` and `check_day` refuse."""
    check_detector_ids(real, sim)
    check_day(real)
    check_day(sim)
    return nrmse(aggregate_series(real), aggregate_series(sim))


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
    """Simulates runs of one scenario to score against the measured counts;
    refuses a malformed measured day (`check_day`), detectors other than
    those of `real` (`check_detector_ids`), a scenario the engine cannot
    run (`microsim.check_run`), and a run or detector window that does not
    give the day's quarter-hours (`check_scored_day`), before any
    simulation. Each run's key covers
    `inputs`, the paths of the scenario's files (`simulation_key`)."""

    net: netmodel.RoadNetwork
    plans: list[RoutePlan]
    detectors: list[Detector]
    real: DayCounts
    base: SimConfig
    bus_lines: Sequence[BusLine] = ()
    inputs: Sequence[Optional[str]] = ()

    def __post_init__(self):
        check_scored_day(self.base)
        check_day(self.real)
        check_detector_ids(self.real, [d.id for d in self.detectors])
        check_run(self.net, self.plans, self.base, self.detectors, self.bus_lines)
        for d in self.detectors:
            if d.window != WINDOW_S:
                raise ValueError(f"detector '{d.id}': scoring needs a {WINDOW_S:g} s window, got {d.window:g} s")

    def evaluate(self, theta: dict[str, float]) -> Run:
        """Simulate `base` with the `SimConfig` fields in `theta` set."""
        cfg = dataclasses.replace(self.base, **theta)
        try:
            out = Simulation(self.net, self.plans, cfg, self.detectors, self.bus_lines).run()
        except Exception as exc:
            raise RuntimeError(f"simulation failed at {theta}: {exc}") from exc
        counts = {det_id: tuple(out.detector_counts[det_id]) for det_id in sorted(out.detector_counts)}
        return Run(simulation_key(self.inputs, cfg), theta, counts)

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
    real: DayCounts,
    grid: GridSpec = GridSpec(),
    base_config: Optional[SimConfig] = None,
    bus_lines: Sequence[BusLine] = (),
    workers: int = 1,
    inputs: Sequence[Optional[str]] = (),
) -> SweepResult:
    """Simulate every grid probability with the same routes and the seed
    and other settings of `base_config`, on up to `workers` processes, and
    `score` each run; the outcome is the same however many ran. `inputs`
    are the scenario's file paths each run's key covers (`Evaluator`)."""
    base = base_config if base_config is not None else SimConfig()
    thetas = [{"rerouting_probability": p} for p in grid.points()]
    evaluator = Evaluator(net, routes, detectors, real, base, bus_lines, inputs)
    entries = evaluator.evaluate_all(thetas, workers)
    return SweepResult(entries, [score(real, run.counts) for run in entries])


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


def _csv_row(run: Run, error: float) -> tuple[str, str]:
    return f"{run.theta['rerouting_probability']:.4f}", f"{error:.6f}"


def write_sweep_csv(result: SweepResult, path) -> None:
    netmodel.write_csv(path, ("p", "nrmse"), map(_csv_row, result.entries, result.scores))


def write_sweep_best(result: SweepResult, path) -> None:
    netmodel.write_csv(path, SWEEP_BEST_HEADER, [_csv_row(*result.best())])


def read_sweep_best(path) -> tuple[float, float]:
    """The (best p, best NRMSE) row `write_sweep_best` wrote."""
    rows = netmodel.read_csv(
        path, SWEEP_BEST_HEADER, ValueError, lambda row: (float(row[0]), float(row[1]))
    )
    if len(rows) != 1:
        raise ValueError(f"{path}: expected one summary row, found {len(rows)}")
    return rows[0]
