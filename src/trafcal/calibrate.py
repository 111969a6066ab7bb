"""Detector-count calibration: NRMSE objective and rerouting-probability sweep.

The sweep runs one full simulation per candidate probability with a shared
seed and shared routes, scores each run by the normalized root mean square
error between aggregated real and simulated detector series, and picks the
probability with the smallest error (ties go to the smaller value).
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from trafcal import netmodel
from trafcal.microsim import BusLine, Detector, RoutePlan, SimConfig, Simulation
from trafcal.microsim.engine import SimOutput

WINDOWS_PER_DAY = 96
SWEEP_BEST_HEADER = ("best_p", "best_nrmse")


class ZeroMeanError(ValueError):
    """Raised when the measured series has zero mean and cannot normalize."""


class LengthMismatchError(ValueError):
    """Raised when the two series disagree in length."""


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
    p_min: float = 0.0
    p_max: float = 1.0
    step: float = 0.01

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("grid step must be > 0")
        if not 0.0 <= self.p_min <= self.p_max <= 1.0:
            raise ValueError("grid bounds must satisfy 0 <= p_min <= p_max <= 1")

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
class SweepEntry:
    p: float
    nrmse: float


@dataclass
class SweepResult:
    entries: list[SweepEntry]
    best_p: float
    best_nrmse: float


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


def _evaluate_point(args) -> tuple[float, float]:
    (p, net, plans, detectors, bus_lines, base, real_total) = args
    cfg = dataclasses.replace(base, rerouting_probability=p)
    try:
        out = Simulation(net, plans, cfg, detectors, bus_lines).run()
    except Exception as exc:
        raise RuntimeError(f"simulation failed at p={p}: {exc}") from exc
    sim_total = aggregate_series(sim_series(out))
    return p, nrmse(real_total, sim_total)


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
    other settings of `base_config`.

    Evaluations are independent simulations, so they can spread over worker
    processes; results are merged and sorted by p before the argmin, which
    keeps the outcome identical however many workers ran.
    """
    if not detectors:
        raise ValueError("sweep needs at least one detector")
    det_ids = {d.id for d in detectors}
    real_ids = {s.detector_id for s in real}
    if det_ids != real_ids:
        missing = sorted(det_ids - real_ids)
        extra = sorted(real_ids - det_ids)
        raise ValueError(
            f"real series and detectors disagree (missing {missing}, extra {extra})"
        )
    base = base_config if base_config is not None else SimConfig()
    real_total = aggregate_series(real)
    tasks = [
        (p, net, routes, detectors, tuple(bus_lines), base, real_total)
        for p in grid.points()
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            scored = list(pool.map(_evaluate_point, tasks))
    else:
        scored = [_evaluate_point(t) for t in tasks]
    entries = [SweepEntry(p, e) for p, e in sorted(scored)]
    best = min(entries, key=lambda e: (e.nrmse, e.p))
    return SweepResult(entries=entries, best_p=best.p, best_nrmse=best.nrmse)


def write_sweep_csv(result: SweepResult, path) -> None:
    netmodel.write_csv(path, ("p", "nrmse"), (
        (f"{e.p:.4f}", f"{e.nrmse:.6f}") for e in result.entries
    ))


def write_sweep_best(result: SweepResult, path) -> None:
    netmodel.write_csv(path, SWEEP_BEST_HEADER, [(f"{result.best_p:.4f}", f"{result.best_nrmse:.6f}")])


def read_sweep_best(path) -> tuple[float, float]:
    """The (best p, best NRMSE) row `write_sweep_best` wrote."""
    rows = list(netmodel.read_csv(
        path, SWEEP_BEST_HEADER, ValueError, lambda row: (float(row[0]), float(row[1]))
    ))
    if len(rows) != 1:
        raise ValueError(f"{path}: expected one summary row, found {len(rows)}")
    return rows[0]
