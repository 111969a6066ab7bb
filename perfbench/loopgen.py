"""Synthetic induction-loop counts with planted faulty detector-days.

Every detector reports one count per quarter-hour window on every day.
A few detector-days are faulty on purpose: one window missing, or one
window reported twice. Ingestion must skip exactly those, so the number
of days each detector keeps is known in advance.
"""

from __future__ import annotations

import datetime
import math
import random
from dataclasses import dataclass

from trafcal.dataio import WINDOW_S, RawMeasurement

N_DETECTORS = 120
N_DAYS = 87
FIRST_DAY = datetime.date(2023, 9, 4)
INCLUDE_WEEKDAYS = "Tue,Wed,Thu"
_INCLUDED = frozenset({1, 2, 3})
N_EXCLUDED = 3
FAULT_RATE = 0.02  # per kind: missing window, duplicated window
WINDOWS = 86400 // WINDOW_S


@dataclass
class LoopData:
    records: list[RawMeasurement]
    exclude_dates: list[datetime.date]
    expected_days: dict[str, int]  # days ingestion should keep per detector


def _profile() -> list[float]:
    """Weekday traffic shape: night floor plus morning and evening peaks."""
    out = []
    for w in range(WINDOWS):
        h = (w + 0.5) * WINDOW_S / 3600.0
        out.append(
            5.0 + 60.0 * math.exp(-((h - 8.0) / 1.5) ** 2)
            + 50.0 * math.exp(-((h - 17.0) / 1.8) ** 2)
            + 20.0 * math.exp(-((h - 13.0) / 4.0) ** 2)
        )
    return out


def generate(seed: int, n_detectors: int = N_DETECTORS, n_days: int = N_DAYS) -> LoopData:
    rng = random.Random(f"{seed}/loops")
    profile = _profile()
    days = [FIRST_DAY + datetime.timedelta(days=i) for i in range(n_days)]
    admitted = [d for d in days if d.weekday() in _INCLUDED]
    excluded = sorted(rng.sample(admitted, min(N_EXCLUDED, len(admitted) - 1)))
    kept_days = set(admitted) - set(excluded)
    starts = [w * WINDOW_S for w in range(WINDOWS)]

    records: list[RawMeasurement] = []
    expected: dict[str, int] = {}
    for i in range(n_detectors):
        det = f"loop_{i:03d}"
        scale = rng.uniform(0.3, 3.0)
        base = [scale * x for x in profile]
        clean = 0
        for day in days:
            fault = rng.random()
            skip = dup = -1
            if fault < FAULT_RATE:
                skip = rng.randrange(WINDOWS)
            elif fault < 2 * FAULT_RATE:
                dup = rng.randrange(WINDOWS)
            else:
                clean += day in kept_days
            for w in range(WINDOWS):
                if w == skip:
                    continue
                count = int(base[w] * (0.7 + 0.6 * rng.random()))
                records.append(RawMeasurement(det, day, starts[w], count))
                if w == dup:
                    records.append(RawMeasurement(det, day, starts[w], count + 1))
        expected[det] = clean
    return LoopData(records, excluded, expected)
