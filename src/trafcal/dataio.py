"""Measurement ingestion and validation reporting.

Raw induction-loop records (one count per detector, date, and quarter-hour
window) are filtered down to clean weekdays, averaged into one daily
series per detector, and later compared against simulated series to score
a scenario: one overall error, an error per time window, and a ranking of
detectors from best to worst reproduced.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import io
import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from trafcal import netmodel
from trafcal.calibrate import (
    DetectorMismatchError,
    DetectorSeries,
    aggregate_series,
    check_detector_sets,
    nrmse,
)
from trafcal.microsim.simio import DAY_S, WINDOW_S, WINDOWS_PER_DAY, write_detector_csv

WEEKDAY_NAMES = {
    "Mon": 0, "Tue": 1, "Wed": 2, "Thu": 3, "Fri": 4, "Sat": 5, "Sun": 6,
}
MEASUREMENT_CSV_HEADER = ("detector_id", "date", "window_start_s", "count")


class MeasurementFormatError(ValueError):
    """Raised when a measurement file does not parse under the schema."""


class NoSurvivingDaysError(ValueError):
    def __init__(self, detector_id: str):
        super().__init__(
            f"detector '{detector_id}': no day of data survives the filters"
        )
        self.detector_id = detector_id


class _MeasurementFields(NamedTuple):
    detector_id: str
    date: datetime.date
    window_start: int  # seconds-of-day, multiple of 900
    count: int


# One loop count as `(detector_id, date, window_start, count)`: a
# RawMeasurement, or the plain tuple a `Measurements` table yields.
Measurement = tuple[str, datetime.date, int, int]


class Measurements:
    """Measurement records as detector-day runs, in row order.

    A run is consecutive rows of one detector and date; `runs` holds one
    `(detector_id, date, first row)` entry per run, and `windows` and
    `counts` one `int` per row. The reader shares each distinct value
    between the rows holding it, so a row costs two list slots, about 20
    bytes with the lists' spare room, where a tuple per record took 80.
    Its length is the number of rows, and iterating yields each row as a
    `Measurement` tuple.
    """

    __slots__ = ("runs", "windows", "counts")

    def __init__(self):
        self.runs: list[tuple[str, datetime.date, int]] = []
        self.windows: list[int] = []
        self.counts: list[int] = []

    @classmethod
    def of(cls, records: Iterable[Measurement]) -> "Measurements":
        """The table of `records`, in their order."""
        table = cls()
        add_run, add_window, add_count = table.runs.append, table.windows.append, table.counts.append
        last_det = last_date = None
        for det, date, start, count in records:
            if date != last_date or det != last_det:
                last_det, last_date = det, date
                add_run((det, date, len(table.windows)))
            add_window(start)
            add_count(count)
        return table

    def __len__(self) -> int:
        return len(self.windows)

    def spans(self):
        """`(detector_id, date, first row, end row)` of each run in turn."""
        ends = itertools.chain(
            (first for _, _, first in itertools.islice(self.runs, 1, None)),
            (len(self.windows),),
        )
        for (det, date, first), end in zip(self.runs, ends):
            yield det, date, first, end

    def __iter__(self):
        windows, counts = self.windows, self.counts
        for det, date, first, end in self.spans():
            for i in range(first, end):
                yield det, date, windows[i], counts[i]


class _BadValue(ValueError):
    """A window or count no record may hold; the caller names the record."""


def _window_start(value: int) -> int:
    """`value` when it is an `int` quarter-hour of the day, in seconds."""
    if type(value) is not int:
        raise _BadValue(f"window_start {value!r} is not an int")
    if value % WINDOW_S != 0 or not 0 <= value < DAY_S:
        raise _BadValue(f"window_start {value} not a quarter-hour of the day")
    return value


def _count(value: int) -> int:
    """`value` when it is an `int` that is not negative."""
    if type(value) is not int:
        raise _BadValue(f"count {value!r} is not an int")
    if value < 0:
        raise _BadValue("negative count")
    return value


def _record_error(detector_id: str, exc: _BadValue) -> MeasurementFormatError:
    return MeasurementFormatError(f"record for '{detector_id}': {exc}")


class RawMeasurement(_MeasurementFields):
    """One loop count built by hand, an immutable tuple that unpacks as
    `(detector_id, date, window_start, count)`. A window or count that is
    not an `int` (a float, NaN or bool), a window off the day's
    quarter-hour grid, or a negative count raises MeasurementFormatError,
    so every record written can be read back."""

    __slots__ = ()

    def __new__(cls, detector_id: str, date: datetime.date, window_start: int, count: int):
        try:
            return tuple.__new__(cls, (detector_id, date, _window_start(window_start), _count(count)))
        except _BadValue as exc:
            raise _record_error(detector_id, exc) from None

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`; route it through the check too
        return cls(*iterable)


@dataclass(frozen=True)
class IngestionFilter:
    """Which calendar days count: chosen weekdays, minus an explicit
    exclusion list, optionally limited to a date range."""

    include_weekdays: frozenset[int] = frozenset({1, 2, 3})  # Tue, Wed, Thu
    exclude_dates: frozenset[datetime.date] = frozenset()
    date_range: Optional[tuple[datetime.date, datetime.date]] = None

    def __post_init__(self):
        if self.date_range is not None and self.date_range[0] > self.date_range[1]:
            raise ValueError("date_range start must not be after its end")

    def admits(self, date: datetime.date) -> bool:
        if date.weekday() not in self.include_weekdays:
            return False
        if date in self.exclude_dates:
            return False
        if self.date_range is not None:
            lo, hi = self.date_range
            if not lo <= date <= hi:
                return False
        return True


@dataclass
class IngestResult:
    series: list[DetectorSeries]
    days_used: dict[str, int]


@dataclass(frozen=True)
class WindowStat:
    window: int
    absolute_error: float
    window_nrmse: Optional[float]  # None when the window has no real traffic


@dataclass(frozen=True)
class DetectorScore:
    detector_id: str
    nrmse: Optional[float]  # None when the detector has no real traffic


@dataclass
class ValidationReport:
    scenario_nrmse: float
    per_window: list[WindowStat]
    per_detector: list[DetectorScore]  # ascending by nrmse, None-scores last
    best_detector: str
    worst_detector: str


# ---------------------------------------------------------------------------
# Measurement files
# ---------------------------------------------------------------------------


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def iso_date(text: str) -> datetime.date:
    """The date of a `YYYY-MM-DD` text. `datetime.date.fromisoformat`
    alone also takes `20230905` and `2023-W36-2` from Python 3.11 on, so a
    file would read differently across the supported versions."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return datetime.date.fromisoformat(text)


# the conversion of the detector, date, window and count cell texts
_CELL_PARSERS = (
    str,
    iso_date,
    lambda text: _window_start(int(text)),
    lambda text: _count(int(text)),
)


def read_measurements_csv(path) -> Measurements:
    """Every record of a measurement file, in file order, as a
    `Measurements` table, checked like a RawMeasurement.

    A detector id, date, window or count repeats on many rows, so each
    distinct cell text is converted and checked once, into one plain dict
    per column, and its value shared by every row holding it. A row of
    the same detector and date texts as the row before costs two lookups
    (window and count) and two appends; only a new run looks up its
    detector and date. Only a miss leaves the loop: a new text, a blank
    row or a row of the wrong width. A bad value is never kept, so each
    row holding one fails.
    """
    cells = names, dates, windows, counts = {}, {}, {}, {}
    table = Measurements()
    add_run, add_window, add_count = table.runs.append, table.windows.append, table.counts.append
    last_det = last_date = None  # the texts of the current run
    with netmodel.csv_table(path, MEASUREMENT_CSV_HEADER, MeasurementFormatError) as rows:
        for row in rows:
            try:
                det, date_s, start_s, count_s = row
                start, count = windows[start_s], counts[count_s]
                if date_s != last_date or det != last_det:
                    add_run((names[det], dates[date_s], len(table.windows)))
                    last_det, last_date = det, date_s
            except (KeyError, ValueError):
                if not netmodel.has_cells(row, len(MEASUREMENT_CSV_HEADER)):
                    continue
                det, date, start, count = _learn_cells(row, cells)
                if row[1] != last_date or row[0] != last_det:
                    add_run((det, date, len(table.windows)))
                    last_det, last_date = row[0], row[1]
            add_window(start)
            add_count(count)
    return table


def _learn_cells(row: list[str], cells: tuple[dict, ...]) -> Measurement:
    """The record of a row holding a text some column has not seen: each
    new text is converted and checked, and stored only when valid."""
    for text, known, parse in zip(row, cells, _CELL_PARSERS):
        if text not in known:
            try:
                known[text] = parse(text)
            except _BadValue as exc:
                raise _record_error(row[0], exc) from None
    return tuple(map(dict.__getitem__, cells, row))


def write_measurements_csv(records: Iterable[Measurement], path) -> None:
    """Write `records`, sorted by detector, date and window; records that
    share all three keep their order.

    A list or tuple already in whole-tuple order, as the fixture and the
    loop generator produce it, is in that order too, so it is written as
    it comes after one pass of comparisons: no sort key per record and no
    copy. Any other input is sorted.

    The text is made a detector-day at a time: `csv.writer` formats the
    `detector_id,date,` prefix once per run of records sharing both, and
    so quotes an id exactly as it quotes any cell, and each row is that
    prefix and its window and count. Rows stream to the file one by one.
    """
    if not (
        isinstance(records, (list, tuple))
        and all(map(operator.le, records, itertools.islice(records, 1, None)))
    ):
        records = sorted(records, key=operator.itemgetter(0, 1, 2))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_measurement_lines(records))


def _measurement_lines(records: Iterable[Measurement]):
    """The lines of a measurement file holding the ordered `records`."""
    buf = io.StringIO()
    cells = csv.writer(buf)
    cells.writerow(MEASUREMENT_CSV_HEADER)
    yield buf.getvalue()
    prefix = last_det = last_date = None
    for det, date, start, count in records:
        if date != last_date or det != last_det:
            last_det, last_date = det, date
            buf.seek(0)
            buf.truncate()
            cells.writerow((det, date.isoformat(), ""))
            prefix = buf.getvalue()[:-2]  # without the "\r\n" line end
        yield f"{prefix}{start},{count}\r\n"


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def ingest(records: Iterable[Measurement], filt: IngestionFilter = IngestionFilter()) -> IngestResult:
    """Average admitted days into one 96-window series per detector.

    `records` is a `Measurements` table, as `read_measurements_csv`
    returns it, or any iterable of checked `Measurement` tuples, which is
    read once into a table. The filter sees each detector-day run once,
    and an admitted run is folded into its day's window map whole. A day
    only counts for a detector when every one of the 96 windows is present
    exactly once: a map that grows by less than the run's length met a
    window twice, in that run or an earlier one of the day. Partial or
    duplicated days are treated like any other faulty day and skipped. The
    result is independent of the order of the input records.
    """
    table = records if isinstance(records, Measurements) else Measurements.of(records)
    detectors: set[str] = set()
    by_day: dict[tuple[str, datetime.date], dict[int, int]] = {}
    dupes: set[tuple[str, datetime.date]] = set()
    starts, counts = table.windows, table.counts
    for det, date, first, end in table.spans():
        detectors.add(det)
        if filt.admits(date):
            windows = by_day.setdefault((det, date), {})
            size = len(windows)
            windows.update(zip(starts[first:end], counts[first:end]))
            if len(windows) - size < end - first:
                dupes.add((det, date))

    sums: dict[str, list[int]] = {}
    days: dict[str, int] = {}
    for det, date in sorted(by_day):
        windows = by_day[det, date]
        if (det, date) in dupes or len(windows) != WINDOWS_PER_DAY:
            continue
        acc = sums.setdefault(det, [0] * WINDOWS_PER_DAY)
        for start, count in windows.items():
            acc[start // WINDOW_S] += count
        days[det] = days.get(det, 0) + 1

    series = []
    days_used = {}
    for det in sorted(detectors):
        n = days.get(det, 0)
        if n == 0:
            raise NoSurvivingDaysError(det)
        days_used[det] = n
        series.append(DetectorSeries(det, tuple(s / n for s in sums[det])))
    return IngestResult(series=series, days_used=days_used)


# ---------------------------------------------------------------------------
# Validation report
# ---------------------------------------------------------------------------


def validate(
    real: Sequence[DetectorSeries], sim: Sequence[DetectorSeries]
) -> ValidationReport:
    """Score how well the simulated series reproduce the measured ones.

    Three granularities: one scenario number (error of the aggregated
    series), a per-window slice (absolute error plus error across
    detectors within that window), and a per-detector ranking ascending
    from best reproduced to worst. Detector sets that differ are a
    `DetectorMismatchError`.
    """
    real_by_id = {s.detector_id: s for s in real}
    sim_by_id = {s.detector_id: s for s in sim}
    check_detector_sets(set(real_by_id), set(sim_by_id))
    ids = sorted(real_by_id)

    real_total = aggregate_series([real_by_id[i] for i in ids])
    sim_total = aggregate_series([sim_by_id[i] for i in ids])
    scenario = nrmse(real_total, sim_total)

    per_window = []
    for w in range(WINDOWS_PER_DAY):
        r_vec = [real_by_id[i].counts[w] for i in ids]
        s_vec = [sim_by_id[i].counts[w] for i in ids]
        abs_err = abs(math.fsum(r_vec) - math.fsum(s_vec))
        mean_r = math.fsum(r_vec) / len(r_vec)
        if mean_r > 0:
            w_nrmse = nrmse(r_vec, s_vec)
        else:
            w_nrmse = None
        per_window.append(WindowStat(w, abs_err, w_nrmse))

    scores = []
    for det in ids:
        r = real_by_id[det].counts
        s = sim_by_id[det].counts
        if math.fsum(r) > 0:
            scores.append(DetectorScore(det, nrmse(r, s)))
        else:
            scores.append(DetectorScore(det, None))
    scores.sort(key=lambda d: (d.nrmse is None, d.nrmse if d.nrmse is not None else 0.0, d.detector_id))
    ranked = [d for d in scores if d.nrmse is not None]
    best = ranked[0].detector_id if ranked else scores[0].detector_id
    worst = ranked[-1].detector_id if ranked else scores[-1].detector_id

    return ValidationReport(
        scenario_nrmse=scenario,
        per_window=per_window,
        per_detector=scores,
        best_detector=best,
        worst_detector=worst,
    )


def write_report(report: ValidationReport, json_path, per_window_path, per_detector_path) -> None:
    netmodel.write_json(dataclasses.asdict(report), json_path)
    netmodel.write_csv(per_window_path, ("window", "abs_error", "nrmse"), (
        (ws.window, f"{ws.absolute_error:.6f}", _score_cell(ws.window_nrmse))
        for ws in report.per_window
    ))
    netmodel.write_csv(per_detector_path, ("detector_id", "nrmse"), (
        (d.detector_id, _score_cell(d.nrmse)) for d in report.per_detector
    ))


def _score_cell(score: Optional[float]) -> str:
    """A score to six decimals; blank for a window or detector without traffic."""
    return "" if score is None else f"{score:.6f}"


def series_to_csv(series: Sequence[DetectorSeries], begin: float, path) -> None:
    """Detector series in the simulator's detector CSV shape (means may be
    fractional)."""
    windows = {s.detector_id: WINDOW_S for s in series}
    write_detector_csv({s.detector_id: s.counts for s in series}, windows, begin, path)
