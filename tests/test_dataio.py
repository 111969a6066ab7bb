"""Measurement ingestion and validation reports."""

import dataclasses
import datetime
import json
import math
import operator
import random
import re
import tracemalloc

import pytest

from trafcal import dataio, netmodel
from trafcal.calibrate import WINDOWS_PER_DAY, DetectorSeries, nrmse, read_sweep_best
from trafcal.dataio import (
    WINDOW_S,
    DetectorMismatchError,
    IngestionFilter,
    MeasurementFormatError,
    NoSurvivingDaysError,
    RawMeasurement,
    ingest,
    read_measurements_csv,
    series_to_csv,
    validate,
    write_measurements_csv,
    write_report,
)


def full_day(det, date, base=0, bump=None):
    """96 records for one detector-day; bump=(window, delta) tweaks one."""
    counts = [base + (w % 7) for w in range(WINDOWS_PER_DAY)]
    if bump is not None:
        counts[bump[0]] += bump[1]
    return [
        RawMeasurement(det, date, w * WINDOW_S, counts[w])
        for w in range(WINDOWS_PER_DAY)
    ]


def series(det, counts):
    return DetectorSeries(det, tuple(counts))


def flat(det, value):
    return series(det, [value] * WINDOWS_PER_DAY)


# September 2023: the 5th is a Tuesday.
TUE = datetime.date(2023, 9, 5)
WED = datetime.date(2023, 9, 6)
THU = datetime.date(2023, 9, 7)
FRI = datetime.date(2023, 9, 8)
SAT = datetime.date(2023, 9, 9)


# -- day filters ---------------------------------------------------------------


def test_filter_defaults_to_tue_wed_thu():
    filt = IngestionFilter()
    admitted = [
        datetime.date(2023, 9, d)
        for d in range(1, 31)
        if filt.admits(datetime.date(2023, 9, d))
    ]
    assert all(d.weekday() in (1, 2, 3) for d in admitted)
    assert len(admitted) == 12  # Tue/Wed/Thu in September 2023


def test_filter_exclusions_and_range():
    filt = IngestionFilter(
        exclude_dates=frozenset({WED}),
        date_range=(TUE, THU),
    )
    assert filt.admits(TUE)
    assert not filt.admits(WED)  # excluded
    assert filt.admits(THU)
    assert not filt.admits(FRI)  # wrong weekday
    assert not filt.admits(datetime.date(2023, 9, 12))  # Tue but out of range


def test_filter_rejects_inverted_range():
    with pytest.raises(ValueError):
        IngestionFilter(date_range=(THU, TUE))


# -- ingestion -----------------------------------------------------------------


def test_ingest_averages_admitted_days():
    records = full_day("d1", TUE, base=0) + full_day("d1", WED, base=2)
    result = ingest(records)
    assert result.days_used == {"d1": 2}
    (s,) = result.series
    assert s.detector_id == "d1"
    # mean of base 0 and base 2 is base 1
    assert s.counts == tuple(1 + (w % 7) for w in range(WINDOWS_PER_DAY))


def test_ingest_skips_weekend_and_excluded_days():
    records = (
        full_day("d1", TUE, base=0)
        + full_day("d1", SAT, base=90)  # weekend, never admitted
        + full_day("d1", WED, base=90)  # excluded below
    )
    filt = IngestionFilter(exclude_dates=frozenset({WED}))
    result = ingest(records, filt)
    assert result.days_used == {"d1": 1}
    assert result.series[0].counts == tuple(w % 7 for w in range(WINDOWS_PER_DAY))


def test_ingest_drops_day_with_missing_window():
    broken = [r for r in full_day("d1", WED, base=90) if r.window_start != 43200]
    result = ingest(full_day("d1", TUE, base=0) + broken)
    assert result.days_used == {"d1": 1}
    assert max(result.series[0].counts) <= 6


def test_ingest_drops_day_with_duplicate_window():
    day = full_day("d1", WED, base=90)
    day.append(RawMeasurement("d1", WED, 0, day[0].count))  # same value, still dup
    result = ingest(full_day("d1", TUE, base=0) + day)
    assert result.days_used == {"d1": 1}
    assert max(result.series[0].counts) <= 6


def test_ingest_requires_a_surviving_day_per_detector():
    records = full_day("d1", TUE) + full_day("d2", SAT)
    with pytest.raises(NoSurvivingDaysError) as exc:
        ingest(records)
    assert exc.value.detector_id == "d2"
    # no detectors at all is not an error, just an empty result
    empty = ingest([])
    assert empty.series == [] and empty.days_used == {}


def test_ingest_rejects_malformed_records():
    with pytest.raises(MeasurementFormatError):
        ingest([RawMeasurement("d1", TUE, 450, 1)])  # off-grid window
    with pytest.raises(MeasurementFormatError):
        ingest([RawMeasurement("d1", TUE, 86400, 1)])  # past end of day
    with pytest.raises(MeasurementFormatError):
        ingest([RawMeasurement("d1", TUE, 0, -1)])  # negative count


def test_ingest_against_brute_force():
    # A month of noisy multi-detector data with injected faults: compare
    # against a from-scratch average over the days that should survive.
    rng = random.Random(404)
    dets = ["d_a", "d_b", "d_c"]
    start = datetime.date(2023, 9, 1)
    dates = [start + datetime.timedelta(days=i) for i in range(30)]
    excluded = frozenset(rng.sample(dates, 4))
    filt = IngestionFilter(exclude_dates=excluded)

    records = []
    surviving = {det: [] for det in dets}
    for det in dets:
        for date in dates:
            day = [
                RawMeasurement(det, date, w * WINDOW_S, rng.randint(0, 40))
                for w in range(WINDOWS_PER_DAY)
            ]
            fault = rng.random()
            if fault < 0.15:
                del day[rng.randrange(len(day))]
            elif fault < 0.30:
                day.append(RawMeasurement(det, date, rng.choice(day).window_start, 7))
            elif filt.admits(date):
                surviving[det].append(day)
            records.extend(day)
        # guarantee at least one clean admitted day
        if not surviving[det]:
            day = full_day(det, THU)
            records.extend(day)
            surviving[det].append(day)

    result = ingest(records, filt)
    assert result.days_used == {det: len(surviving[det]) for det in dets}
    assert [s.detector_id for s in result.series] == sorted(dets)
    for s in result.series:
        days = surviving[s.detector_id]
        for w in range(WINDOWS_PER_DAY):
            want = math.fsum(d[w].count for d in days) / len(days)
            assert abs(s.counts[w] - want) < 1e-12


def test_ingest_is_order_independent(tmp_path):
    rng = random.Random(405)
    records = (
        full_day("d1", TUE, base=3)
        + full_day("d1", THU, base=8)
        + full_day("d2", WED, base=1)
    )
    base = ingest(records)
    for _ in range(5):
        shuffled = records[:]
        rng.shuffle(shuffled)
        again = ingest(shuffled)
        assert again.days_used == base.days_used
        assert again.series == base.series
    # a file whose d1 Tuesday is split over two runs apart, and whose d1
    # Thursday gives window 47 in both of its runs: the reader's table
    # keeps those runs, and ingest counts the first day and drops the second
    tue, thu, wed = full_day("d1", TUE, base=3), full_day("d1", THU, base=8), full_day("d2", WED, base=1)
    thu_again = thu[47]._replace(count=99)
    file_order = tue[:48] + thu[:48] + wed + tue[48:] + [thu_again] + thu[48:]
    table = read_rows(tmp_path / "loops.csv", *(
        f"{det},{date.isoformat()},{start},{count}" for det, date, start, count in file_order
    ))
    assert [(det, date) for det, date, _ in table.runs] == [
        ("d1", TUE), ("d1", THU), ("d2", WED), ("d1", TUE), ("d1", THU),
    ]
    assert list(table) == file_order
    split = ingest(table)
    assert split == ingest(sorted(file_order, key=operator.itemgetter(0, 1, 2)))
    assert split.days_used == {"d1": 1, "d2": 1}
    assert split.series[0].counts == tuple(r.count for r in tue)


def test_ingest_takes_a_one_shot_iterable():
    records = (
        full_day("d2", WED, base=4)
        + full_day("d1", TUE, base=1)
        + full_day("d1", SAT, base=9)
        + full_day("d2", TUE, base=6)
        + full_day("d1", THU, base=2)[1:]
    )
    assert ingest(r for r in records) == ingest(records)
    no_wed = IngestionFilter(exclude_dates=frozenset({WED}))
    assert ingest(iter(records), no_wed) == ingest(records, no_wed)
    assert ingest(iter(records), no_wed) != ingest(records)


@pytest.mark.parametrize("window, count, message", [
    (900.0, 3, "window_start 900.0 is not an int"),
    (False, 3, "window_start False is not an int"),
    (900, 3.5, "count 3.5 is not an int"),
    (900, math.nan, "count nan is not an int"),
    (900, 3.0, "count 3.0 is not an int"),
    (900, True, "count True is not an int"),
])
def test_measurement_record_holds_only_int_windows_and_counts(window, count, message):
    # the writer would write 900.0, 3.5, nan or True, which the reader
    # refuses, so no record holds them
    with pytest.raises(MeasurementFormatError, match=re.escape(f"record for 'd7': {message}")):
        RawMeasurement("d7", TUE, window, count)
    with pytest.raises(MeasurementFormatError, match=re.escape(f"record for 'd7': {message}")):
        RawMeasurement("d7", TUE, 0, 0)._replace(window_start=window, count=count)


def test_measurement_record_is_a_named_tuple():
    rec = RawMeasurement("d1", TUE, 900, 7)
    det, date, start, count = rec
    assert (det, date, start, count) == ("d1", TUE, 900, 7)
    assert (rec.detector_id, rec.date, rec.window_start, rec.count) == ("d1", TUE, 900, 7)
    assert RawMeasurement._fields == ("detector_id", "date", "window_start", "count")
    with pytest.raises(AttributeError):
        rec.count = 8
    with pytest.raises(MeasurementFormatError, match="negative count"):
        rec._replace(count=-1)


# -- measurement files ---------------------------------------------------------


def test_measurements_csv_round_trip(tmp_path):
    records = full_day("d2", WED, base=5) + full_day("d1", TUE, base=0)
    path = tmp_path / "loops.csv"
    write_measurements_csv(records, path)
    back = read_measurements_csv(path)
    assert list(back) == sorted(records, key=lambda r: (r.detector_id, r.date, r.window_start))
    assert path.read_text().splitlines()[0] == "detector_id,date,window_start_s,count"


def test_measurements_csv_keeps_duplicated_windows_in_file_order(tmp_path):
    # the sort key leaves out the count, so two counts of one window keep
    # their order; a plain tuple sort would put 4 before 9
    path = tmp_path / "loops.csv"
    path.write_text(
        "detector_id,date,window_start_s,count\n"
        "d1,2023-09-05,900,9\n"
        "d1,2023-09-05,0,3\n"
        "d1,2023-09-05,900,4\n"
    )
    again = tmp_path / "again.csv"
    write_measurements_csv(read_measurements_csv(path), again)
    assert again.read_bytes() == (
        b"detector_id,date,window_start_s,count\r\n"
        b"d1,2023-09-05,0,3\r\n"
        b"d1,2023-09-05,900,9\r\n"
        b"d1,2023-09-05,900,4\r\n"
    )
    write_measurements_csv(read_measurements_csv(again), path)
    assert path.read_bytes() == again.read_bytes()


def reference_measurements_csv(records, path):
    """The writer as it was before it skipped the sort of ordered input:
    every record sorted by a stable (detector, date, window) key."""
    netmodel.write_csv(path, dataio.MEASUREMENT_CSV_HEADER, (
        (det, date.isoformat(), start, count)
        for det, date, start, count in sorted(records, key=operator.itemgetter(0, 1, 2))
    ))


def test_measurements_csv_sorts_unordered_and_generator_input(tmp_path):
    rng = random.Random(14)
    records = full_day("d2", WED, base=5) + full_day("d1", TUE) + full_day("d1", SAT, base=9)
    # duplicated windows whose counts fall: whole-tuple order would swap them
    records += [RawMeasurement("d1", TUE, 900, 50), RawMeasurement("d1", TUE, 900, 2)]
    rng.shuffle(records)
    expected = tmp_path / "expected.csv"
    reference_measurements_csv(records, expected)
    before = list(records)
    for name, given in (("list", records), ("tuple", tuple(records)), ("gen", iter(records))):
        path = tmp_path / f"{name}.csv"
        write_measurements_csv(given, path)
        assert path.read_bytes() == expected.read_bytes(), name
    assert records == before  # the caller's list is not sorted in place
    ordered = list(read_measurements_csv(expected))
    for name, given in (("ordered", ordered), ("ordered gen", iter(ordered))):
        path = tmp_path / "again.csv"
        write_measurements_csv(given, path)
        assert path.read_bytes() == expected.read_bytes(), name


def test_measurements_csv_of_no_records_is_the_header(tmp_path):
    path = tmp_path / "loops.csv"
    for given in ([], (), iter(())):
        write_measurements_csv(given, path)
        assert path.read_bytes() == b"detector_id,date,window_start_s,count\r\n"


def test_measurements_csv_writes_ordered_records_without_a_key_per_record(tmp_path):
    # 99,840 ordered records: one sort key each, plus a sorted copy of the
    # list, would take about 7 MB
    dates = [TUE + datetime.timedelta(days=i) for i in range(52)]
    records = [rec for d in range(20) for date in dates for rec in full_day(f"d{d:02d}", date)]
    path = tmp_path / "loops.csv"
    tracemalloc.start()
    try:
        write_measurements_csv(records, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    reference = tmp_path / "reference.csv"
    reference_measurements_csv(records, reference)
    assert path.read_bytes() == reference.read_bytes()


QUOTED_IDS = ("a,b", 'say "hi"', "two\nlines", "cr\rid", " padded ", "Zürich-Straße", "")


@pytest.mark.parametrize("det", QUOTED_IDS)
def test_measurements_csv_quotes_detector_ids_like_any_cell(tmp_path, det):
    records = full_day(det, TUE) + full_day(det, WED, base=3)
    path, reference = tmp_path / "loops.csv", tmp_path / "reference.csv"
    write_measurements_csv(records, path)
    reference_measurements_csv(records, reference)
    assert path.read_bytes() == reference.read_bytes()
    assert list(read_measurements_csv(path)) == records


def test_measurements_csv_of_many_detector_days(tmp_path):
    # the row prefix changes with the date alone (d1 Tue -> d1 Wed), with
    # the detector alone (d2 -> d3 on the last date), and with both; days
    # of one record and of many
    rng = random.Random(15)
    dates = [TUE + datetime.timedelta(days=i) for i in range(9)]
    records = [
        RawMeasurement(det, date, w * WINDOW_S, rng.randrange(200))
        for det in ("d1", "d2", *QUOTED_IDS, "d10")
        for date in dates
        for w in sorted(rng.sample(range(WINDOWS_PER_DAY), rng.choice((1, 2, 96))))
    ]
    records += [
        RawMeasurement("d2", WED, 0, 7), RawMeasurement("d1", SAT, 900, 1),
        RawMeasurement("d3", dates[-1], 0, 1),
    ]
    ordered = sorted(records, key=operator.itemgetter(0, 1, 2))
    path, reference = tmp_path / "loops.csv", tmp_path / "reference.csv"
    reference_measurements_csv(records, reference)
    for given in (records, ordered):
        write_measurements_csv(given, path)
        assert path.read_bytes() == reference.read_bytes()
        assert list(read_measurements_csv(path)) == ordered


def test_measurements_csv_rejects_bad_input(tmp_path):
    path = tmp_path / "loops.csv"
    header = "detector_id,date,window_start_s,count\n"
    for text, message in (
        ("detector,day,start,n\n", "bad header ['detector', 'day', 'start', 'n']"),
        (header + "d1,2023-09-05,0\n", "line 2: expected 4 columns"),
        (header + "d1,2023-09-05,0,1,2\n", "line 2: expected 4 columns"),
        (header + "d1,05.09.2023,0,1\n", "line 2: Invalid isoformat string: '05.09.2023'"),
        (header + "d1,2023-09-05,900.0,1\n",
         "line 2: invalid literal for int() with base 10: '900.0'"),
        (header + "d1,2023-09-05,0,-3\n", "line 2: record for 'd1': negative count"),
    ):
        path.write_text(text)
        with pytest.raises(MeasurementFormatError) as caught:
            read_measurements_csv(path)
        assert str(caught.value) == f"{path}: {message}"


def test_measurement_dates_must_be_yyyy_mm_dd(tmp_path):
    # from Python 3.11 `date.fromisoformat` also reads the basic and the
    # week-date form as 2023-09-05; 3.10 refuses both, so the reader does
    path = tmp_path / "loops.csv"
    header = "detector_id,date,window_start_s,count\n"
    for date in ("20230905", "2023-W36-2", "2023-09-5", "2023-09-05T00"):
        path.write_text(header + "d1,2023-09-05,0,1\n" + f"d1,{date},900,1\n")
        with pytest.raises(MeasurementFormatError) as caught:
            read_measurements_csv(path)
        assert str(caught.value) == f"{path}: line 3: Invalid isoformat string: '{date}'"


def test_each_distinct_cell_text_is_converted_once(tmp_path, monkeypatch):
    records = full_day("d1", TUE) + full_day("d1", WED) + full_day("d2", TUE) + full_day("d2", WED)
    path = tmp_path / "loops.csv"
    write_measurements_csv(records, path)
    calls = {"window": [], "count": []}

    def counted(name, check):
        def call(value):
            calls[name].append(value)
            return check(value)
        return call

    monkeypatch.setattr(dataio, "_window_start", counted("window", dataio._window_start))
    monkeypatch.setattr(dataio, "_count", counted("count", dataio._count))
    assert list(read_measurements_csv(path)) == records
    # 384 rows hold 96 window texts and the 7 count texts 0..6 of `full_day`
    assert calls == {"window": [w * WINDOW_S for w in range(WINDOWS_PER_DAY)],
                     "count": list(range(7))}


def test_read_measurements_hold_at_most_24_bytes_a_record(tmp_path):
    # 21,120 rows; a tuple per record took 80 bytes, two list slots take 17
    rng = random.Random(16)
    dates = [TUE + datetime.timedelta(days=i) for i in range(11)]
    records = [
        RawMeasurement(f"d{d:02d}", date, w * WINDOW_S, rng.randrange(600))
        for d in range(20) for date in dates for w in range(WINDOWS_PER_DAY)
    ]
    path = tmp_path / "loops.csv"
    write_measurements_csv(records, path)
    tracemalloc.start()
    try:
        back = read_measurements_csv(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(back) == len(records) >= 20_000
    assert held / len(back) <= 24, held / len(back)
    assert list(back) == records
    assert ingest(back) == ingest(records)


def read_rows(path, *rows):
    path.write_text("detector_id,date,window_start_s,count\n" + "".join(r + "\n" for r in rows))
    return read_measurements_csv(path)


def test_each_bad_row_fails_though_cells_are_checked_once(tmp_path):
    # a cell text is checked once and its value shared, yet the error names
    # the row that holds a bad value: its file, line and detector
    path = tmp_path / "loops.csv"
    with pytest.raises(MeasurementFormatError, match=re.escape(
        f"{path}: line 4: record for 'd2': window_start 450 not a quarter-hour of the day"
    )):
        read_rows(path, "d1,2023-09-05,0,3", "d1,2023-09-05,900,3", "d2,2023-09-05,450,3")
    with pytest.raises(MeasurementFormatError, match=re.escape(
        f"{path}: line 3: record for 'd1': negative count"
    )):
        read_rows(path, "d1,2023-09-05,0,3", "d1,2023-09-05,900,-2", "d2,2023-09-05,0,-2")
    # Saturday is a day `ingest` drops; its bad row fails on read all the same
    with pytest.raises(MeasurementFormatError, match=re.escape(
        f"{path}: line 2: record for 'd1': negative count"
    )):
        read_rows(path, "d1,2023-09-09,0,-1", "d1,2023-09-05,0,3")


def test_equal_numbers_read_the_same_from_other_texts(tmp_path):
    back = read_rows(tmp_path / "loops.csv", "d1,2023-09-05,0900,3", "d1,2023-09-05,900,03")
    assert list(back) == [("d1", TUE, 900, 3), ("d1", TUE, 900, 3)]


# -- validation ----------------------------------------------------------------


def test_validate_real_against_itself_is_all_zero():
    rng = random.Random(406)
    real = [
        series(f"d{i}", [rng.uniform(1.0, 30.0) for _ in range(WINDOWS_PER_DAY)])
        for i in range(4)
    ]
    report = validate(real, real)
    assert report.scenario_nrmse == 0.0
    assert len(report.per_window) == WINDOWS_PER_DAY
    for ws in report.per_window:
        assert ws.absolute_error == 0.0
        assert ws.window_nrmse == 0.0
    assert all(d.nrmse == 0.0 for d in report.per_detector)


def test_validate_ranks_detectors_by_error():
    rng = random.Random(407)
    real = [
        series(f"d{i}", [rng.uniform(5.0, 30.0) for _ in range(WINDOWS_PER_DAY)])
        for i in range(6)
    ]
    sim = []
    for i, s in enumerate(real):
        scale = 1.0 + 0.03 * i
        sim.append(series(s.detector_id, [scale * c for c in s.counts]))
    sim[2] = series("d2", [0.5 * c for c in real[2].counts])  # injected outlier

    report = validate(real, sim)
    want = sorted(
        (nrmse(r.counts, s.counts), r.detector_id) for r, s in zip(real, sim)
    )
    assert [d.detector_id for d in report.per_detector] == [d for _, d in want]
    for d, (score, _) in zip(report.per_detector, want):
        assert abs(d.nrmse - score) < 1e-12
    assert report.best_detector == "d0"  # scale 1.0, reproduced exactly
    assert report.worst_detector == "d2"
    assert report.scenario_nrmse > 0.0


def test_validate_per_window_stats():
    real = [flat("d1", 4.0), flat("d2", 6.0)]
    sim = [flat("d1", 5.0), flat("d2", 6.0)]
    report = validate(real, sim)
    for ws in report.per_window:
        assert abs(ws.absolute_error - 1.0) < 1e-12
        # rmse over detectors is sqrt(1/2), window mean is 5
        assert abs(ws.window_nrmse - math.sqrt(0.5) / 5.0) < 1e-12


def test_validate_flags_silent_windows_and_detectors():
    counts = [0.0] * WINDOWS_PER_DAY
    counts[10] = 8.0
    real = [series("d_live", counts), flat("d_dead", 0.0)]
    sim = [series("d_live", counts), flat("d_dead", 0.0)]
    report = validate(real, sim)
    assert report.per_window[10].window_nrmse == 0.0
    assert report.per_window[0].window_nrmse is None
    scores = {d.detector_id: d.nrmse for d in report.per_detector}
    assert scores == {"d_live": 0.0, "d_dead": None}
    # unscorable detectors sort last and never win best/worst
    assert report.per_detector[-1].detector_id == "d_dead"
    assert report.best_detector == "d_live"
    assert report.worst_detector == "d_live"


def test_validate_requires_matching_detectors():
    with pytest.raises(DetectorMismatchError) as exc:
        validate([flat("d1", 1.0)], [flat("d2", 1.0)])
    assert exc.value.missing == ["d1"]
    assert exc.value.extra == ["d2"]
    with pytest.raises(ValueError):
        validate([], [])


# -- report files --------------------------------------------------------------


def test_report_round_trip(tmp_path):
    rng = random.Random(408)
    real = [
        series(f"d{i}", [rng.uniform(0.0, 20.0) for _ in range(WINDOWS_PER_DAY)])
        for i in range(3)
    ]
    sim = [
        series(s.detector_id, [c + rng.uniform(0.0, 2.0) for c in s.counts])
        for s in real
    ]
    report = validate(real, sim)
    json_path = tmp_path / "report.json"
    win_path = tmp_path / "per_window.csv"
    det_path = tmp_path / "per_detector.csv"
    write_report(report, json_path, win_path, det_path)
    doc = json.loads(json_path.read_text())
    assert list(doc) == [
        "scenario_nrmse", "per_window", "per_detector", "best_detector", "worst_detector",
    ]
    assert doc == dataclasses.asdict(report)

    win_lines = win_path.read_text().splitlines()
    assert win_lines[0] == "window,abs_error,nrmse"
    assert len(win_lines) == 1 + WINDOWS_PER_DAY
    det_lines = det_path.read_text().splitlines()
    assert det_lines[0] == "detector_id,nrmse"
    assert len(det_lines) == 1 + len(real)


def test_report_serializes_missing_scores_as_blank(tmp_path):
    # window 0 and d_dead carry no real traffic, so they have no score
    real = [flat("d_dead", 0.0), series("d_live", [0.0] + [3.0] * (WINDOWS_PER_DAY - 1))]
    sim = [
        flat("d_dead", 0.0),
        series("d_live", [1.0] + [4.0] * (WINDOWS_PER_DAY - 1)),
    ]
    report = validate(real, sim)
    json_path = tmp_path / "report.json"
    win_path = tmp_path / "per_window.csv"
    det_path = tmp_path / "per_detector.csv"
    write_report(report, json_path, win_path, det_path)
    doc = json.loads(json_path.read_text())
    assert doc["per_window"][0] == {"window": 0, "absolute_error": 1.0, "window_nrmse": None}
    assert doc["per_detector"][-1] == {"detector_id": "d_dead", "nrmse": None}
    # six decimals, a blank cell for a missing score
    assert win_path.read_text().splitlines()[:3] == [
        "window,abs_error,nrmse",
        "0,1.000000,",
        "1,1.000000,0.471405",  # sqrt(0.5) / 1.5
    ]
    assert det_path.read_text().splitlines() == [
        "detector_id,nrmse",
        "d_live,0.336842",
        "d_dead,",
    ]


# -- series files --------------------------------------------------------------


def test_series_csv_round_trip(tmp_path):
    rng = random.Random(409)
    original = [
        series("d2", [rng.uniform(0.0, 9.0) for _ in range(WINDOWS_PER_DAY)]),
        series("d1", [float(rng.randint(0, 9)) for _ in range(WINDOWS_PER_DAY)]),
    ]
    path = tmp_path / "series.csv"
    series_to_csv(original, begin=21600.0, path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "detector_id,window_start_s,count"
    # detectors sorted, one row per window from `begin`; integer means are
    # written without a decimal point, fractional ones in full
    d1, d2 = sorted(original, key=lambda s: s.detector_id)
    assert lines[1:] == [
        f"d1,{21600 + w * WINDOW_S},{int(c)}" for w, c in enumerate(d1.counts)
    ] + [
        f"d2,{21600 + w * WINDOW_S},{c!r}" for w, c in enumerate(d2.counts)
    ]
    assert [float(line.split(",")[2]) for line in lines[1:]] == list(d1.counts + d2.counts)


# -- one CSV reader ------------------------------------------------------------

# reader, its error, header, valid data rows, and a row with a non-numeric cell
CSV_READERS = {
    "measurements": (
        read_measurements_csv, MeasurementFormatError,
        "detector_id,date,window_start_s,count",
        ["d1,2023-09-05,0,3", "d1,2023-09-05,900,4"],
        "d1,2023-09-05,x,3",
    ),
    "sweep_best": (
        read_sweep_best, ValueError,
        "best_p,best_nrmse",
        ["0.0500,0.125000"],
        "0.0500,x",
    ),
}


def test_csv_errors_name_the_physical_line(tmp_path):
    # the quoted id spans lines 2-3, so the bad count sits on line 4
    path = tmp_path / "loops.csv"
    path.write_text(
        "detector_id,date,window_start_s,count\n"
        '"d\n1",2023-09-05,0,3\n'
        "d1,2023-09-05,900,-1\n"
    )
    with pytest.raises(
        MeasurementFormatError,
        match=re.escape(f"{path}: line 4: record for 'd1': negative count"),
    ):
        read_measurements_csv(path)


@pytest.mark.parametrize("name", sorted(CSV_READERS))
def test_csv_readers_share_one_set_of_rules(tmp_path, name):
    read, error, header, rows, bad_cell = CSV_READERS[name]
    path = tmp_path / f"{name}.csv"

    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    plain = read(path)

    path.write_text("\n" + header + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(error, match="bad header"):
        read(path)
    path.write_text(header.replace("_", "-") + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(error, match="bad header"):
        read(path)

    path.write_text(header + "\n" + rows[0] + ",7\n" + "\n".join(rows[1:]) + "\n")
    with pytest.raises(error, match=re.escape(f"{path}: line 2: expected ")):
        read(path)

    path.write_text(header + "\n\n" + "\n\n".join(rows) + "\n\n")
    assert list(read(path)) == list(plain)

    path.write_text(header + "\n\n" + bad_cell + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(error, match=re.escape(f"{path}: line 3: ")):
        read(path)
