"""Tests of the benchmark's own oracles, generator and tracing.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import loopgen  # noqa: E402
import oracles  # noqa: E402
import pytest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from trafcal import cli, dataio  # noqa: E402
from trafcal.microsim import Simulation  # noqa: E402


def _ingest(tmp_path, data, records):
    path = tmp_path / "loops.csv"
    dataio.write_measurements_csv(records, path)
    out = tmp_path / "out"
    code = cli.main([
        "data", "ingest", "--measurements", str(path),
        "--include-weekdays", loopgen.INCLUDE_WEEKDAYS,
        "--exclude-dates", ",".join(d.isoformat() for d in data.exclude_dates),
        "--output-dir", str(out),
    ])
    assert code == 0
    return out / "ingest_summary.json"


def test_loop_generator_is_deterministic_per_seed():
    a = loopgen.generate(5, n_detectors=4, n_days=14)
    b = loopgen.generate(5, n_detectors=4, n_days=14)
    c = loopgen.generate(6, n_detectors=4, n_days=14)
    assert a == b
    assert a.records != c.records


def test_loop_generator_plants_both_fault_kinds():
    data = loopgen.generate(1, n_detectors=40, n_days=30)
    per_day = {}
    for r in data.records:
        per_day.setdefault((r.detector_id, r.date), []).append(r.window_start)
    sizes = {len(w) for w in per_day.values()}
    assert sizes == {loopgen.WINDOWS - 1, loopgen.WINDOWS, loopgen.WINDOWS + 1}


def test_ingest_oracle_accepts_correct_ingest(tmp_path):
    data = loopgen.generate(3, n_detectors=6, n_days=21)
    summary = _ingest(tmp_path, data, data.records)
    assert oracles.check_days_used(summary, data.expected_days) == []


def test_ingest_oracle_fires_on_missing_window(tmp_path):
    data = loopgen.generate(3, n_detectors=6, n_days=21)
    summary = _ingest(tmp_path, data, data.records)
    used = json.loads(summary.read_text())["days_used"]
    det = "loop_000"
    # drop one window of a day that ingestion kept: that day must go too
    windows = {}
    for r in data.records:
        if r.detector_id == det:
            windows.setdefault(r.date, []).append(r.window_start)
    kept = min(
        d for d, w in windows.items()
        if len(w) == loopgen.WINDOWS and d.weekday() in (1, 2, 3)
        and d not in data.exclude_dates
    )
    broken = [
        r for r in data.records
        if (r.detector_id, r.date, r.window_start) != (det, kept, 900)
    ]
    summary = _ingest(tmp_path, data, broken)
    problems = oracles.check_days_used(summary, data.expected_days)
    assert used[det] == data.expected_days[det]
    assert problems == [
        f"{det}: days_used {data.expected_days[det] - 1}, expected {data.expected_days[det]}"
    ]


def _write(path, text):
    path.write_text(text, encoding="utf-8")


def _sweep_dir(tmp_path, best_p, rows):
    _write(tmp_path / "sweep.csv", "p,nrmse\n" + "".join(f"{p:.4f},{e:.6f}\n" for p, e in rows))
    _write(tmp_path / "sweep_best.csv", f"best_p,best_nrmse\n{best_p:.4f},0.000000\n")
    return tmp_path


def test_sweep_oracle_accepts_true_p(tmp_path):
    out = _sweep_dir(tmp_path, 0.6, [(0.0, 0.07), (0.3, 0.09), (0.6, 0.0), (0.9, 0.4)])
    assert oracles.check_sweep(out) == []


def test_sweep_oracle_fires_when_argmin_moves(tmp_path):
    out = _sweep_dir(tmp_path, 0.5, [(0.4, 0.02), (0.5, 0.0), (0.6, 0.01)])
    problems = oracles.check_sweep(out)
    assert len(problems) == 2
    assert "argmin p=0.5" in problems[0]


def test_sweep_oracle_fires_on_missing_output(tmp_path):
    assert oracles.check_sweep(tmp_path)[0].startswith("sweep output unreadable")


def test_report_oracle(tmp_path):
    _write(tmp_path / "report.json", json.dumps({"scenario_nrmse": 0.0}))
    assert oracles.check_report(tmp_path) == []
    _write(tmp_path / "report.json", json.dumps({"scenario_nrmse": 0.013}))
    assert oracles.check_report(tmp_path) == ["report scenario_nrmse 0.013, expected 0"]


GOOD_TOTALS = {
    "loaded": 10.0, "departed": 9.0, "arrived": 7.0, "still_running": 2.0,
    "never_inserted": 1.0, "teleports": 0.0, "collisions": 0.0,
}


def test_totals_oracle():
    assert oracles.check_totals(GOOD_TOTALS) == []
    assert oracles.check_totals({**GOOD_TOTALS, "collisions": 1.0}) == ["1 collisions"]
    lost = oracles.check_totals({**GOOD_TOTALS, "arrived": 6.0})
    assert len(lost) == 1 and lost[0].startswith("vehicles not conserved")


def test_checked_runs_raises_on_broken_totals(monkeypatch):
    class Out:
        totals = {**GOOD_TOTALS, "collisions": 2.0}

    monkeypatch.setattr(Simulation, "run", lambda sim, probe=None: Out())
    with oracles.checked_runs():
        with pytest.raises(oracles.OracleError, match="2 collisions"):
            Simulation.run(None)
    assert Simulation.run(None) is not None  # restored on exit


def test_cli_exit_oracle_counts_failed_stage(tmp_path):
    ops = workloads.Ops()
    wl = workloads.TwinPipeline(1, str(tmp_path), ops)
    problems = wl._cli(None, "net_validate", [
        "net", "validate", "--network", str(tmp_path / "missing.json"),
    ])
    assert problems[0] == "net_validate: exit code 3"
    assert not ops.record("net validate", problems)
    assert (ops.attempted, ops.failed) == (1, 1)


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    with tracer.span("cli.dua_iterate"):
        time.sleep(0.02)
        with tracer.span("microsim.run") as run:
            time.sleep(0.03)
        run.info.update(steps=1, veh_steps=1.0, backlog_max=0, backlog_sum=0, p=0.0)
    m = tracing.layer_metrics(tracer.spans, 1)
    assert m["cli.dua_iterate.s"] >= 0.05
    assert 0.02 <= m["cli.dua_iterate.self_s"] < m["cli.dua_iterate.s"] - 0.025


def test_installed_wrappers_are_removed():
    before = {(m, a): getattr(m, a) for _, m, a in tracing.PATCH_POINTS}
    run = Simulation.run
    with tracing.Tracer().installed():
        assert Simulation.run is not run
    assert Simulation.run is run
    assert all(getattr(m, a) is fn for (m, a), fn in before.items())


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = set(tracing.layer_metrics([], 1)) | {
        "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_pct",
    }
    assert layer == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rush-day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
