"""Output oracles. Each check returns a list of violations; an operation
whose check returns any counts as failed."""

from __future__ import annotations

import contextlib
import csv
import json
import os

from trafcal.microsim.engine import Simulation

TWIN_TRUE_P = 0.6


class OracleError(Exception):
    """A simulation broke a safety invariant."""


def check_exit(stage: str, code: int) -> list[str]:
    return [] if code == 0 else [f"{stage}: exit code {code}"]


def check_totals(totals: dict) -> list[str]:
    """No collisions, and every loaded vehicle is accounted for."""
    problems = []
    if totals["collisions"] != 0:
        problems.append(f"{totals['collisions']:g} collisions")
    accounted = totals["arrived"] + totals["still_running"] + totals["never_inserted"]
    if totals["loaded"] != accounted:
        problems.append(
            f"vehicles not conserved: loaded {totals['loaded']:g}, arrived"
            f" {totals['arrived']:g} + running {totals['still_running']:g}"
            f" + never inserted {totals['never_inserted']:g}"
        )
    return problems


@contextlib.contextmanager
def checked_runs():
    """Make every `Simulation.run` in the block, in this process and in
    forked sweep workers, raise OracleError when its totals break an
    invariant. Inside the CLI that surfaces as a failing exit code."""
    run = Simulation.run

    def checked(sim, probe=None):
        out = run(sim, probe)
        problems = check_totals(out.totals)
        if problems:
            raise OracleError("; ".join(problems))
        return out

    Simulation.run = checked
    try:
        yield
    finally:
        Simulation.run = run


def _read_rows(path, header: list[str]) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{os.path.basename(path)}: bad header")
    return rows[1:]


def check_sweep(out_dir, true_p: float = TWIN_TRUE_P) -> list[str]:
    """Same-seed twin: the sweep's argmin is the hidden p, with error 0."""
    problems = []
    try:
        entries = [(float(p), float(e)) for p, e in _read_rows(
            os.path.join(out_dir, "sweep.csv"), ["p", "nrmse"])]
        best = _read_rows(os.path.join(out_dir, "sweep_best.csv"), ["best_p", "best_nrmse"])
    except (OSError, ValueError) as exc:
        return [f"sweep output unreadable: {exc}"]
    if not entries:
        return ["sweep.csv has no rows"]
    arg_p, arg_e = min(entries, key=lambda pe: (pe[1], pe[0]))
    if (arg_p, arg_e) != (true_p, 0.0):
        problems.append(f"sweep.csv argmin p={arg_p} nrmse={arg_e}, expected p={true_p} nrmse=0")
    if len(best) != 1 or (float(best[0][0]), float(best[0][1])) != (true_p, 0.0):
        problems.append(f"sweep_best.csv reads {best}, expected p={true_p} nrmse=0")
    return problems


def check_report(out_dir) -> list[str]:
    try:
        with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
            score = json.load(fh)["scenario_nrmse"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"report.json unreadable: {exc}"]
    return [] if score == 0 else [f"report scenario_nrmse {score}, expected 0"]


def check_days_used(summary_path, expected: dict[str, int]) -> list[str]:
    """Ingest kept exactly the clean admitted days the generator planted."""
    try:
        with open(summary_path, "r", encoding="utf-8") as fh:
            days_used = json.load(fh)["days_used"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"ingest summary unreadable: {exc}"]
    wrong = sorted(
        det for det in set(expected) | set(days_used)
        if days_used.get(det) != expected.get(det)
    )
    return [
        f"{det}: days_used {days_used.get(det)}, expected {expected.get(det)}"
        for det in wrong[:5]
    ] + ([f"... {len(wrong) - 5} more detectors"] if len(wrong) > 5 else [])
