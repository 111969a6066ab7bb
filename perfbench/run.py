#!/usr/bin/env python3
"""trafcal benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload twin-pipeline --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports trafcal from that
checkout's `src` directory and refuses any other copy. The run sets the
workload up several times from the seed (set-up time is the median),
then repeats timed passes while the next one is expected to fit in
`--seconds`, at least one. Every operation's output is checked.

With `--trace 0` the result carries the end-to-end metrics of
BENCHMARK.json, measured with no tracing installed. With `--trace 1`
it carries the per-layer metrics instead: passes alternate between
untraced and traced, so the tracing overhead is measured in the same run.

Output: a detail line (workload metrics such as stage times, SHA-256 of
the outputs, failures), then as the last line the result object
{"correct", "attempted", "failed", "metrics"}. All scratch files live in
`.perfbench-work/` under the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def import_checkout_package() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import trafcal
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import trafcal from {src}: {exc}")
    if Path(trafcal.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: trafcal was imported from {trafcal.__file__}, not {src}")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


@dataclasses.dataclass
class Measured:
    setup_s: list[float]  # one per set-up
    untraced_s: list[float]  # one per pass
    traced_s: list[float]
    stage_s: dict[str, list[float]]  # per operation, untraced passes only
    setup_spans: list
    digests_stable: bool


def measure(workload, seconds: float, tracer) -> Measured:
    """Set up, then run passes: untraced only, or alternating untraced
    and traced when a tracer is given."""
    m = Measured([], [], [], {}, [], True)
    for i in range(1 if tracer else SETUP_REPEATS):
        t0 = time.perf_counter()
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                workload.setup(i)
        except Exception as exc:  # noqa: BLE001 - count it, then stop
            workload.ops.record("setup", [f"{type(exc).__name__}: {exc}"])
        m.setup_s.append(time.perf_counter() - t0)
        if workload.ops.failed:
            break
    if tracer:
        m.setup_spans, tracer.spans = tracer.spans, []

    digests = []
    start = time.perf_counter()
    last = 0.0
    while not workload.ops.failed:
        enough = m.untraced_s and (m.traced_s or not tracer)
        if enough and time.perf_counter() - start + last > seconds:
            break
        traced_turn = tracer is not None and len(m.traced_s) < len(m.untraced_s)
        t0 = time.perf_counter()
        with tracer.installed() if traced_turn else contextlib.nullcontext():
            times = workload.run_pass(tracer if traced_turn else None)
        last = time.perf_counter() - t0
        if times is None:
            break
        if traced_turn:
            m.traced_s.append(sum(times.values()))
        else:
            m.untraced_s.append(sum(times.values()))
            for stage, t in times.items():
                m.stage_s.setdefault(stage, []).append(t)
        digests.append(dict(workload.digests))
    m.digests_stable = all(d == digests[0] for d in digests)
    return m


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_checkout_package()
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    import oracles
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    work_root = ROOT / ".perfbench-work"
    work_dir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    os.makedirs(work_dir)
    ops = workloads.Ops()
    workload = workloads.WORKLOADS[args.workload](args.seed, str(work_dir), ops)
    tracer = tracing.Tracer() if args.trace else None
    try:
        with oracles.checked_runs():
            m = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only when no other run is using it

    if tracer:
        kind = "per_layer"
        values = tracing.layer_metrics(tracer.spans, max(len(m.traced_s), 1))
        values["dataio.write_measurements_csv.s"] = tracing.layer_metrics(
            m.setup_spans, 1
        )["dataio.write_measurements_csv.s"]
        plain, with_spans = median_or_zero(m.untraced_s), median_or_zero(m.traced_s)
        values["trace.untraced_wall_s"] = plain
        values["trace.traced_wall_s"] = with_spans
        values["trace.overhead_pct"] = 100.0 * (with_spans / plain - 1.0) if plain else 0.0
    else:
        kind = "end_to_end"
        values = {
            "setup_s": median_or_zero(m.setup_s),
            "wall_s": median_or_zero(m.untraced_s),
            "peak_rss_mb": peak_rss_mb(),
        }
    units = {entry["name"]: entry["unit"] for entry in spec[kind]}
    if set(values) != set(units):
        raise RuntimeError(
            f"{kind} metrics disagree with BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, extra {sorted(set(values) - set(units))}"
        )

    workload_metrics = {}
    if m.untraced_s and not ops.failed:
        for name, (vals, unit) in workload.workload_metrics(m.stage_s).items():
            workload_metrics[name] = {"value": statistics.median(vals), "unit": unit}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "setup_s": m.setup_s,
        "pass_s": m.untraced_s,
        "traced_pass_s": m.traced_s,
        "workload_metrics": workload_metrics,
        "digests": workload.digests,
        "digests_identical_across_passes": m.digests_stable,
        "problems": ops.problems[:20],
    }
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
