"""In-memory spans around trafcal's public functions, and the per-layer
metrics derived from them.

Wrappers are installed at the name where each caller looks a function up
(the CLI imports `load_route_plans` by name, so that name is patched in
`trafcal.cli`), and removed again after each traced pass, so untraced
passes run the unmodified program. Spans are (name, start, end, parent).
Spans inside sweep worker processes are not collected: a forked worker
inherits the wrappers, but they only record in the process that made
the tracer.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

from trafcal import calibrate, cli, dataio, demandgen, equilibrium, netmodel
from trafcal.microsim.engine import Simulation

# (span name, module, attribute): every place a caller looks the function up
PATCH_POINTS = (
    ("netmodel.load_network", netmodel, "load_network"),
    ("netmodel.shortest_paths_from", netmodel, "shortest_paths_from"),
    ("demandgen.generate_trips", demandgen, "generate_trips"),
    ("demandgen.expand_routes", demandgen, "expand_routes"),
    ("demandgen.expand_routes", equilibrium, "expand_routes"),
    ("microsim.simio.load_route_plans", cli, "load_route_plans"),
    ("equilibrium.dua_iterate", equilibrium, "dua_iterate"),
    ("calibrate.sweep", calibrate, "sweep_rerouting_probability"),
    ("dataio.read_measurements_csv", dataio, "read_measurements_csv"),
    ("dataio.ingest", dataio, "ingest"),
    ("dataio.series_to_csv", dataio, "series_to_csv"),
    ("dataio.validate", dataio, "validate"),
    ("dataio.write_report", dataio, "write_report"),
    ("dataio.write_measurements_csv", dataio, "write_measurements_csv"),
)

CLI_STAGES = (
    "demand_generate", "dua_iterate", "calib_sweep", "report_validate",
    "data_ingest",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0  # time covered by direct child spans
        self.info = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the process that created it."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def active(self) -> bool:
        return os.getpid() == self.pid

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(sp)
            if parent is not None:
                parent.child_s += sp.duration

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.active():
                return fn(*args, **kwargs)
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                _note_result(name, sp, kwargs, result)
                return result
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every patch point for the duration of the block."""
        saved = []
        try:
            for name, module, attr in PATCH_POINTS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            saved.append((Simulation, "run", Simulation.run))
            Simulation.run = self._traced_run(Simulation.run)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _traced_run(self, run):
        def traced_run(sim, probe=None):
            if not self.active():
                return run(sim, probe)
            departs = [p.depart for p in sim.plans]
            n_plans = len(departs)
            due = steps = 0
            backlog_max = backlog_sum = 0.0

            def counting_probe(s, now):
                nonlocal due, steps, backlog_max, backlog_sum
                while due < n_plans and departs[due] <= now:
                    due += 1
                backlog = due - s.totals["departed"]
                steps += 1
                backlog_sum += backlog
                if backlog > backlog_max:
                    backlog_max = backlog
                if probe is not None:
                    probe(s, now)

            with self.span("microsim.run") as sp:
                out = run(sim, counting_probe)
            sp.info.update(
                steps=steps, backlog_max=backlog_max, backlog_sum=backlog_sum
            )
            sp.info["veh_steps"] = vehicle_steps(out, sim.config.step_length)
            sp.info["p"] = sim.config.rerouting_probability
            return out

        traced_run.__wrapped__ = run
        return traced_run


def _note_result(name, sp, kwargs, result):
    if name == "dataio.read_measurements_csv":
        sp.info["records"] = len(result)
    elif name == "calibrate.sweep":
        sp.info["points"] = len(result.entries)
        sp.info["workers"] = kwargs.get("workers", 1)


def vehicle_steps(out, step_length: float) -> float:
    """Simulated vehicle-steps: time each vehicle spent in the network,
    in steps."""
    return sum(
        v.time_in_net / step_length
        for v in out.vehicles.values()
        if v.time_in_net is not None
    )


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer numbers for one pass, averaged over `passes` traced passes."""
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def total(name):
        return sum(sp.duration for sp in by_name.get(name, ()))

    def self_total(name):
        return sum(sp.duration - sp.child_s for sp in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    m: dict[str, float] = {}
    for stage in CLI_STAGES:
        m[f"cli.{stage}.s"] = total(f"cli.{stage}") / passes
        m[f"cli.{stage}.self_s"] = self_total(f"cli.{stage}") / passes

    m["netmodel.load_network.s"] = total("netmodel.load_network") / passes
    m["netmodel.shortest_paths_from.calls"] = calls("netmodel.shortest_paths_from") / passes
    m["netmodel.shortest_paths_from.s"] = total("netmodel.shortest_paths_from") / passes
    m["demandgen.generate_trips.s"] = total("demandgen.generate_trips") / passes
    m["demandgen.expand_routes.s"] = total("demandgen.expand_routes") / passes

    runs = by_name.get("microsim.run", [])
    run_s = [sp.duration for sp in runs]
    steps = sum(sp.info["steps"] for sp in runs)
    veh_steps = sum(sp.info["veh_steps"] for sp in runs)
    m["microsim.run.s"] = statistics.median(run_s) if run_s else 0.0
    m["microsim.run.max_s"] = max(run_s, default=0.0)
    m["microsim.runs"] = len(runs) / passes
    m["microsim.steps"] = steps / passes
    m["microsim.veh_steps"] = veh_steps / passes
    m["microsim.veh_steps_per_s"] = veh_steps / sum(run_s) if run_s else 0.0
    m["microsim.backlog_max"] = max((sp.info["backlog_max"] for sp in runs), default=0.0)
    m["microsim.backlog_mean"] = (
        sum(sp.info["backlog_sum"] for sp in runs) / steps if steps else 0.0
    )
    m["microsim.simio.load_route_plans.s"] = total("microsim.simio.load_route_plans") / passes

    iterations = sum(
        1 for sp in runs if sp.parent is not None and sp.parent.name == "equilibrium.dua_iterate"
    )
    m["equilibrium.dua_iterate.self_s"] = self_total("equilibrium.dua_iterate") / passes
    m["equilibrium.iterations"] = iterations / passes
    m["equilibrium.s_per_iteration"] = (
        total("equilibrium.dua_iterate") / iterations if iterations else 0.0
    )

    sweeps = by_name.get("calibrate.sweep", [])
    sweep_s = total("calibrate.sweep")
    points = sum(sp.info.get("points", 0) for sp in sweeps)
    workers = max((sp.info.get("workers", 1) for sp in sweeps), default=1)
    m["calibrate.sweep.s"] = sweep_s / passes
    m["calibrate.points"] = points / passes
    m["calibrate.s_per_point"] = sweep_s / points if points else 0.0
    # derived, not measured: sweep runs happen in worker processes, so the
    # per-point cost is taken from in-process runs at p > 0
    rerouting_runs = [sp.duration for sp in runs if sp.info["p"] > 0]
    m["calibrate.fanout_efficiency.derived"] = (
        points * statistics.median(rerouting_runs) / (workers * sweep_s)
        if rerouting_runs and sweep_s > 0 else 0.0
    )

    m["dataio.read_measurements_csv.s"] = total("dataio.read_measurements_csv") / passes
    m["dataio.records"] = sum(
        sp.info.get("records", 0) for sp in by_name.get("dataio.read_measurements_csv", ())
    ) / passes
    for name in ("ingest", "series_to_csv", "validate", "write_report", "write_measurements_csv"):
        m[f"dataio.{name}.s"] = total(f"dataio.{name}") / passes
    return m
