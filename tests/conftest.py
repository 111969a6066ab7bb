"""Shared test set-up.

Some tests run the `trafcal` executable. When the package is not installed
(a plain checkout), put a shim on PATH that runs `python -m trafcal` from
this checkout's `src`.
"""

import os
import shutil
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session", autouse=True)
def trafcal_on_path(tmp_path_factory):
    if shutil.which("trafcal") is not None:
        yield
        return
    bindir = tmp_path_factory.mktemp("bin")
    shim = bindir / "trafcal"
    shim.write_text(
        "#!/bin/sh\n"
        f'PYTHONPATH="{SRC}${{PYTHONPATH:+:$PYTHONPATH}}" exec "{sys.executable}" -m trafcal "$@"\n'
    )
    shim.chmod(0o755)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PATH", f"{bindir}{os.pathsep}{os.environ.get('PATH', '')}")
        yield


@pytest.fixture
def sim_runs(monkeypatch):
    """Counts `Simulation.run` calls in this process: one config each."""
    from trafcal.microsim import Simulation

    calls = []
    run_ = Simulation.run

    def counted(sim, probe=None):
        calls.append(sim.config)
        return run_(sim, probe)

    monkeypatch.setattr(Simulation, "run", counted)
    return calls


@pytest.fixture(scope="session")
def twin_with_phase_states():
    """`make(size)`: the seed-7 twin network with each signal phase state
    cut or padded to `size` characters."""
    import dataclasses

    from trafcal import fixtures
    from trafcal.netmodel import RoadNetwork

    twin = fixtures.twin_scenario(7).net

    def make(size):
        programs = [
            dataclasses.replace(prog, phases=tuple(
                dataclasses.replace(ph, state=(ph.state * size)[:size]) for ph in prog.phases
            ))
            for prog in twin.tls_programs.values()
        ]
        return RoadNetwork(twin.junctions.values(), twin.edges.values(), programs, twin.bus_stops.values())

    return make
