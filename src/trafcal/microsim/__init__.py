"""Time-stepped microscopic traffic simulator."""

from trafcal.microsim.engine import (
    SimConfig,
    SimOutput,
    Simulation,
    VehicleResult,
    check_run,
)
from trafcal.microsim.simio import (
    BusLine,
    Detector,
    RoutePlan,
    load_bus_lines,
    load_detectors,
    load_route_plans,
    save_bus_lines,
    save_detectors,
    save_route_plans,
    write_detector_csv,
    write_running_csv,
)

__all__ = [
    "BusLine",
    "Detector",
    "RoutePlan",
    "SimConfig",
    "SimOutput",
    "Simulation",
    "VehicleResult",
    "check_run",
    "load_bus_lines",
    "load_detectors",
    "load_route_plans",
    "save_bus_lines",
    "save_detectors",
    "save_route_plans",
    "write_detector_csv",
    "write_running_csv",
]
