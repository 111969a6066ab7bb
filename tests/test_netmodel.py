"""Network model: schema, validation, connections, routing."""

import dataclasses
import json
import math
import random
import re
import typing

import pytest

from trafcal import cli, fixtures
from trafcal import netmodel
from trafcal.calibrate import GridSpec, Run
from trafcal.cli import ProjectConfig, UsageError, load_project
from trafcal.demandgen import (
    CityGate,
    DemandConfig,
    DemandError,
    DistrictStats,
    School,
    Trip,
    WorkHours,
    load_statistics,
    read_trips,
)
from trafcal.equilibrium import DuaConfig
from trafcal.microsim import SimConfig
from trafcal.microsim.carfollow import CAR
from trafcal.microsim.simio import (
    BusLine,
    Detector,
    RoutePlan,
    load_bus_lines,
    load_detectors,
    load_route_plans,
    save_bus_lines,
    save_detectors,
)
from trafcal.netmodel import (
    BusStop,
    CarRoutes,
    DanglingReferenceError,
    Edge,
    Junction,
    NetworkFile,
    NetworkFormatError,
    RoadNetwork,
    TlsPhase,
    TlsProgram,
    engine_violations,
    free_flow_time,
    left_sum,
    load_network,
    network_to_dict,
    read_records,
    record_from,
    route_cost,
    save_network,
    shortest_paths_from,
    validate_network,
)


def tiny_net(**kwargs):
    junctions = [
        Junction("a", 0.0, 0.0, kind="dead_end"),
        Junction("b", 100.0, 0.0),
        Junction("c", 200.0, 0.0, kind="dead_end"),
    ]
    edges = [
        Edge("ab", "a", "b", 100.0),
        Edge("bc", "b", "c", 100.0),
        Edge("cb", "c", "b", 100.0),
        Edge("ba", "b", "a", 100.0),
    ]
    return RoadNetwork(junctions, edges, **kwargs)


# -- construction and references --------------------------------------------


def test_dangling_edge_reference_rejected():
    with pytest.raises(DanglingReferenceError):
        RoadNetwork([Junction("a", 0, 0)], [Edge("e", "a", "missing", 10.0)])


def test_duplicate_ids_rejected():
    with pytest.raises(NetworkFormatError):
        RoadNetwork(
            [Junction("a", 0, 0), Junction("a", 1, 1)],
            [],
        )


def test_adjacency_is_sorted_and_complete():
    net = tiny_net()
    assert net.out_edges["b"] == ("ba", "bc")
    assert net.in_edges["b"] == ("ab", "cb")
    assert net.successors["ab"] == ("bc",)  # U-turn ab->ba dropped
    assert net.successors["cb"] == ("ba",)


def test_uturn_kept_when_it_is_the_only_movement():
    junctions = [Junction("a", 0, 0, kind="dead_end"), Junction("b", 10, 0)]
    edges = [Edge("ab", "a", "b", 10.0), Edge("ba", "b", "a", 10.0)]
    net = RoadNetwork(junctions, edges)
    assert net.successors["ab"] == ("ba",)


def test_connections_are_ordered_pairs():
    net = fixtures.grid_network()
    conns = net.connections("n22")
    assert len(conns) == 12
    assert conns == tuple(sorted(conns))
    # 4 in-edges, each with 3 non-U-turn outgoing movements
    ins = {c[0] for c in conns}
    assert len(ins) == 4
    for ein, eout in conns:
        assert net.edges[ein].to_junction == "n22"
        assert net.edges[eout].from_junction == "n22"


def test_grid_ids_are_unique_at_every_size():
    # ids joined without a separator would collide from n = 12 ("n1" "10"
    # and "n11" "0"); up to n = 11 they keep that form
    for n in range(2, 31):
        net = fixtures.grid_network(n)
        assert len(net.junctions) == n * n and len(net.edges) == 4 * n * (n - 1), n
        assert validate_network(net) == [], n
        assert ("n110" in net.junctions) == (n == 11), n
    assert "n12_13" in net.junctions and "e12_13_12_14" in net.edges


# -- serialization -----------------------------------------------------------


def test_round_trip_preserves_everything(tmp_path):
    stops = (BusStop("s1", "ab", 50.0, "mid"),)
    net = tiny_net(bus_stops=stops, tls_programs=())
    path = tmp_path / "net.json"
    save_network(net, path)
    again = load_network(path)
    assert network_to_dict(again) == network_to_dict(net)


def test_grid_round_trip_including_tls(tmp_path):
    net = fixtures.grid_network()
    path = tmp_path / "grid.json"
    save_network(net, path)
    again = load_network(path)
    assert network_to_dict(again) == network_to_dict(net)
    assert len(again.tls_programs) == 9


def test_unknown_field_rejected():
    doc = network_to_dict(tiny_net())
    doc["edges"][0]["color"] = "red"
    with pytest.raises(NetworkFormatError) as err:
        record_from(NetworkFile, doc).network()
    assert "color" in str(err.value)


def test_missing_field_rejected():
    doc = network_to_dict(tiny_net())
    del doc["edges"][0]["length"]
    with pytest.raises(NetworkFormatError):
        record_from(NetworkFile, doc).network()


def test_parking_buildings_and_edge_categories_are_refused():
    # nothing simulates or scores them, so a file that carries them is
    # refused like any other unknown field
    for key in ("parking", "buildings"):
        doc = dict(network_to_dict(tiny_net()), **{key: []})
        with pytest.raises(NetworkFormatError, match=f"top level: unknown field '{key}'"):
            record_from(NetworkFile, doc).network()
    doc = network_to_dict(tiny_net())
    doc["edges"][0]["category"] = "normal"
    with pytest.raises(NetworkFormatError, match=r"edges\[0\]: unknown field 'category'"):
        record_from(NetworkFile, doc).network()


def test_bool_is_not_a_number(tmp_path):
    doc = network_to_dict(tiny_net())
    doc["edges"][0]["length"] = True
    with pytest.raises(NetworkFormatError, match="field 'length' has wrong type"):
        record_from(NetworkFile, doc).network()
    # and not in a nested array either
    path = tmp_path / "lines.json"
    path.write_text(json.dumps({"bus_lines": [
        {"id": "L", "stop_sequence": [], "route": ["ab"], "departures": [True, 60]},
    ]}))
    with pytest.raises(NetworkFormatError, match=r"bus_lines\[0\]: field 'departures\[0\]' has wrong type"):
        load_bus_lines(path)


def _network_records(path):
    net = load_network(path)
    return [
        *net.junctions.values(), *net.edges.values(), *net.tls_programs.values(),
        *net.bus_stops.values(),
    ]


def _statistics_records(path):
    stats = load_statistics(path)
    return [*stats.districts, *stats.gates, *stats.schools, stats.config]


# loader, a file whose records hold only their required keys, the records
# built from those keys (every other field is the dataclass default), and
# for the fixture files: the saver and the twin scenario's records
REQUIRED_ONLY = {
    "network": (
        _network_records,
        {
            "junctions": [{"id": "a", "x": 0, "y": 1.5}],
            "edges": [{"id": "e", "from": "a", "to": "a", "length": 5}],
            "tls": [{"junction_id": "a", "logic": "static",
                     "phases": [{"duration": 30, "state": "G"}]}],
            "bus_stops": [{"id": "s", "edge_id": "e", "position": 1}],
        },
        [
            Junction(id="a", x=0.0, y=1.5),
            Edge(id="e", from_junction="a", to_junction="a", length=5.0),
            # a phase's duration bounds default to its duration
            TlsProgram(junction_id="a", logic="static", phases=(TlsPhase(30.0, 30.0, 30.0, "G"),)),
            BusStop(id="s", edge_id="e", position=1.0),
        ],
        None,
    ),
    "routes": (
        load_route_plans,
        {"routes": [{"trip_id": "t", "edges": ["e"], "depart": 3}]},
        [RoutePlan(trip_id="t", edges=("e",), depart=3.0)],
        None,
    ),
    "detectors": (
        load_detectors,
        {"detectors": [{"id": "d", "edge_id": "e", "lane": 0, "position": 2}]},
        [Detector(id="d", edge_id="e", lane=0, position=2.0)],
        (save_detectors, "detectors"),
    ),
    "bus_lines": (
        load_bus_lines,
        {"bus_lines": [{"id": "L", "stop_sequence": ["s"], "route": ["e"], "departures": [0, 60]}]},
        [BusLine(id="L", stop_sequence=("s",), route=("e",), departures=(0.0, 60.0))],
        (save_bus_lines, "bus_lines"),
    ),
    "trips": (
        read_trips,
        {"trips": [{"id": "t", "depart": 5, "from_edge": "e", "to_edge": "f", "purpose": "work"}]},
        [Trip(id="t", depart=5.0, from_edge="e", to_edge="f", purpose="work")],
        None,
    ),
    "statistics": (
        _statistics_records,
        {
            "districts": [{"id": "d", "edge_ids": ["e"], "inhabitants": 1, "workers": 0,
                           "work_positions": 0, "age_brackets": [1]}],
            "gates": [{"id": "g", "in_edge": "e", "out_edge": "f",
                       "incoming_share": 1, "outgoing_share": 1}],
            "schools": [{"id": "s", "edge_id": "e", "age_min": 6, "age_max": 9,
                         "capacity": 3, "opening_h": 8, "closing_h": 16}],
            "config": {"car_rate": 1, "car_preference_rate": 0.5, "incoming_total": 0,
                       "outgoing_total": 0,
                       "work_hours": [{"opening_h": 8, "closing_h": 17, "worker_share": 1}]},
        },
        [
            DistrictStats(id="d", edge_ids=("e",), inhabitants=1, workers=0,
                          work_positions=0, age_brackets=(1,)),
            CityGate(id="g", in_edge="e", out_edge="f", incoming_share=1.0, outgoing_share=1.0),
            School(id="s", edge_id="e", age_min=6, age_max=9, capacity=3,
                   opening_h=8.0, closing_h=16.0),
            DemandConfig(car_rate=1.0, car_preference_rate=0.5, incoming_total=0,
                         outgoing_total=0, work_hours=(WorkHours(8.0, 17.0, 1.0),)),
        ],
        None,
    ),
    "project": (lambda path: [load_project(path)], {}, [ProjectConfig()], None),
    "swept_series": (
        lambda path: read_records(path, "runs", Run, ValueError),
        {"runs": [{"key": "k", "theta": {"rerouting_probability": 0}, "counts": {"d": [1] * 96}}]},
        [Run(key="k", theta={"rerouting_probability": 0.0}, counts={"d": (1,) * 96})],
        None,
    ),
}


def _assert_floats(value, tp):
    """Every value declared float is a float: in scalar fields, in the items
    of tuples such as vertices, and in nested records such as phases."""
    if tp is float:
        assert type(value) is float, value
    elif dataclasses.is_dataclass(tp):
        for name, field_tp in typing.get_type_hints(tp).items():
            _assert_floats(getattr(value, name), field_tp)
    elif typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        for i, item in enumerate(value):
            _assert_floats(item, args[0] if args[-1] is Ellipsis else args[i])


@pytest.mark.parametrize("loader", sorted(REQUIRED_ONLY))
def test_required_keys_load_with_dataclass_defaults(loader, tmp_path):
    load, doc, expected, fixture = REQUIRED_ONLY[loader]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    records = load(path)
    assert records == expected
    # numbers land in float fields as floats, whatever their JSON form
    for rec in records:
        _assert_floats(rec, type(rec))
    if fixture is not None:
        save, attr = fixture
        scenario = fixtures.twin_scenario(7)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save(getattr(scenario, attr), first)  # as `fixture make` writes it
        save(load(first), second)
        assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("kind", sorted(REQUIRED_ONLY))
def test_unknown_top_level_key_is_refused(kind, tmp_path):
    load, doc, _, _ = REQUIRED_ONLY[kind]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(dict(doc, surprise=1)))
    with pytest.raises(
        (ValueError, UsageError), match=re.escape(f"{path}: top level: unknown field 'surprise'")
    ):
        load(path)


@pytest.mark.parametrize("kind", sorted(REQUIRED_ONLY))
def test_repeated_key_is_refused(kind, tmp_path):
    # `json` keeps the last of a repeated key: `{"seed": 1, "seed": 2}`
    # would run at seed 2, and a second `edges` array would drop the first
    load, doc, _, _ = REQUIRED_ONLY[kind]
    doc = doc or {"seed": 0}  # the project config has no required key
    key, value = next(iter(doc.items()))
    path = tmp_path / "in.json"
    path.write_text(f"{{{json.dumps(key)}: {json.dumps(value)}, {json.dumps(doc)[1:]}")
    with pytest.raises((ValueError, UsageError), match=re.escape(f"{path}: repeated key '{key}'")):
        load(path)


def test_literal_fields_take_only_their_values():
    doc = network_to_dict(tiny_net())
    doc["junctions"][1]["kind"] = "roundabout"
    with pytest.raises(NetworkFormatError, match=re.escape(
        "junctions[1]: field 'kind' must be one of "
        "('plain', 'traffic_light', 'dead_end'), got 'roundabout'"
    )):
        record_from(NetworkFile, doc).network()
    doc = network_to_dict(fixtures.grid_network())
    doc["tls"][0]["logic"] = "adaptive"
    with pytest.raises(NetworkFormatError, match=re.escape(
        "tls[0]: field 'logic' must be one of ('static', 'actuated'), got 'adaptive'"
    )):
        record_from(NetworkFile, doc).network()
    doc["tls"][0]["logic"] = 1  # not a string at all
    with pytest.raises(NetworkFormatError, match=re.escape("tls[0]: field 'logic' has wrong type")):
        record_from(NetworkFile, doc).network()


# -- record ranges -----------------------------------------------------------

H = 3600.0
# a valid record of each class with `bounded` fields, and the interval each
# of those fields declares: the ranges the settings and statistics take
BOUNDED = (
    (SimConfig(), {
        "begin": "(-inf, inf)", "end": "(-inf, inf)", "step_length": "(0, inf)",
        "ignore_junction_blocker": "[0, inf]", "time_to_teleport": "(0, inf]",
        "rerouting_probability": "[0, 1]", "rerouting_period": "(0, inf]",
        "speed_smoothing": "[0, 1]",
    }),
    (CAR, {
        "accel": "(0, inf)", "decel": "(0, inf)", "tau": "[0, inf)", "sigma": "[0, 1]",
        "min_gap": "[0, inf)", "length": "(0, inf)", "max_speed": "(0, inf)",
    }),
    (DuaConfig(), {
        "max_iter": "[1, inf)", "tol": "[0, inf]", "window": "[1, inf)", "beta": "[0, inf]",
        "alpha": "[0, 1]", "max_alternatives": "[1, inf)",
    }),
    (GridSpec(), {"p_min": "[0, 1]", "p_max": "[0, 1]", "step": "(0, inf)"}),
    (DemandConfig(0.5, 0.5, 0, 0, (WorkHours(8 * H, 17 * H, 1.0),)), {
        "car_rate": "[0, 1]", "car_preference_rate": "[0, 1]", "incoming_total": "[0, inf)",
        "outgoing_total": "[0, inf)", "departure_jitter_sd": "[0, inf)",
        "free_time_rate": "[0, 1]",
    }),
    (WorkHours(8 * H, 17 * H, 1.0), {"worker_share": "[0, 1]"}),
    (CityGate("g", "e0", "e1", 1.0, 1.0), {"incoming_share": "[0, 1]", "outgoing_share": "[0, 1]"}),
    (DistrictStats("d", ("e0",), 2, 1, 1, (1, 1)), {
        "inhabitants": "[0, inf)", "workers": "[0, inf)", "work_positions": "[0, inf)",
        "age_brackets": "[0, inf)",
    }),
    (School("s", "e0", 6, 9, 10, 8 * H, 16 * H), {"capacity": "[0, inf)"}),
)
# the numeric fields of those records with no interval of their own
UNBOUNDED = {
    "seed": "any integer seeds the random stream",
    "opening_h": "checked with closing_h by demandgen._check_hours, whose message says"
                 " both are seconds of the day",
    "closing_h": "checked with opening_h by demandgen._check_hours",
    "age_min": "any integer: a school whose ages cover no whole bracket enrols nobody",
    "age_max": "any integer, like age_min, and not below it",
}
# shares outside [0, 1] that still sum to 1, so only their range refuses
# them; generation would apportion them as given. On the seed-7 twin, gate
# incoming shares of -0.5 and 1.5 make 720 incoming trips, all at
# `gate_se`, against 480 at 0.5 and 0.5; with only its first two shifts,
# worker shares of 1.5 and -0.5 make 5,184 work legs against 3,456 at 1.0
# and 0.0
UNIT_SUM_SHARES = {("CityGate", "incoming_share"): (-0.5, 1.5),
                   ("WorkHours", "worker_share"): (1.5, -0.5)}


def _ends(interval: str) -> tuple:
    """(low, high, low closed, high closed) of an interval written like
    '[0, inf)'; an AssertionError when it is not written so."""
    m = re.fullmatch(r"([\[(])(-?inf|-?\d+), (-?inf|-?\d+)([\])])", interval)
    assert m, f"interval '{interval}' does not parse"
    return float(m[2]), float(m[3]), m[1] == "[", m[4] == "]"


def test_every_numeric_setting_declares_an_interval():
    for record, intervals in BOUNDED:
        hints = typing.get_type_hints(type(record))
        numeric = {
            f.name for f in dataclasses.fields(record)
            if hints[f.name] in (int, float, tuple[int, ...], tuple[float, ...])
        }
        declared = {f.name: f.metadata["in"] for f in dataclasses.fields(record)
                    if "in" in f.metadata}
        assert numeric - set(declared) <= set(UNBOUNDED), type(record)
        assert declared == intervals, type(record)
        for interval in declared.values():
            _ends(interval)


@pytest.mark.parametrize("record, name, interval", [
    pytest.param(record, name, interval, id=f"{type(record).__name__}.{name}")
    for record, intervals in BOUNDED for name, interval in intervals.items()
])
def test_bounded_fields_take_exactly_their_interval(record, name, interval):
    lo, hi, lo_closed, hi_closed = _ends(interval)
    error = DemandError if type(record).__module__ == "trafcal.demandgen" else ValueError
    value = getattr(record, name)
    # a tuple field is checked item by item: the last item is varied
    label = f"{name}[{len(value) - 1}]" if type(value) is tuple else name
    integral = type(value[-1] if type(value) is tuple else value) is int

    def replaced(x):
        return dataclasses.replace(
            record, **{name: (*value[:-1], x) if type(value) is tuple else x})

    # each end, in or out as its bracket says; past a finite end, the next
    # value outside it and the infinity on that side; NaN
    accepted, refused = [], [math.nan, *UNIT_SUM_SHARES.get((type(record).__name__, name), ())]
    for end, closed, outward in ((lo, lo_closed, -1), (hi, hi_closed, 1)):
        finite = math.isfinite(end)
        if finite and integral:
            end = int(end)
        (accepted if closed else refused).append(end)
        if finite:
            refused.append(end + outward if integral else math.nextafter(end, outward * math.inf))
            refused.append(outward * math.inf)
    for x in accepted:
        replaced(x)
    for x in refused:
        with pytest.raises(ValueError) as exc:
            replaced(x)
        assert type(exc.value) is error
        assert str(exc.value) == f"{label} must be in {interval}, got {x}"


def test_save_is_deterministic(tmp_path):
    net = fixtures.grid_network()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_network(net, p1)
    save_network(net, p2)
    assert p1.read_bytes() == p2.read_bytes()


# -- validation --------------------------------------------------------------


def test_grid_fixture_is_clean():
    assert validate_network(fixtures.grid_network()) == []


def test_edges_shorter_than_a_standing_car_are_reported():
    # the engine counts collisions on edges that cannot hold one car and
    # its gap; netmodel keeps its own copy of that length
    assert netmodel.MIN_EDGE_LENGTH == CAR.length + CAR.min_gap
    fine = fixtures.grid_network(n=4, spacing=3.0, lane_count=2)
    violations = validate_network(fine)
    assert {v.code for v in violations} == {"SHORT_EDGE"}
    assert sorted(v.subject_id for v in violations) == sorted(fine.edges)
    assert validate_network(fixtures.twin_scenario(7).net) == []


def test_structural_violations_are_reported():
    junctions = [
        Junction("a", 0.0, math.nan),
        Junction("b", 100.0, 0.0, kind="traffic_light"),
        Junction("c", 200.0, 0.0),
    ]
    edges = [
        Edge("ab", "a", "b", -5.0),
        Edge("bc", "b", "c", 100.0, lane_count=0),
        Edge("cb", "c", "b", 100.0, speed_limit=0.0),
        Edge("ba", "b", "a", 100.0),
    ]
    net = RoadNetwork(junctions, edges)
    codes = [v.code for v in validate_network(net)]
    for expected in (
        "NONFINITE_COORD", "NONPOSITIVE_LENGTH", "BAD_LANE_COUNT",
        "NONPOSITIVE_SPEED", "MISSING_TLS",
    ):
        assert expected in codes
    assert codes == sorted(codes)


def test_non_finite_edges_are_reported(tmp_path, capsys):
    # a network file can carry Infinity, which passes every `> 0` check
    grid = fixtures.grid_network()
    edges = [
        dataclasses.replace(e, length=math.inf) if e.id == "e00_01"
        else dataclasses.replace(e, speed_limit=math.inf) if e.id == "e01_00"
        else e
        for e in grid.edges.values()
    ]
    path = tmp_path / "net.json"
    save_network(RoadNetwork(grid.junctions.values(), edges, grid.tls_programs.values()), path)
    assert "Infinity" in path.read_text()
    net = load_network(path)
    assert [(v.code, v.subject_id, v.message) for v in validate_network(net)] == [
        ("NONFINITE_LENGTH", "e00_01", "edge length inf must be finite"),
        ("NONFINITE_SPEED", "e01_00", "speed_limit inf must be finite"),
    ]
    assert netmodel.engine_violations(net) == []
    assert cli.main(["net", "validate", "--network", str(path)]) == 1
    assert "2 violations" in capsys.readouterr().out


def test_tls_violations():
    junctions = [
        Junction("a", 0, 0, kind="dead_end"),
        Junction("b", 10, 0, kind="traffic_light"),
        Junction("c", 20, 0, kind="dead_end"),
    ]
    edges = [
        Edge("ab", "a", "b", 10.0), Edge("bc", "b", "c", 10.0),
        Edge("cb", "c", "b", 10.0), Edge("ba", "b", "a", 10.0),
    ]
    # arity 5 is wrong (2 connections), 'x' is not a state char,
    # and min > duration breaks the duration bounds
    prog = TlsProgram("b", "static", (TlsPhase(10.0, 20.0, 30.0, "Gxzzz"),))
    net = RoadNetwork(junctions, edges, [prog])
    codes = {v.code for v in validate_network(net)}
    assert {"PHASE_ARITY", "PHASE_STATE_CHARS", "PHASE_DURATION_BOUNDS"} <= codes

    empty = RoadNetwork(junctions, edges, [TlsProgram("b", "static", ())])
    assert "EMPTY_PROGRAM" in {v.code for v in validate_network(empty)}

    # phases that last no time are in bounds, yet the program cannot advance
    for logic in ("static", "actuated"):
        phases = (TlsPhase(0.0, 0.0, 0.0, "Gr"), TlsPhase(0.0, 0.0, 0.0, "rG"))
        stalled = RoadNetwork(junctions, edges, [TlsProgram("b", logic, phases)])
        assert [(v.code, v.subject_id, v.message) for v in validate_network(stalled)] == [
            ("NONPOSITIVE_PHASE_DURATION", "b", f"phase {k} duration 0.0 must be > 0")
            for k in (0, 1)
        ]


def test_engine_violations_are_the_engine_codes_in_order():
    # a program on a plain junction runs; a state character the engine
    # cannot read and a phase that lasts no time do not
    phases = (TlsPhase(5.0, 5.0, 5.0, "Gx"), TlsPhase(0.0, 0.0, 0.0, "GG"))
    net = tiny_net(tls_programs=[TlsProgram("b", "static", phases)])
    everything = validate_network(net)
    assert [v.code for v in everything] == [
        "NONPOSITIVE_PHASE_DURATION", "ORPHAN_TLS", "PHASE_STATE_CHARS",
    ]
    assert engine_violations(net) == [everything[0], everything[2]]
    assert engine_violations(fixtures.grid_network()) == []


def test_orphan_tls_flagged():
    net = tiny_net(tls_programs=[TlsProgram("b", "static", (TlsPhase(5, 5, 5, "GG"),))])
    codes = {v.code for v in validate_network(net)}
    assert "ORPHAN_TLS" in codes


def test_stop_position_violation():
    net = tiny_net(bus_stops=[BusStop("s", "ab", 500.0)])
    assert [v.code for v in validate_network(net)] == ["STOP_POSITION"]


def test_unreachable_edge_detected():
    junctions = [
        Junction("a", 0, 0, kind="dead_end"),
        Junction("b", 10, 0),
        Junction("x", 0, 10),
        Junction("y", 10, 10),
    ]
    edges = [
        Edge("ab", "a", "b", 10.0),
        Edge("ba", "b", "a", 10.0),
        # bus-only island: cannot be seeded by demand, not at a dead end
        Edge("xy", "x", "y", 10.0, bus_only=True),
    ]
    net = RoadNetwork(junctions, edges)
    assert [v.code for v in validate_network(net)] == ["UNREACHABLE"]


# -- routing -----------------------------------------------------------------


def test_left_sum_adds_in_order():
    # from Python 3.12 the builtin sum compensates float rounding and gives
    # 1.0 here, so a total taken with it would differ between versions
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum(iter([0.5, 0.25])) == 0.75
    assert left_sum([]) == 0


def test_shortest_path_includes_both_endpoints():
    net = tiny_net()
    route = CarRoutes(net).route("ab", "bc")
    assert route == ["ab", "bc"]
    assert route_cost(net, route) == pytest.approx(free_flow_time(net.edges["ab"]) * 2)


def test_no_path_gives_none():
    # both edges run a->b and b has no outgoing edge, so neither can ever
    # be reached from the other
    junctions = [Junction("a", 0, 0, kind="dead_end"), Junction("b", 1, 0, kind="dead_end")]
    edges = [Edge("ab", "a", "b", 1.0), Edge("xb", "a", "b", 1.0)]
    net = RoadNetwork(junctions, edges)
    routes = CarRoutes(net)
    assert routes.route("ab", "xb") is None and routes.cost("ab", "xb") is None


def test_negative_weight_rejected():
    net = tiny_net()
    with pytest.raises(ValueError, match="^negative weight -1.0 on edge 'ab'$"):
        CarRoutes(net, lambda e: -1.0).route("ab", "bc")


def test_infinite_weight_edges_are_impassable():
    junctions = [
        Junction("a", 0, 0, kind="dead_end"),
        Junction("b", 1, 0),
        Junction("c", 2, 0),
        Junction("d", 3, 0, kind="dead_end"),
    ]
    edges = [
        Edge("ab", "a", "b", 1.0),
        Edge("bc_slow", "b", "c", 1.0),
        Edge("bc_bus", "b", "c", 0.5, bus_only=True),
        Edge("cd", "c", "d", 1.0),
    ]
    net = RoadNetwork(junctions, edges)
    assert net.car_edges == ("ab", "bc_slow", "cd")
    # an edge the table leaves out is barred, as is an unknown source
    dist, _ = shortest_paths_from(net, "ab", {"ab": 1.0, "bc_slow": 1.0, "cd": 1.0})
    assert "bc_bus" not in dist and dist["cd"] == 3.0
    assert shortest_paths_from(net, "nope", {"ab": 1.0}) == ({}, {})
    # an infinite weight leaves a car edge out of the table
    slow = CarRoutes(net, lambda e: math.inf if e.id == "bc_slow" else e.length)
    assert slow.route("ab", "cd") is None
    assert CarRoutes(net, lambda e: e.length).route("ab", "cd") == ["ab", "bc_slow", "cd"]


def test_grid_corner_to_corner_route_is_connected():
    net = fixtures.grid_network()
    route = CarRoutes(net).route("e00_01", "e34_44")
    for a, b in zip(route, route[1:]):
        assert b in net.successors[a]
    # 200 m blocks at 13.89 m/s: straightest route costs 8 edges
    assert route_cost(net, route) == pytest.approx(8 * 200.0 / 13.89)


def test_car_routes_weigh_each_car_edge_once():
    # bus lanes are never weighed, a router that never searches weighs
    # nothing, and any number of searches weigh each car edge once
    junctions = [Junction("a", 0, 0, kind="dead_end"), Junction("b", 1, 0), Junction("c", 2, 0)]
    edges = [
        Edge("ab", "a", "b", 1.0), Edge("ba", "b", "a", 1.0),
        Edge("bc", "b", "c", 1.0), Edge("cb", "c", "b", 1.0, bus_only=True),
    ]
    net = RoadNetwork(junctions, edges)
    assert net.car_edges == ("ab", "ba", "bc")
    weighed = []

    def cost(edge):
        weighed.append(edge.id)
        return edge.length

    routes = CarRoutes(net, cost)
    assert weighed == []
    assert routes.route("ab", "bc") == ["ab", "bc"]
    assert routes.route("ba", "bc") == ["ba", "ab", "bc"]
    assert routes.cost("bc", "bc") == 1.0 and routes.route("cb", "ab") is None
    assert weighed == ["ab", "ba", "bc"]
    # a negative weight is refused at the first search, wherever it lies
    late = CarRoutes(net, lambda e: -2.0 if e.id == "ba" else e.length)
    with pytest.raises(ValueError, match="^negative weight -2.0 on edge 'ba'$"):
        late.route("bc", "bc")


# -- Bellman-Ford oracle -----------------------------------------------------


def weights(net, weight):
    """The cost table of `weight` over every edge of `net`."""
    return {eid: weight(edge) for eid, edge in net.edges.items()}


def bellman_ford(net, source, weight):
    w = weights(net, weight)
    dist = {source: w[source]}
    for _ in range(len(net.edges)):
        changed = False
        for eid, d in sorted(dist.items()):
            for succ in net.successors[eid]:
                nd = d + w[succ]
                if nd < dist.get(succ, math.inf):
                    dist[succ] = nd
                    changed = True
        if not changed:
            break
    return dist


def random_network(rng):
    n_j = rng.randint(2, 50)
    junctions = [
        Junction(f"j{i}", float(rng.randint(0, 1000)), float(rng.randint(0, 1000)))
        for i in range(n_j)
    ]
    n_e = rng.randint(1, 200)
    edges = []
    for i in range(n_e):
        a, b = rng.sample(range(n_j), 2)
        edges.append(
            Edge(f"e{i}", f"j{a}", f"j{b}", float(rng.randint(1, 500)), speed_limit=10.0)
        )
    return RoadNetwork(junctions, edges)


def test_dijkstra_matches_bellman_ford_on_random_graphs():
    rng = random.Random(20240915)
    weight = lambda e: e.length  # integer lengths keep float sums exact
    for _ in range(100):
        net = random_network(rng)
        source = rng.choice(sorted(net.edges))
        oracle = bellman_ford(net, source, weight)
        dist, pred = shortest_paths_from(net, source, weights(net, weight))
        assert dist == oracle
        # spot-check one reconstructed route end to end
        if len(dist) > 1:
            target = sorted(dist)[-1]
            route = CarRoutes(net, weight).route(source, target)
            assert route[0] == source and route[-1] == target
            assert route_cost(net, route, weight=weight) == dist[target]
            for a, b in zip(route, route[1:]):
                assert b in net.successors[a]


# -- cached car routes -------------------------------------------------------


def test_car_routes_match_shortest_path_with_bus_lanes_barred(monkeypatch):
    rng = random.Random(20261017)
    real = netmodel.shortest_paths_from
    sources_searched = []

    def counting(net, from_edge, cost):
        sources_searched.append(from_edge)
        return real(net, from_edge, cost)

    monkeypatch.setattr(netmodel, "shortest_paths_from", counting)
    cost = lambda e: e.length  # integer lengths keep float sums exact
    barred = lambda e: math.inf if e.bus_only else e.length
    unreachable_seen = 0
    for _ in range(50):
        base = random_network(rng)
        edges = [
            Edge(e.id, e.from_junction, e.to_junction, e.length,
                 speed_limit=e.speed_limit, bus_only=rng.random() < 0.2)
            for e in base.edges.values()
        ]
        net = RoadNetwork(base.junctions.values(), edges)
        routes = CarRoutes(net, cost)
        car_edges = sorted(e.id for e in edges if not e.bus_only)
        sources_searched.clear()
        sources = rng.sample(car_edges, min(3, len(car_edges)))
        for src in sources:
            oracle = bellman_ford(net, src, barred)
            for dst in rng.sample(sorted(net.edges), min(6, len(net.edges))):
                got = routes.route(src, dst)
                if dst not in oracle:
                    unreachable_seen += 1
                    assert got is None and routes.cost(src, dst) is None
                    continue
                assert got[0] == src and got[-1] == dst
                for a, b in zip(got, got[1:]):
                    assert b in net.successors[a]
                assert not any(net.edges[eid].bus_only for eid in got)
                assert routes.cost(src, dst) == route_cost(net, got, weight=cost) == oracle[dst]
        assert sorted(sources_searched) == sorted(sources)
    assert unreachable_seen > 0
