"""Demand generation: apportionment helpers, sampling invariants, files."""

import math
import random

import pytest

from trafcal import demandgen, netmodel
from trafcal.demandgen import (
    ADULT_AGE,
    ADULT_BRACKET_START,
    AGE_BRACKETS,
    CityGate,
    DemandConfig,
    DemandError,
    DistrictStats,
    School,
    Statistics,
    WorkHours,
    cumulative_counts,
    expand_routes,
    generate_trips,
    largest_remainder,
    load_statistics,
    read_trips,
    save_statistics,
    validate_inputs,
    write_trips,
)
from trafcal.microsim import RoutePlan, SimConfig, Simulation
from trafcal.netmodel import Edge, Junction, RoadNetwork

import scenarios

H = 3600.0


def brackets(**counts):
    """Bracket tuple from lower-bound keys, e.g. b30=16 puts 16 in (30, 39)."""
    out = [0] * len(AGE_BRACKETS)
    for key, n in counts.items():
        lo = int(key[1:])
        out[[b[0] for b in AGE_BRACKETS].index(lo)] = n
    return tuple(out)


def district(id, edges, workers=0, positions=0, inhabitants=0, age=None):
    return DistrictStats(
        id=id,
        edge_ids=tuple(edges),
        inhabitants=inhabitants,
        workers=workers,
        work_positions=positions,
        age_brackets=age if age is not None else brackets(b30=inhabitants),
    )


def chain_net(n=4, two_way=False):
    junctions = [
        Junction(f"a{i}", 100.0 * i, 0.0, kind="dead_end" if i in (0, n) else "plain")
        for i in range(n + 1)
    ]
    edges = [Edge(f"e{i}", f"a{i}", f"a{i+1}", 100.0) for i in range(n)]
    if two_way:
        edges += [Edge(f"r{i}", f"a{i+1}", f"a{i}", 100.0) for i in range(n)]
    return RoadNetwork(junctions, edges)


def config(**kw):
    kw.setdefault("car_rate", 1.0)
    kw.setdefault("car_preference_rate", 0.5)
    kw.setdefault("incoming_total", 0)
    kw.setdefault("outgoing_total", 0)
    kw.setdefault("work_hours", (WorkHours(8 * H, 17 * H, 1.0),))
    return DemandConfig(**kw)


# -- apportionment helpers ---------------------------------------------------


def test_cumulative_counts_frozen():
    assert cumulative_counts([1.4, 1.4, 1.4]) == [1, 2, 1]
    assert cumulative_counts([0.5, 0.5, 0.5, 0.5]) == [1, 0, 1, 0]
    assert cumulative_counts([]) == []
    assert cumulative_counts([0.0, 3.0]) == [0, 3]


def test_cumulative_counts_tracks_running_sum():
    rng = random.Random(11)
    for _ in range(200):
        values = [rng.uniform(0.0, 7.0) for _ in range(rng.randint(1, 40))]
        out = cumulative_counts(values)
        acc_v = 0.0
        acc_n = 0
        for v, n in zip(values, out):
            assert n >= 0
            acc_v += v
            acc_n += n
            assert abs(acc_n - acc_v) <= 0.5 + 1e-9


def test_largest_remainder_frozen():
    assert largest_remainder(10, [0.5, 0.3, 0.2]) == [5, 3, 2]
    assert largest_remainder(7, [1 / 3, 1 / 3, 1 / 3]) == [3, 2, 2]
    assert largest_remainder(1, [0.2, 0.2, 0.6]) == [0, 0, 1]
    assert largest_remainder(0, [1.0]) == [0]


def test_largest_remainder_properties():
    rng = random.Random(12)
    for _ in range(200):
        k = rng.randint(1, 8)
        raw = [rng.random() for _ in range(k)]
        shares = [x / sum(raw) for x in raw]
        total = rng.randint(0, 500)
        out = largest_remainder(total, shares)
        assert sum(out) == total
        for n, s in zip(out, shares):
            assert abs(n - total * s) < 1.0 + 1e-9


# -- input validation --------------------------------------------------------


def test_validate_catches_bad_inputs():
    net = chain_net()
    ok = [district("a", ["e0"], workers=1, positions=1, inhabitants=1)]
    validate_inputs(Statistics(districts=ok, config=config()), net)

    with pytest.raises(DemandError):
        validate_inputs(Statistics(districts=[], config=config()), net)
    bad_sum = [district("a", ["e0"], inhabitants=5, age=brackets(b30=3))]
    with pytest.raises(DemandError):
        validate_inputs(Statistics(districts=bad_sum, config=config()), net)
    with pytest.raises(DemandError):
        validate_inputs(
            Statistics(districts=[district("a", ["nope"], inhabitants=1)], config=config()), net
        )
    with pytest.raises(DemandError):
        validate_inputs(Statistics(districts=ok, config=config(incoming_total=5)), net)  # no gates
    half = CityGate("g", "e0", "e3", 0.5, 1.0)
    with pytest.raises(DemandError):
        validate_inputs(Statistics(districts=ok, gates=[half], config=config()), net)  # shares not 1
    upside_down = School("s", "e1", 9, 6, 10, 8 * H, 16 * H)
    with pytest.raises(DemandError):
        validate_inputs(Statistics(districts=ok, schools=[upside_down], config=config()), net)
    with pytest.raises(DemandError):
        shift = WorkHours(8 * H, 17 * H, 0.7)
        validate_inputs(Statistics(districts=ok, config=config(work_hours=(shift,))), net)
    # a single field's range is checked when its record is built: see
    # test_netmodel's table of bounded fields
    # the rule of a school holds for a shift: one that opened at NaN wrote
    # NaN departures, one that closed first sent workers home before they left
    for opening_h, closing_h in ((math.nan, 17 * H), (8 * H, math.nan), (17 * H, 17 * H),
                                 (17 * H, 8 * H)):
        shifts = (WorkHours(8 * H, 17 * H, 0.5), WorkHours(opening_h, closing_h, 0.5))
        with pytest.raises(DemandError, match=r"work_hours\[1\]: opening_h must precede"):
            config(work_hours=shifts)


def test_hours_lie_within_the_day():
    # hours are seconds of the day: a shift at 30-40 h used to pass, and
    # generate_trips moved nearly every one of its legs to the last second
    net = chain_net()
    ok = [district("a", ["e0"], workers=1, positions=1, inhabitants=1)]
    for opening_h, closing_h, key, value in (
        (30 * H, 40 * H, "opening_h", "108000.0"), (8 * H, 25 * H, "closing_h", "90000.0"),
        (-H, 8 * H, "opening_h", "-3600.0"), (-math.inf, 8 * H, "opening_h", "-inf"),
    ):
        message = rf"{key} {value} outside \[0, 86400\] seconds of the day"
        shifts = (WorkHours(8 * H, 17 * H, 0.5), WorkHours(opening_h, closing_h, 0.5))
        with pytest.raises(DemandError, match=rf"work_hours\[1\]: {message}"):
            config(work_hours=shifts)
        school = School("s", "e1", 6, 9, 10, opening_h, closing_h)
        with pytest.raises(DemandError, match=f"school 's': {message}"):
            validate_inputs(Statistics(districts=ok, schools=[school], config=config()), net)
    # the whole day, both ends included, is in
    config(work_hours=(WorkHours(0.0, 24 * H, 1.0),))
    school = School("s", "e1", 6, 9, 10, 0.0, 24 * H)
    validate_inputs(Statistics(districts=ok, schools=[school], config=config()), net)


def test_age_rules_share_one_adult_age():
    assert AGE_BRACKETS[ADULT_BRACKET_START][0] == ADULT_AGE
    assert AGE_BRACKETS[ADULT_BRACKET_START - 1][1] < ADULT_AGE
    assert School("u", "e0", ADULT_AGE, 120, 1, 8 * H, 9 * H).is_university
    assert not School("s", "e0", ADULT_AGE - 1, 120, 1, 8 * H, 9 * H).is_university


# -- generation invariants ---------------------------------------------------


def small_scenario():
    net = chain_net()
    stats = [
        district("res", ["e0"], workers=10, inhabitants=20, age=brackets(b30=20)),
        district("jobs", ["e2", "e3"], positions=50),
    ]
    gates = [CityGate("g", "e0", "e3", 1.0, 1.0)]
    cfg = config(incoming_total=4, outgoing_total=3)
    return net, stats, gates, cfg


def by_purpose(table):
    out = {}
    for t in table:
        out.setdefault(t.purpose, []).append(t)
    return out


def test_trip_counts_follow_rates():
    net, stats, gates, cfg = small_scenario()
    table = generate_trips(Statistics(districts=stats, gates=gates, config=cfg), net)
    groups = by_purpose(table)
    # 10 workers * car_rate 1.0 * preference 0.5 -> 5 drivers, 2 legs each
    assert len(groups["work"]) == 10
    # round(4 * 0.5) incoming, round(3 * 0.5) outgoing
    assert len(groups["incoming"]) == 2
    assert len(groups["outgoing"]) == 2
    # 20 adults - 10 workers idle, rate 0.1 -> 1 person, 2 legs
    assert len(groups["free_time"]) == 2
    assert len(table) == 16


def test_trip_table_well_formed():
    net, stats, gates, cfg = small_scenario()
    table = generate_trips(Statistics(districts=stats, gates=gates, config=cfg), net)
    ids = [t.id for t in table]
    assert len(set(ids)) == len(ids)
    for t in table:
        assert 0.0 <= t.depart < 86400.0
        assert t.purpose in demandgen.TRIP_PURPOSES
        assert t.from_edge in net.edges and t.to_edge in net.edges


def test_work_legs_anchor_to_shift():
    net, stats, gates, cfg = small_scenario()
    table = generate_trips(Statistics(districts=stats, gates=gates, config=cfg), net)
    groups = by_purpose(table)
    outbound = [t for t in groups["work"] if t.from_edge == "e0"]
    returns = [t for t in groups["work"] if t.to_edge == "e0"]
    assert len(outbound) == 5 and len(returns) == 5
    for t in outbound:
        assert t.depart <= 8 * H  # early enough to arrive by opening
        assert t.to_edge in ("e2", "e3")
    for t in returns:
        assert t.depart == 17 * H  # return exactly at closing


def test_gate_flows_use_gate_edges():
    net, stats, gates, cfg = small_scenario()
    table = generate_trips(Statistics(districts=stats, gates=gates, config=cfg), net)
    groups = by_purpose(table)
    assert all(t.from_edge == "e0" for t in groups["incoming"])
    assert all(t.to_edge == "e3" for t in groups["outgoing"])


def test_free_time_window_and_return():
    net = chain_net()
    stats = [district("res", ["e0"], inhabitants=40, age=brackets(b30=40))]
    cfg = config(free_time_rate=0.25)  # 40 idle adults -> 10 errands
    table = generate_trips(Statistics(districts=stats, config=cfg), net)
    groups = by_purpose(table)
    assert len(groups["free_time"]) == 20
    outs = sorted(t.depart for t in groups["free_time"] if t.from_edge == "e0")
    backs = sorted(t.depart for t in groups["free_time"] if t.to_edge == "e0")
    for dep in outs:
        assert 10 * H <= dep <= 14 * H
    for out_dep, back_dep in zip(outs, backs):
        assert back_dep >= out_dep + 1800.0 - 1e-9


def test_school_chains_capacity_bounded():
    net = chain_net()
    stats = [
        district(
            "res", ["e0"], workers=10, inhabitants=20,
            age=brackets(b6=4, b30=16),
        ),
        district("jobs", ["e3"], positions=50),
    ]
    school = School("s", "e1", 6, 9, 3, 8 * H, 16 * H)
    table = generate_trips(Statistics(districts=stats, schools=[school], config=config()), net)
    groups = by_purpose(table)
    # 3 enrolled of 4 children (capacity), times drive_p 0.5 -> 2 chains
    assert len(groups["school_dropoff"]) == 2
    for t in groups["school_dropoff"]:
        assert t.to_edge == "e1"
        assert t.depart <= 8 * H
    # chained second legs depart exactly at school opening
    second = [t for t in groups["work"] if t.from_edge == "e1"]
    assert len(second) == 2
    assert all(t.depart == 8 * H for t in second)
    # two legs per driver plus one extra per chain
    assert len(groups["work"]) == 10


def test_university_students_commute():
    net = chain_net()
    stats = [
        district("res", ["e0"], inhabitants=5, age=brackets(b18=5)),
    ]
    uni = School("u", "e2", 18, 120, 10, 9 * H, 18 * H)
    table = generate_trips(Statistics(districts=stats, schools=[uni], config=config()), net)
    groups = by_purpose(table)
    # 5 enrolled, drive_p 0.5 -> 3 students, out and back
    assert len(groups["university"]) == 6
    outs = [t for t in groups["university"] if t.to_edge == "e2"]
    backs = [t for t in groups["university"] if t.from_edge == "e2"]
    assert len(outs) == 3 and len(backs) == 3
    assert all(t.depart == 18 * H for t in backs)


def test_generation_deterministic():
    net, stats, gates, cfg = small_scenario()
    a = generate_trips(Statistics(districts=stats, gates=gates, config=cfg), net)
    b = generate_trips(Statistics(districts=stats, gates=gates, config=cfg), net)
    assert a == b
    other_seed = config(incoming_total=4, outgoing_total=3, seed=1)
    c = generate_trips(Statistics(districts=stats, gates=gates, config=other_seed), net)
    assert a != c


# -- route expansion ---------------------------------------------------------


def test_expand_routes_connected_paths():
    net = chain_net(two_way=True)
    stats = [
        district("res", ["e0"], workers=10, inhabitants=20, age=brackets(b30=20)),
        district("jobs", ["e2", "e3"], positions=50),
    ]
    gates = [CityGate("g", "e0", "e3", 1.0, 1.0)]
    cfg = config(incoming_total=4, outgoing_total=3)
    table = generate_trips(Statistics(districts=stats, gates=gates, config=cfg), net)
    res = expand_routes(table, net)
    assert not res.no_path
    assert len(res.routes) == len(table)
    for plan in res.routes:
        for a, b in zip(plan.edges, plan.edges[1:]):
            assert b in net.successors[a]


def test_expand_routes_flags_unroutable():
    net = chain_net()
    table = [
        demandgen.Trip("ok", 0.0, "e0", "e3", "work"),
        demandgen.Trip("self", 0.0, "e1", "e1", "work"),
        demandgen.Trip("back", 0.0, "e3", "e0", "work"),  # one-way chain
        demandgen.Trip("ghost", 0.0, "e0", "zz", "work"),
    ]
    res = expand_routes(table, net)
    assert [p.trip_id for p in res.routes] == ["ok", "self"]
    assert res.no_path == ["back", "ghost"]
    assert res.routes[1].edges == ("e1",)


def test_expand_routes_leaves_out_a_trip_on_a_bus_lane():
    # a car may not use a bus-only edge, even for a trip that starts and
    # ends on it
    base = chain_net()
    edges = [Edge(e.id, e.from_junction, e.to_junction, e.length, bus_only=e.id == "e1")
             for e in base.edges.values()]
    net = RoadNetwork(base.junctions.values(), edges)
    table = [
        demandgen.Trip("bus_lane", 0.0, "e1", "e1", "work"),
        demandgen.Trip("across", 0.0, "e0", "e2", "work"),
        demandgen.Trip("self", 0.0, "e2", "e2", "work"),
    ]
    res = expand_routes(table, net)
    assert [(p.trip_id, p.edges) for p in res.routes] == [("self", ("e2",))]
    assert res.no_path == ["bus_lane", "across"]


@pytest.mark.parametrize("fault", scenarios.CHAIN_FAULTS)
def test_routing_refuses_what_the_engine_refuses(fault):
    # routing over a zero speed divided by zero, a negative length was a
    # negative weight, and a NaN length or no lane gave a route no run drives
    net, _ = scenarios.chain_with_fault(fault)
    with pytest.raises(ValueError) as engine:
        Simulation(net, [RoutePlan("v0", ("e0", "e1", "e2"), 0.0)], SimConfig())
    with pytest.raises(ValueError) as routing:
        expand_routes([demandgen.Trip("t0", 0.0, "e0", "e2", "work")], net)
    assert str(routing.value) == str(engine.value)
    ok = [district("a", ["e0"], workers=1, positions=1, inhabitants=1)]
    with pytest.raises(DemandError) as demand:
        validate_inputs(Statistics(districts=ok, config=config()), net)
    assert str(demand.value) == str(engine.value)


# -- files -------------------------------------------------------------------


def test_trip_file_round_trip(tmp_path):
    net, stats, gates, cfg = small_scenario()
    table = generate_trips(Statistics(districts=stats, gates=gates, config=cfg), net)
    path = tmp_path / "trips.json"
    write_trips(table, path)
    back = read_trips(path)
    assert sorted(back, key=lambda t: t.id) == sorted(
        table, key=lambda t: t.id
    )


def test_trip_file_validation(tmp_path):
    import json

    path = tmp_path / "trips.json"

    def dump(rows):
        path.write_text(json.dumps({"trips": rows}))

    row = {"id": "a", "depart": 10.0, "from_edge": "x", "to_edge": "y", "purpose": "work"}
    dump([row])
    assert len(read_trips(path)) == 1
    dump([row, row])
    with pytest.raises(DemandError):
        read_trips(path)  # duplicate id
    dump([dict(row, purpose="joyride")])
    with pytest.raises(DemandError):
        read_trips(path)
    dump([dict(row, depart=90000.0)])
    with pytest.raises(DemandError):
        read_trips(path)
    dump([dict(row, extra=1)])
    with pytest.raises(DemandError):
        read_trips(path)


def test_statistics_round_trip(tmp_path):
    net, stats, gates, cfg = small_scenario()
    school = School("s", "e1", 6, 9, 3, 8 * H, 16 * H)
    path = tmp_path / "stats.json"
    statistics = Statistics(
        districts=tuple(stats), gates=tuple(gates), schools=(school,), config=cfg
    )
    save_statistics(statistics, path)
    assert load_statistics(path) == statistics
    again = tmp_path / "stats2.json"
    save_statistics(load_statistics(path), again)
    assert path.read_bytes() == again.read_bytes()


def test_unread_district_counts_are_refused(tmp_path):
    # generation never read households, unemployed or vehicles, so a file
    # that still carries them is refused like any other unknown field
    _, stats, _, cfg = small_scenario()
    path = tmp_path / "stats.json"
    for key in ("households", "unemployed", "vehicles"):
        doc = netmodel.record_to(Statistics(districts=tuple(stats), config=cfg))
        doc["districts"][0][key] = 0
        netmodel.write_json(doc, path)
        with pytest.raises(DemandError, match=rf"districts\[0\]: unknown field '{key}'$"):
            load_statistics(path)
