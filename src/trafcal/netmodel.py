"""Road network data model: loading, validation, and shortest-path routing.

The network is a directed graph of edges (road segments) and junctions
(intersections or dead ends), carrying traffic-light programs and bus
stops. Networks are immutable after construction and safe for concurrent
read access. `validate_network` reports every structural violation as
data; `engine_violations` keeps those the simulator cannot run, which
`microsim.Simulation` refuses before it builds anything. Car routing goes
through `CarRoutes`: its first search weighs each of `RoadNetwork.car_edges`
once into a table, which `shortest_paths_from` searches, one cached tree per
source edge.
Every JSON file the program reads is one dataclass record, read by
`read_record`: it parses the document, refusing a repeated key and naming
the line and column of a syntax error, and decodes it with `record_from`.
That codec, and `record_to` its inverse, takes each record's fields, types
and defaults from its dataclass, and a field's JSON key from its metadata,
so no file format is checked by hand. A numeric field declares its range
there too, as a `bounded` field, which `check_bounds` checks.
Every JSON output goes through `write_json`, and every CSV table is written
by `write_csv` and read back through `csv_table` and `has_cells`, which own
the header, column count, blank-line and error-line rules of them all.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import heapq
import json
import math
import operator
import typing
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

TLS_STATE_CHARS = frozenset("Gry")
# the violations the engine cannot run, with the kind of their subject: a
# program it cannot cycle through (a static cycle of no length; an actuated
# program catching up over phases that last no time never returns), a state
# it cannot read (a turn past the end of a short state, or a character it
# takes for red), an edge without a lane or a positive length or speed (NaN
# included), and a bus stop off its edge, past which buses skip later stops
ENGINE_CODES = {
    **dict.fromkeys(("EMPTY_PROGRAM", "PHASE_ARITY", "PHASE_STATE_CHARS",
                     "NONPOSITIVE_PHASE_DURATION", "PHASE_DURATION_BOUNDS"), "junction"),
    **dict.fromkeys(("BAD_LANE_COUNT", "NONPOSITIVE_LENGTH", "NONPOSITIVE_SPEED"), "edge"),
    "STOP_POSITION": "bus stop",
}
# a car's length plus its standstill gap (`microsim.carfollow.CAR`): on a
# shorter edge the engine cannot keep vehicles apart and counts collisions
MIN_EDGE_LENGTH = 7.5


class NetworkFormatError(ValueError):
    """Raised when a network file does not parse under the schema."""


class DanglingReferenceError(NetworkFormatError):
    """Raised when a record references an id that does not exist."""

    def __init__(self, where: str, ref: str):
        super().__init__(f"{where}: reference to unknown id '{ref}'")
        self.ref = ref


@dataclass(frozen=True)
class Junction:
    id: str
    x: float
    y: float
    kind: typing.Literal["plain", "traffic_light", "dead_end"] = "plain"


@dataclass(frozen=True)
class Edge:
    """Directed road segment between two junctions."""

    id: str
    from_junction: str = dataclasses.field(metadata={"key": "from"})
    to_junction: str = dataclasses.field(metadata={"key": "to"})
    length: float
    lane_count: int = 1
    speed_limit: float = 13.89
    bus_only: bool = False


@dataclass(frozen=True)
class TlsPhase:
    duration: float
    # in a file, the bounds default to the duration
    min_duration: float = dataclasses.field(metadata={"defaults_to": "duration"})
    max_duration: float = dataclasses.field(metadata={"defaults_to": "duration"})
    state: str


@dataclass(frozen=True)
class TlsProgram:
    """Signal program for one junction; state strings index the junction's
    connection list (one character per controlled connection)."""

    junction_id: str
    logic: typing.Literal["static", "actuated"]
    phases: tuple[TlsPhase, ...]


@dataclass(frozen=True)
class BusStop:
    id: str
    edge_id: str
    position: float
    name: str = ""


@dataclass(frozen=True)
class Violation:
    code: str
    subject_id: str
    message: str


class RoadNetwork:
    """Cross-linked, read-only road network.

    Construction resolves all references and precomputes per-junction
    adjacency and the per-edge successor lists used by routing and the
    simulator. Edge-to-edge transitions follow the junction connection
    lists (U-turns are dropped whenever another movement exists).
    """

    def __init__(
        self,
        junctions: Iterable[Junction],
        edges: Iterable[Edge],
        tls_programs: Iterable[TlsProgram] = (),
        bus_stops: Iterable[BusStop] = (),
    ):
        self.junctions = _index_by_id(junctions, "junctions")
        self.edges = _index_by_id(edges, "edges")
        self.bus_stops = _index_by_id(bus_stops, "bus_stops")

        self.tls_programs: dict[str, TlsProgram] = {}
        for prog in tls_programs:
            if prog.junction_id in self.tls_programs:
                raise NetworkFormatError(
                    f"tls: duplicate program for junction '{prog.junction_id}'"
                )
            self.tls_programs[prog.junction_id] = prog

        for edge in self.edges.values():
            for jid in (edge.from_junction, edge.to_junction):
                if jid not in self.junctions:
                    raise DanglingReferenceError(f"edges['{edge.id}']", jid)
        for prog in self.tls_programs.values():
            if prog.junction_id not in self.junctions:
                raise DanglingReferenceError("tls", prog.junction_id)
        for stop in self.bus_stops.values():
            if stop.edge_id not in self.edges:
                raise DanglingReferenceError(f"bus_stops['{stop.id}']", stop.edge_id)

        out_edges: dict[str, list[str]] = {jid: [] for jid in self.junctions}
        in_edges: dict[str, list[str]] = {jid: [] for jid in self.junctions}
        for edge in self.edges.values():
            out_edges[edge.from_junction].append(edge.id)
            in_edges[edge.to_junction].append(edge.id)
        self.out_edges = {j: tuple(sorted(ids)) for j, ids in out_edges.items()}
        # the one statement of which edges a car may use
        self.car_edges = tuple(sorted(e.id for e in self.edges.values() if not e.bus_only))
        self.in_edges = {j: tuple(sorted(ids)) for j, ids in in_edges.items()}

        self._connections = {
            jid: self._build_connections(jid) for jid in self.junctions
        }
        successors: dict[str, list[str]] = {eid: [] for eid in self.edges}
        for conns in self._connections.values():
            for ein, eout in conns:
                successors[ein].append(eout)
        self.successors = {e: tuple(sorted(s)) for e, s in successors.items()}

    def _build_connections(self, junction_id: str) -> tuple[tuple[str, str], ...]:
        conns: list[tuple[str, str]] = []
        for ein_id in self.in_edges[junction_id]:
            ein = self.edges[ein_id]
            outs = self.out_edges[junction_id]
            non_uturn = [
                eid
                for eid in outs
                if not (
                    self.edges[eid].from_junction == ein.to_junction
                    and self.edges[eid].to_junction == ein.from_junction
                )
            ]
            # keep the U-turn only when it is the sole way onward
            chosen = non_uturn if non_uturn else list(outs)
            conns.extend((ein_id, eout_id) for eout_id in chosen)
        return tuple(sorted(conns))

    def connections(self, junction_id: str) -> tuple[tuple[str, str], ...]:
        """Ordered (in_edge, out_edge) movements controlled at a junction."""
        return self._connections[junction_id]


def _index_by_id(items: Iterable, where: str) -> dict:
    index: dict = {}
    for item in items:
        if item.id in index:
            raise NetworkFormatError(f"{where}: duplicate id '{item.id}'")
        index[item.id] = item
    return index


def free_flow_time(edge: Edge) -> float:
    return edge.length / edge.speed_limit


# ---------------------------------------------------------------------------
# Record codec: every JSON file is one frozen dataclass record.
# ---------------------------------------------------------------------------

# the classes of JSON value each scalar field type takes: a bool is no number
_JSON_CLASSES = {
    str: frozenset({str}),
    int: frozenset({int}),
    float: frozenset({int, float}),
    bool: frozenset({bool}),
}


def _wrong_type(where: Optional[str], key: str, error) -> Exception:
    return error(f"{where or 'top level'}: field '{key}' has wrong type")


def _decoder(tp) -> Callable:
    """`dec(value, where, key, error)` for one declared type: returns the
    value as stored in the record, raising `error` when it does not have
    the type. `where` names the record, None at a document's top level,
    and `key` the field with the index path below it, such as
    'departures[0]' or 'counts.d1[2]'."""
    if tp is typing.Any:
        return lambda value, where, key, error: value
    ok = _JSON_CLASSES.get(tp)
    if ok is not None:
        def scalar(value, where, key, error):
            if value.__class__ in ok:
                return tp(value)
            raise _wrong_type(where, key, error)
        return scalar
    if dataclasses.is_dataclass(tp):
        return lambda value, where, key, error: record_from(
            tp, value, f"{where}.{key}" if where else key, error
        )
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Literal:
        classes = {a.__class__ for a in args}

        def literal(value, where, key, error):
            if value.__class__ not in classes:
                raise _wrong_type(where, key, error)
            if value not in args:
                raise error(
                    f"{where or 'top level'}: field '{key}' must be one of {args}, got '{value}'"
                )
            return value
        return literal
    if origin is dict:
        decode = _decoder(args[1])

        def mapping(value, where, key, error):
            if value.__class__ is not dict:
                raise _wrong_type(where, key, error)
            return {k: decode(x, where, f"{key}.{k}", error) for k, x in value.items()}
        return mapping
    if origin is not tuple or len(args) != 2 or args[1] is not Ellipsis:
        raise TypeError(f"no JSON form for {tp!r}")
    decode = _decoder(args[0])
    # the items of a tuple of scalars, such as a route's edges, are checked
    # in one pass; the item loop then only names the first bad one
    scalars = _JSON_CLASSES.get(args[0])

    def sequence(value, where, key, error):
        if value.__class__ is not list:
            raise _wrong_type(where, key, error)
        if scalars is not None and {x.__class__ for x in value} <= scalars:
            return tuple(map(args[0], value))
        return tuple(decode(x, where, f"{key}[{i}]", error) for i, x in enumerate(value))
    return sequence


def _encoder(tp) -> Optional[Callable]:
    """The inverse of `_decoder` where one is needed: a record, or a tuple of
    records, becomes JSON objects; None where a value is written as it is
    (`json` writes a tuple as an array)."""
    if dataclasses.is_dataclass(tp):
        return record_to
    args = typing.get_args(tp)
    if args and dataclasses.is_dataclass(args[0]):
        return lambda value: [record_to(x) for x in value]
    return None


@functools.cache
def _schema(cls) -> tuple:
    """(JSON keys, per-field (name, key, required, defaults_to, decoder,
    encoder)) of a record class, derived once from its fields, their
    metadata and resolved type hints."""
    hints = typing.get_type_hints(cls)
    fields = tuple(
        (
            f.name,
            f.metadata.get("key", f.name),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
            f.metadata.get("defaults_to"),
            _decoder(hints[f.name]),
            _encoder(hints[f.name]),
        )
        for f in dataclasses.fields(cls)
    )
    return frozenset(key for _, key, _, _, _, _ in fields), fields


def bounded(interval: str, default=dataclasses.MISSING):
    """A dataclass field whose `in` metadata holds `interval`, such as
    '[0, 1]' or '(0, inf]': the range `check_bounds` holds its value, or
    each item of a tuple value, to."""
    _inside(interval)  # a malformed interval fails where it is declared
    return dataclasses.field(default=default, metadata={"in": interval})


@functools.cache
def _inside(interval: str) -> Callable:
    """Whether a number lies in `interval`, such as '[0, 1]' or '(0, inf]';
    written with comparisons only, so NaN lies in no interval."""
    lo, hi = map(float, interval[1:-1].split(","))
    above = {"[": operator.le, "(": operator.lt}[interval[0]]
    below = {"]": operator.le, ")": operator.lt}[interval[-1]]
    return lambda x: above(lo, x) and below(x, hi)


def check_bounds(record, error=ValueError) -> None:
    """Raise `error` for the first `bounded` field of `record`, in field
    order, whose value, or an item of whose tuple value, lies outside its
    interval; the message names the field, the interval and the value."""
    for f in dataclasses.fields(record):
        interval = f.metadata.get("in")
        if interval is None:
            continue
        value, inside = getattr(record, f.name), _inside(interval)
        if value.__class__ is tuple:
            for i, x in enumerate(value):
                if not inside(x):
                    raise error(f"{f.name}[{i}] must be in {interval}, got {x}")
        elif not inside(value):
            raise error(f"{f.name} must be in {interval}, got {value}")


def record_from(cls, rec, where: Optional[str] = None, error=NetworkFormatError):
    """Build a `cls` record from one JSON object.

    Field names, types and defaults are those of the dataclass; a field's
    `key` metadata is its JSON key, and a field with `defaults_to` metadata
    takes that earlier field's value when absent. A float field takes any
    JSON number, a tuple field an array, a dict field an object, a record
    field an object, a `Literal` field one of its values and an `Any` field
    anything. Unknown and missing fields are rejected, null is accepted
    only by `Any`, and a bool only by a bool field. Failures, range checks
    included, raise `error` naming the record by `where` or `top level`.
    """
    keys, fields = _schema(cls)
    label = where or "top level"
    if not isinstance(rec, dict):
        raise error(f"{label}: expected an object, got {type(rec).__name__}")
    for key in rec:
        if key not in keys:
            raise error(f"{label}: unknown field '{key}'")
    values = {}
    for name, key, required, defaults_to, decode, _ in fields:
        if key not in rec:
            if defaults_to:
                values[name] = values[defaults_to]
            elif required:
                raise error(f"{label}: missing field '{key}'")
            continue
        values[name] = decode(rec[key], where, key, error)
    try:
        return cls(**values)
    except ValueError as exc:  # a range check of the record
        raise error(f"{label}: {exc}") from exc


def record_to(obj) -> dict:
    """The JSON object of a record: the inverse of `record_from`."""
    _, fields = _schema(type(obj))
    out = {}
    for name, key, _, _, _, encode in fields:
        value = getattr(obj, name)
        out[key] = value if encode is None else encode(value)
    return out


def read_record(path, cls, error=NetworkFormatError):
    """The `cls` record that the JSON document at `path` holds, decoded by
    `record_from`. A syntax error, a key repeated in one object, or a
    document that does not decode is raised as `error` naming the file."""
    def refuse(message: str):
        return error(f"{path}: {message}")

    def unique_keys(pairs: list) -> dict:
        # `json` keeps the last of a repeated key, which would drop the
        # first value in silence
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            raise refuse(f"repeated key '{next(k for k in obj if keys.count(k) > 1)}'")
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=unique_keys)
        except json.JSONDecodeError as exc:
            raise refuse(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return record_from(cls, doc, error=refuse)


def write_json(doc, path) -> None:
    """Write `doc` as indented JSON ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


@contextlib.contextmanager
def csv_table(path, header: tuple, error):
    """The open `csv.reader` of the CSV table at `path`, past its header.

    The first line must be exactly `header`. A `ValueError` raised in the
    block, a bad row or cell, is raised as `error` naming the file and the
    physical line the reader stands on, which differs from the row count
    after a quoted cell that spans lines.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        first = next(rows, None)
        if first != list(header):
            raise error(f"{path}: bad header {first}")
        try:
            yield rows
        except ValueError as exc:
            raise error(f"{path}: line {rows.line_num}: {exc}") from exc


def has_cells(row: list, width: int) -> bool:
    """Whether a row of a `csv_table` holds data: False for a blank line,
    which every table skips, and a `ValueError` for any other row without
    one cell per header column."""
    if len(row) == width:
        return True
    if row:
        raise ValueError(f"expected {width} columns")
    return False


def read_csv(path, header: tuple, error, parse) -> list:
    """`parse(row)` of each data row of the `csv_table` at `path`; a
    `ValueError` from `parse` is raised as `error` naming the line."""
    with csv_table(path, header, error) as rows:
        return [parse(row) for row in rows if has_cells(row, len(header))]


def write_csv(path, header: tuple, rows) -> None:
    """Write the table `read_csv` reads: `header`, then each of `rows`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@functools.cache
def _array_file(key: str, cls) -> type:
    """The record of a file holding one array, `key`, of `cls` records."""
    return dataclasses.make_dataclass(
        "ArrayFile", [(key, tuple[cls, ...], dataclasses.field(default=()))]
    )


def read_records(path, key: str, cls, error=NetworkFormatError) -> list:
    """The `cls` records of a file holding one array, `key`, of them; an
    absent array is empty."""
    return list(getattr(read_record(path, _array_file(key, cls), error), key))


def write_records(records, path, key: str) -> None:
    """Write the file `read_records` reads."""
    write_json({key: [record_to(r) for r in records]}, path)


# ---------------------------------------------------------------------------
# Network file: one JSON document with one array per record kind.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkFile:
    """The records of a network file, before cross-linking."""

    junctions: tuple[Junction, ...] = ()
    edges: tuple[Edge, ...] = ()
    tls: tuple[TlsProgram, ...] = ()
    bus_stops: tuple[BusStop, ...] = ()

    def network(self) -> RoadNetwork:
        return RoadNetwork(self.junctions, self.edges, self.tls, self.bus_stops)


def network_to_dict(net: RoadNetwork) -> dict:
    return record_to(NetworkFile(
        tuple(net.junctions.values()),
        tuple(net.edges.values()),
        tuple(net.tls_programs.values()),
        tuple(net.bus_stops.values()),
    ))


def load_network(path) -> RoadNetwork:
    """Load and cross-link a network file, raising on schema violations."""
    return read_record(path, NetworkFile).network()


def save_network(net: RoadNetwork, path) -> None:
    write_json(network_to_dict(net), path)


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------


def validate_network(net: RoadNetwork) -> list[Violation]:
    """Check every structural invariant; violations are data, not failures.

    The result is deterministic and sorted by (code, subject_id). An empty
    list means the network is internally consistent and every edge not
    attached to a dead end can be reached from some demand-capable
    (non-bus-only) edge.
    """
    out: list[Violation] = []

    for j in net.junctions.values():
        if not (math.isfinite(j.x) and math.isfinite(j.y)):
            out.append(Violation("NONFINITE_COORD", j.id, "junction coordinates must be finite"))

    for e in net.edges.values():
        if not e.length > 0:
            out.append(Violation("NONPOSITIVE_LENGTH", e.id, f"edge length {e.length} must be > 0"))
        elif not math.isfinite(e.length):
            out.append(Violation("NONFINITE_LENGTH", e.id, f"edge length {e.length} must be finite"))
        elif e.length < MIN_EDGE_LENGTH:
            out.append(Violation("SHORT_EDGE", e.id, f"edge length {e.length} is below {MIN_EDGE_LENGTH}"))
        if e.lane_count < 1:
            out.append(Violation("BAD_LANE_COUNT", e.id, f"lane_count {e.lane_count} must be >= 1"))
        if not e.speed_limit > 0:
            out.append(Violation("NONPOSITIVE_SPEED", e.id, f"speed_limit {e.speed_limit} must be > 0"))
        elif not math.isfinite(e.speed_limit):
            out.append(Violation("NONFINITE_SPEED", e.id, f"speed_limit {e.speed_limit} must be finite"))

    for j in net.junctions.values():
        if j.kind == "traffic_light" and j.id not in net.tls_programs:
            out.append(Violation("MISSING_TLS", j.id, "traffic_light junction has no program"))
    for prog in net.tls_programs.values():
        junction = net.junctions[prog.junction_id]
        if junction.kind != "traffic_light":
            out.append(Violation("ORPHAN_TLS", prog.junction_id, "program on a junction that is not a traffic light"))
        n_conn = len(net.connections(prog.junction_id))
        if not prog.phases:
            out.append(Violation("EMPTY_PROGRAM", prog.junction_id, "program has no phases"))
        for k, ph in enumerate(prog.phases):
            if len(ph.state) != n_conn:
                out.append(
                    Violation(
                        "PHASE_ARITY",
                        prog.junction_id,
                        f"phase {k} state length {len(ph.state)} != connection count {n_conn}",
                    )
                )
            if not set(ph.state) <= TLS_STATE_CHARS:
                out.append(Violation("PHASE_STATE_CHARS", prog.junction_id, f"phase {k} state has characters outside G/r/y"))
            if not ph.duration > 0:
                out.append(
                    Violation(
                        "NONPOSITIVE_PHASE_DURATION",
                        prog.junction_id,
                        f"phase {k} duration {ph.duration} must be > 0",
                    )
                )
            if not (ph.min_duration <= ph.duration <= ph.max_duration):
                out.append(
                    Violation(
                        "PHASE_DURATION_BOUNDS",
                        prog.junction_id,
                        f"phase {k} durations must satisfy min <= duration <= max",
                    )
                )

    for stop in net.bus_stops.values():
        edge = net.edges[stop.edge_id]
        if not (0 <= stop.position <= edge.length):
            out.append(Violation("STOP_POSITION", stop.id, f"position {stop.position} outside edge '{edge.id}'"))

    out.extend(_reachability_violations(net))
    out.sort(key=lambda v: (v.code, v.subject_id))
    return out


def engine_violations(net: RoadNetwork) -> list[Violation]:
    """The violations of `validate_network` whose codes are in
    `ENGINE_CODES`, in its order: what the engine cannot run."""
    return [v for v in validate_network(net) if v.code in ENGINE_CODES]


def check_runnable(net: RoadNetwork, error=ValueError) -> None:
    """Raise `error` naming the junction, edge or bus stop of the first of
    `engine_violations`, with its message: what no stage drives or routes on."""
    refused = engine_violations(net)
    if refused:
        v = refused[0]
        raise error(f"{ENGINE_CODES[v.code]} '{v.subject_id}': {v.message}")


def _reachability_violations(net: RoadNetwork) -> list[Violation]:
    # BFS over edge successors from all demand-capable (car) edges.
    reached = set(net.car_edges)
    frontier = list(net.car_edges)
    while frontier:
        nxt = []
        for eid in frontier:
            for succ in net.successors[eid]:
                if succ not in reached:
                    reached.add(succ)
                    nxt.append(succ)
        frontier = nxt

    out = []
    for e in net.edges.values():
        if e.id in reached:
            continue
        touches_dead_end = (
            net.junctions[e.from_junction].kind == "dead_end"
            or net.junctions[e.to_junction].kind == "dead_end"
        )
        if not touches_dead_end:
            out.append(Violation("UNREACHABLE", e.id, "edge unreachable from any demand-capable edge"))
    return out


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

WeightFn = Callable[[Edge], float]


def shortest_paths_from(
    net: RoadNetwork, from_edge: str, cost: dict[str, float]
) -> tuple[dict[str, float], dict[str, str]]:
    """Costs and predecessor map of every edge reachable from from_edge
    over the edges `cost` weighs; an edge it leaves out is barred, and a
    barred or unknown source reaches nothing.

    A route's cost accumulates the weight of every edge on it, both ends
    included. Ties resolve deterministically by edge id ordering.
    """
    dist: dict[str, float] = {}
    pred: dict[str, str] = {}
    if from_edge not in cost:
        return dist, pred
    successors = net.successors
    seen = {from_edge: cost[from_edge]}
    heap: list[tuple[float, str]] = [(cost[from_edge], from_edge)]
    while heap:
        d, eid = heapq.heappop(heap)
        if eid in dist:
            continue
        dist[eid] = d
        for succ in successors[eid]:
            if succ in dist or succ not in cost:
                continue
            nd = d + cost[succ]
            if succ not in seen or nd < seen[succ]:
                seen[succ] = nd
                pred[succ] = eid
                heapq.heappush(heap, (nd, succ))
    return dist, pred


class CarRoutes:
    """Car routes under one edge cost over `RoadNetwork.car_edges`, each
    weighed once at the first search. One search runs per distinct source
    edge and keeps its tree, so any number of destinations from that source
    cost no more."""

    def __init__(self, net: RoadNetwork, cost: WeightFn = free_flow_time):
        self._net = net
        self._cost = cost
        self._trees: dict[str, tuple[dict[str, float], dict[str, str]]] = {}

    @functools.cached_property
    def _table(self) -> dict[str, float]:
        """The cost of each car edge; a negative one is refused and an
        infinite one left out, which bars the edge."""
        table = {}
        for eid in self._net.car_edges:
            w = self._cost(self._net.edges[eid])
            if w < 0:
                raise ValueError(f"negative weight {w} on edge '{eid}'")
            if w != math.inf:
                table[eid] = w
        return table

    def _tree(self, src: str) -> tuple[dict[str, float], dict[str, str]]:
        tree = self._trees.get(src)
        if tree is None:
            tree = self._trees[src] = shortest_paths_from(self._net, src, self._table)
        return tree

    def route(self, src: str, dst: str) -> Optional[list[str]]:
        """Cheapest edge sequence from src to dst, None when unreachable."""
        dist, pred = self._tree(src)
        if dst not in dist:
            return None
        route = [dst]
        while route[-1] != src:
            route.append(pred[route[-1]])
        route.reverse()
        return route

    def cost(self, src: str, dst: str) -> Optional[float]:
        """Cost of that route, None when unreachable."""
        return self._tree(src)[0].get(dst)


def route_cost(net: RoadNetwork, route: Iterable[str], weight: WeightFn = free_flow_time) -> float:
    return left_sum(weight(net.edges[eid]) for eid in route)


def left_sum(values: Iterable[float]) -> float:
    """Add `values` left to right, as the builtin `sum` does up to Python
    3.11; from 3.12 `sum` compensates float rounding, so its last bits, and
    outputs derived from them, would depend on the Python version."""
    total = 0
    for x in values:
        total += x
    return total
