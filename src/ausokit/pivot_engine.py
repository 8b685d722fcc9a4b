"""The three history-based pivot rules as deterministic rule states.

Cunningham: ordered list of all 2n directions, round-robin scan from the
marker.  Johnson: per-direction last-step numbers, smallest wins, ties by a
fixed lexicographic order.  Zadeh: per-direction usage counts, least used
wins, ties by a fixed ordered list.

Each state chooses a move from the current vertex's outmap and keeps its
own bookkeeping; run_to_sink reads one outmap per visited vertex (one
query of the vertex-evaluation model per step), drives a state until the
global sink and records a Trace: its start, its end and one direction id
byte per move, plus one history snapshot per move when recorded (n <= 16).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cube_core import (
    MAX_DIMENSION,
    CubeError,
    Direction,
    OrientationOracle,
    apply_direction,
    direction_text,
    parse_direction,
    parse_vertex,
    vertex_text,
)

HISTORY_SNAPSHOT_MAX_DIM = 16
RULES = ("cunningham", "johnson", "zadeh")


class StepLimitExceeded(CubeError):
    """The run did not reach the sink in time; suspect a cycle or a bad
    frame transcription."""

    def __init__(self, limit: int, partial: "Trace"):
        super().__init__(f"no sink within {limit} steps")
        self.limit = limit
        self.partial = partial


class OracleInconsistencyError(CubeError):
    """The outmaps contradict each other on the path: both ends of the edge
    just crossed claim it, or a nonempty outmap offers the rule nothing."""


# A direction's integer id is 2 * (coord + 1) for +c and one more for -c, so
# a set bit of an outmap names it as bit_length() << 1 (| 1 where v has the
# bit).  Johnson and Zadeh keep one key list per state, key[id] = count *
# len(order) + tie rank.  An id outside the order holds _NEVER, which no key
# reaches (a count stays below the step limit 4 << MAX_DIMENSION and
# len(order) below 2^7), so it never wins.
_NEVER = 1 << 96


def _direction_id(d: Direction) -> int:
    return 2 * d.coord + (2 if d.positive else 3)


def _key_list(order: tuple[Direction, ...]) -> list[int]:
    """Count 0 and the tie rank for each direction of the order, _NEVER for
    every other id an outmap bit can name."""
    top = max([MAX_DIMENSION, *(d.coord + 1 for d in order)])
    key = [_NEVER] * (2 * top + 2)
    for rank, d in enumerate(order):
        key[_direction_id(d)] = rank
    return key


def _counts(key: list[int], order: tuple[Direction, ...]) -> dict[Direction, int]:
    """The counts of a key list as a Direction-keyed dict, in the order."""
    size = len(order)
    return {d: key[_direction_id(d)] // size for d in order}


def _least(v: int, out: int, key: list[int]) -> int:
    """The least key of an outgoing direction at v, read off the set bits of
    the outmap `out` alone: +c where v lacks c, then -c where v has it.
    _NEVER when every outgoing direction lies outside the order."""
    best = _NEVER
    up, down = out & ~v, out & v
    while up:
        k = key[(up & -up).bit_length() << 1]
        if k < best:
            best = k
        up &= up - 1
    while down:
        k = key[(down & -down).bit_length() << 1 | 1]
        if k < best:
            best = k
        down &= down - 1
    return best


@dataclass
class CunninghamState:
    """List L of all 2n directions and marker mu (1-based index of the last
    direction used; 2n initially so the first check is L[1])."""

    order: tuple[Direction, ...]
    marker: int = field(init=False)

    def __post_init__(self):
        self.marker = len(self.order)
        self._rank = {d: i for i, d in enumerate(self.order)}
        # Position i tests bit coord of the packed availability for +c and
        # bit 64 + coord for -c; the list is doubled so the scan never wraps.
        self._tests = [1 << d.coord + (0 if d.positive else 64)
                       for d in self.order] * 2

    def choose(self, v: int, out: int) -> Direction | None:
        """Scan L cyclically from the marker; the first outgoing direction."""
        available = (out & ~v) | (out & v) << 64
        tests, n2 = self._tests, len(self.order)
        for k in range(self.marker, self.marker + n2):
            if available & tests[k]:
                return self.order[k % n2]
        return None

    def record(self, v: int, d: Direction) -> None:
        """Bookkeeping of the move d from v: the marker points at d."""
        self.marker = self._rank[d] + 1

    def settle(self, v: int) -> None:
        """Bookkeeping at the sink: none."""


@dataclass
class JohnsonState:
    """Last-step numbers h, step counter t, and the tie order.

    The update phase at u with step number s sets h(d) := s for every d not
    outgoing-side at u (+c with c present, -c with c absent); any other d
    keeps stamp[d], the step whose move took d's opposite (0 before one).
    The state keeps the stamps, as the counts of its key list, and the
    latest update `updated` = (u, s).  arrival_update controls only the
    recorded snapshots: when True (the reporting convention) a step's
    snapshot is h as of an update at the arrival vertex with the same step
    number.  Those are exactly the unavailable directions there, so choices
    never depend on this flag.
    """

    tie_order: tuple[Direction, ...]
    key: list[int] = field(init=False, repr=False)
    updated: tuple[int, int] = field(init=False, default=(0, 0))
    step_counter: int = field(init=False, default=1)
    arrival_update: bool = True

    def __post_init__(self):
        self.key = _key_list(self.tie_order)

    @property
    def stamp(self) -> dict[Direction, int]:
        return _counts(self.key, self.tie_order)

    def table(self, u: int | None = None) -> dict[Direction, int]:
        """h after the latest update phase, or as if it had been at u."""
        v, s = self.updated
        u = v if u is None else u
        return {d: s if bool(u >> d.coord & 1) == d.positive else c
                for d, c in self.stamp.items()}

    @property
    def last_step(self) -> dict[Direction, int]:
        return self.table()

    def choose(self, v: int, out: int) -> Direction | None:
        """The outgoing direction with the smallest h, ties by the tie order.
        An outgoing direction's h is its stamp, which the update phase at v
        leaves alone, so stamping first, as the rule is stated, agrees."""
        k = _least(v, out, self.key)
        return None if k == _NEVER else self.tie_order[k % len(self.tie_order)]

    def record(self, v: int, d: Direction) -> None:
        """Bookkeeping of the move d from v: update h at v (the stamp of d's
        opposite is this step), then count the step."""
        opposite = _direction_id(d) ^ 1
        k = self.key[opposite]
        if k != _NEVER:
            size = len(self.tie_order)
            self.key[opposite] = self.step_counter * size + k % size
        self.updated = (v, self.step_counter)
        self.step_counter += 1

    def settle(self, v: int) -> None:
        """Bookkeeping at the sink: the update phase with the same step number."""
        self.updated = (v, self.step_counter)


@dataclass
class ZadehState:
    """Usage counts h, as the counts of the key list, the tie list T (all 2n
    directions, fixed order) and the top usage count."""

    tie_list: tuple[Direction, ...]
    key: list[int] = field(init=False, repr=False)
    top: int = field(init=False, default=0)

    def __post_init__(self):
        self.key = _key_list(self.tie_list)

    @property
    def usage(self) -> dict[Direction, int]:
        return _counts(self.key, self.tie_list)

    def choose(self, v: int, out: int) -> Direction | None:
        """The least-used outgoing direction; ties go by the tie list."""
        k = _least(v, out, self.key)
        return None if k == _NEVER else self.tie_list[k % len(self.tie_list)]

    def record(self, v: int, d: Direction) -> None:
        """Bookkeeping of the move d from v: one more use of d."""
        i = _direction_id(d)
        k = self.key[i]
        if k == _NEVER:
            raise CubeError(f"direction {d} is not in the tie list")
        size = len(self.tie_list)
        self.key[i] = k + size
        if k // size == self.top:
            self.top += 1

    def settle(self, v: int) -> None:
        """Bookkeeping at the sink: none."""


def balance_of(st: ZadehState, d: Direction) -> int:
    """Usage deficit of d against the most used direction."""
    return st.top - st.key[_direction_id(d)] // len(st.tie_list)


def is_saturated(oracle: OrientationOracle, v: int, st: ZadehState, mask: int) -> bool:
    """No imbalanced direction on a coordinate of `mask` is available at v;
    balance is measured against the most used direction overall.  Walks
    only the set bits of the outmap within the mask."""
    return _least(v, oracle.evaluate(v) & mask, st.key) >= st.top * len(st.tie_list)


# The Direction of each id below 128 (ids 0 and 1 name none).
_DIRECTIONS = tuple(Direction((i >> 1) - 1, not i & 1) for i in range(128))


@dataclass
class Trace:
    """A run: step t is moves[t - 1], taken where the earlier moves lead
    from the start; history, when recorded, the snapshot after each step."""

    rule: str
    dimension: int
    bundle_size: int
    start: int
    end: int
    moves: bytearray = field(default_factory=bytearray)
    history: list[dict] | None = None
    final_history: dict | None = None

    def __len__(self) -> int:
        return len(self.moves)

    def directions(self) -> list[Direction]:
        return [_DIRECTIONS[i] for i in self.moves]

    def walk(self):
        """(vertex, direction) before each move, then (last vertex, None)."""
        v = self.start
        for d in map(_DIRECTIONS.__getitem__, self.moves):
            yield v, d
            v = apply_direction(v, d)
        yield v, None

    def vertices(self) -> list[int]:
        """Start vertex followed by the vertex after each step."""
        return [v for v, _ in self.walk()]


def _snapshot(rule: str, st, bundle_size: int, arrival: int | None = None):
    """The history record; Johnson's h is read as of an update at `arrival`,
    the vertex just entered, when arrival_update is on."""
    if rule == "cunningham":
        return {"mu": st.marker}
    counts = st.usage if rule == "zadeh" else st.table(
        arrival if st.arrival_update else None)
    return {direction_text(d, bundle_size): c for d, c in counts.items()}


def run_to_sink(oracle: OrientationOracle, start: int, rule: str, state,
                step_limit: int | None = None, bundle_size: int = 4,
                record_history: bool | None = None, after_step=None) -> Trace:
    """Drive a rule state from `start` until the global sink.

    Each visited vertex's outmap is read once; the state chooses the move
    from it.  Arriving over an edge that the new vertex also lists as
    outgoing raises OracleInconsistencyError.  Per-step history snapshots
    are recorded when record_history is true (defaults to dimension <=
    HISTORY_SNAPSHOT_MAX_DIM).  after_step, when given, is called as
    after_step(direction, v_after) once per move, before v_after is
    evaluated; the recursive builders use it to drive the adversary.
    """
    if rule not in RULES:
        raise CubeError(f"unknown rule {rule!r}")
    n = oracle.dimension
    if step_limit is None:
        step_limit = 4 << n
    if step_limit <= 0:
        raise CubeError("step_limit must be positive")
    if record_history is None:
        record_history = n <= HISTORY_SNAPSHOT_MAX_DIM

    trace = Trace(rule, n, bundle_size, start, start,
                  history=[] if record_history else None)
    v = start
    crossed = 0  # bit of the edge the last move crossed into v
    while True:
        out = oracle.evaluate(v)
        if out & crossed:
            d = _DIRECTIONS[trace.moves[-1]]
            raise OracleInconsistencyError(
                f"both ends of the {direction_text(d, bundle_size)} edge into "
                f"{vertex_text(v, n)} claim it as outgoing")
        if out == 0:
            # Johnson's final update at the sink: the last displayed row of a run.
            state.settle(v)
            if record_history:
                trace.final_history = _snapshot(rule, state, bundle_size)
            trace.end = v
            return trace
        if len(trace) >= step_limit:
            raise StepLimitExceeded(step_limit, trace)
        d = state.choose(v, out)
        if d is None:
            raise OracleInconsistencyError(
                f"outmap of {vertex_text(v, n)} nonempty but no direction available")
        state.record(v, d)
        crossed = 1 << d.coord
        v_next = v ^ crossed  # d is outgoing at v, so the move is legal
        trace.moves.append(_direction_id(d))
        if record_history:
            trace.history.append(_snapshot(rule, state, bundle_size, v_next))
        if after_step is not None:
            after_step(d, v_next)
        v = v_next


def replay(trace: Trace, state):
    """Re-apply a trace's moves to a rule state with its own bookkeeping.

    Yields (vertex, direction) before each move, with the state holding
    every earlier move, and (sink, None) last.  Once the generator is
    exhausted the state is the one run_to_sink left at the sink.
    """
    for v, d in trace.walk():
        yield v, d
        if d is None:
            state.settle(v)
        else:
            state.record(v, d)


def write_trace_jsonl(trace: Trace, path) -> None:
    """One record per step plus a final record with the sink and length.
    Each line is json.dumps(record, sort_keys=True); a step's line is
    formatted directly, with each direction's text made once."""
    n, history = trace.dimension, trace.history
    texts = {_DIRECTIONS[i]: direction_text(_DIRECTIONS[i], trace.bundle_size)
             for i in set(trace.moves)}
    with open(path, "w", encoding="utf-8") as fh:
        for t, (v, d) in zip(range(1, len(trace) + 1), trace.walk()):
            h = ("" if history is None
                 else f' "h": {json.dumps(history[t - 1], sort_keys=True)},')
            fh.write(f'{{"dir": "{texts[d]}",{h} "t": {t}, '
                     f'"vertex": "{vertex_text(v, n)}"}}\n')
        final = {"sink": vertex_text(trace.end, n), "length": len(trace),
                 "rule": trace.rule, "start": vertex_text(trace.start, n)}
        if trace.final_history is not None:
            final["h"] = trace.final_history
        fh.write(json.dumps(final, sort_keys=True) + "\n")


def read_trace_jsonl(path, bundle_size: int) -> Trace:
    """The trace a write_trace_jsonl file holds, checked as it is read.

    The last line is the final record.  Step line t must carry "t": t, the
    vertex the earlier moves reach from the start and a move that is legal
    there, in the writer's text, with "h" exactly when the final record has
    it; the final record's length and sink must match the steps.  Any other
    content raises CubeError naming the line.
    """
    where = f"trace file {path}"
    with open(path, encoding="utf-8") as fh:
        try:
            last = 0
            for last, line in enumerate(fh, 1):
                pass
            if not last:
                raise CubeError("the file is empty")
            where = f"trace file {path} line {last}"
            final = json.loads(line)
            if "sink" not in final:
                raise CubeError("the last line is no final record")
            n = len(final["sink"])
            v = parse_vertex(final["start"])
            trace = Trace(final["rule"], n, bundle_size, v, v,
                          history=[] if "h" in final else None,
                          final_history=final.get("h"))
            ids = {}
            fh.seek(0)
            for t, line in zip(range(1, last), fh):
                where = f"trace file {path} line {t}"
                rec = json.loads(line)
                if rec["t"] != t:
                    raise CubeError(f'"t" is {rec["t"]!r}')
                if rec["vertex"] != vertex_text(v, n):
                    raise CubeError(f'"vertex" is {rec["vertex"]!r}, the moves '
                                    f"reach {vertex_text(v, n)}")
                i = ids.get(rec["dir"])
                if i is None:
                    d = parse_direction(rec["dir"], bundle_size)
                    if not 0 <= d.coord < n or direction_text(d, bundle_size) != rec["dir"]:
                        raise CubeError(f'"dir" {rec["dir"]!r} names no direction')
                    i = ids[rec["dir"]] = _direction_id(d)
                v = apply_direction(v, _DIRECTIONS[i])
                trace.moves.append(i)
                if ("h" in rec) != (trace.history is not None):
                    raise CubeError('"h" on some records only')
                if trace.history is not None:
                    trace.history.append(rec["h"])
            where = f"trace file {path} line {last}"
            if final["length"] != len(trace):
                raise CubeError(f'"length" is {final["length"]!r}, '
                                f"the file has {len(trace)} steps")
            if v != parse_vertex(final["sink"]):
                raise CubeError(f'"sink" is {final["sink"]!r}, the moves '
                                f"reach {vertex_text(v, n)}")
        except (CubeError, LookupError, TypeError, ValueError) as exc:
            raise CubeError(f"{where}: {exc}") from exc
    trace.end = v
    return trace
