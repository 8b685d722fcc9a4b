"""The three history-based pivot rules as deterministic rule states.

Cunningham: ordered list of all 2n directions, round-robin scan from the
marker.  Johnson: per-direction last-step numbers, smallest wins, ties by a
fixed lexicographic order.  Zadeh: per-direction usage counts, least used
wins, ties by a fixed ordered list.

Each state chooses a move from the current vertex's outmap and keeps its
own bookkeeping; run_to_sink reads one outmap per visited vertex (one
query of the vertex-evaluation model per step), drives a state until the
global sink and records a Trace: its start, its end and one direction bit
byte per move, plus one history snapshot per move when recorded (n <= 16).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import ClassVar

from .cube_core import (
    MAX_DIMENSION,
    CubeError,
    IllegalMoveError,
    OrientationOracle,
    direction_text,
    parse_direction,
    parse_vertex,
    vertex_text,
)

HISTORY_SNAPSHOT_MAX_DIM = 16


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


# The states speak each direction as its move bit (c for +c, 64 + c for
# -c), their order included: choose(v, out) returns the bit of its pick or
# None, record(v, b) takes one, and the dict views are keyed by bit.  A
# table that a walk over set bits indexes with low.bit_length() holds bit b
# at b + 1.  Johnson's key[b + 1] is stamp * len(order) + tie rank, and
# _NEVER for a bit outside the order: no key reaches it (a stamp stays
# below the step limit 4 << MAX_DIMENSION and len(order) below 2^7).
_NEVER = 1 << 96


@dataclass
class CunninghamState:
    """List L of all 2n directions and marker mu (1-based index of the last
    direction used; 2n initially so the first check is L[1])."""

    rule: ClassVar[str] = "cunningham"
    order: bytes
    marker: int = field(init=False)

    def __post_init__(self):
        self.marker = len(self.order)
        # _rank[b] is bit b's position in L (-1 outside L).  The test masks
        # hold L's bits in order, doubled so the scan never wraps.
        self._rank = [-1] * 128
        for i, b in enumerate(self.order):
            self._rank[b] = i
        self._tests = [1 << b for b in self.order] * 2

    def choose(self, v: int, out: int) -> int | None:
        """Scan L cyclically from the marker; the first outgoing direction."""
        available = (out & ~v) | (out & v) << 64
        tests = self._tests
        for k in range(self.marker, self.marker + len(self.order)):
            if available & tests[k]:
                return tests[k].bit_length() - 1
        return None

    def record(self, v: int, b: int) -> None:
        """Bookkeeping of the move b from v: the marker points at it."""
        rank = self._rank[b]
        if rank < 0:
            raise CubeError(f"direction {direction_text(b, 64)} is not in the order")
        self.marker = rank + 1

    def settle(self, v: int) -> None:
        """Bookkeeping at the sink: none."""

    def snapshot(self, bundle_size: int, arrival: int | None = None) -> dict:
        """The history record: the marker."""
        return {"mu": self.marker}


@dataclass
class JohnsonState:
    """Last-step numbers h, step counter t, and the tie order.

    The update phase at u with step number s sets h(d) := s for every d not
    outgoing-side at u (+c with c present, -c with c absent); any other d
    keeps stamp[d], the step whose move took d's opposite (0 before one).
    The state keeps the stamps, as the counts of its key list, and the
    latest update `updated` = (u, s).  A step's recorded snapshot is h as
    of an update at the arrival vertex with the same step number (the
    reporting convention); the directions it stamps are exactly the
    unavailable ones there, so no choice reads it.
    """

    rule: ClassVar[str] = "johnson"
    tie_order: bytes
    key: list[int] = field(init=False, repr=False)
    updated: tuple[int, int] = field(init=False, default=(0, 0))
    step_counter: int = field(init=False, default=1)

    def __post_init__(self):
        # Stamp 0 and the tie rank for each direction of the order, _NEVER
        # for every other bit.
        self.key = [_NEVER] * 129
        for rank, b in enumerate(self.tie_order):
            self.key[b + 1] = rank

    @property
    def stamp(self) -> dict[int, int]:
        size = len(self.tie_order)
        return {b: self.key[b + 1] // size for b in self.tie_order}

    def table(self, u: int | None = None) -> dict[int, int]:
        """h after the latest update phase, or as if it had been at u: s
        where the move is not legal at u."""
        v, s = self.updated
        u = v if u is None else u
        return {b: s if u >> (b & 63) & 1 != b >> 6 else c for b, c in self.stamp.items()}

    def choose(self, v: int, out: int) -> int | None:
        """The outgoing direction with the smallest h, ties by the tie order.
        An outgoing direction's h is its stamp, which the update phase at v
        leaves alone, so stamping first, as the rule is stated, agrees.
        The least key is read off the available bits alone."""
        key, best = self.key, _NEVER
        available = (out & ~v) | (out & v) << 64
        while available:
            low = available & -available
            k = key[low.bit_length()]
            if k < best:
                best = k
            available ^= low
        return None if best == _NEVER else self.tie_order[best % len(self.tie_order)]

    def record(self, v: int, b: int) -> None:
        """Bookkeeping of the move b from v: update h at v (the stamp of b's
        opposite is this step), then count the step."""
        opposite = (b ^ 64) + 1
        k = self.key[opposite]
        if k != _NEVER:
            size = len(self.tie_order)
            self.key[opposite] = self.step_counter * size + k % size
        self.updated = (v, self.step_counter)
        self.step_counter += 1

    def settle(self, v: int) -> None:
        """Bookkeeping at the sink: the update phase with the same step number."""
        self.updated = (v, self.step_counter)

    def snapshot(self, bundle_size: int, arrival: int | None = None) -> dict:
        """The history record: h as of an update at `arrival`, the vertex entered."""
        return {direction_text(b, bundle_size): c for b, c in self.table(arrival).items()}


@dataclass
class ZadehState:
    """Usage counts h, the tie list T (all 2n directions, fixed order) and
    the top usage count.

    Sets of directions are packed as bits: count[b] is the usage of the
    direction of bit b (-1 outside the tie list), masks[k] the set of
    directions used k times for k <= top, and bottom the least k with a
    nonempty mask.
    """

    rule: ClassVar[str] = "zadeh"
    tie_list: bytes
    count: list[int] = field(init=False, repr=False)
    top: int = field(init=False, default=0)
    masks: list[int] = field(init=False, repr=False, compare=False)
    bottom: int = field(init=False, default=0, compare=False)

    def __post_init__(self):
        self.count = [-1] * 128
        # rank[b + 1] is the tie rank of the direction of bit b.
        self._rank = [len(self.tie_list)] * 129
        for rank, b in enumerate(self.tie_list):
            self.count[b] = 0
            self._rank[b + 1] = rank
        self._listed = sum(1 << b for b in self.tie_list)
        self.masks = [self._listed]

    @property
    def usage(self) -> dict[int, int]:
        return {b: self.count[b] for b in self.tie_list}

    def choose(self, v: int, out: int) -> int | None:
        """The least-used outgoing direction; ties go by the tie list: the
        outgoing directions of the least count that has any, least rank
        first."""
        available = ((out & ~v) | (out & v) << 64) & self._listed
        if not available:
            return None
        masks, k = self.masks, self.bottom
        while not masks[k] & available:
            k += 1
        ties, rank = masks[k] & available, self._rank
        best = len(self.tie_list)
        while ties:
            low = ties & -ties
            if rank[low.bit_length()] < best:
                best = rank[low.bit_length()]
            ties ^= low
        return self.tie_list[best]

    def record(self, v: int, b: int) -> None:
        """Bookkeeping of the move b from v: one more use of it."""
        k = self.count[b]
        if k < 0:
            raise CubeError(f"direction {direction_text(b, 64)} is not in the tie list")
        self.count[b] = k + 1
        bit, masks = 1 << b, self.masks
        masks[k] ^= bit
        if k == self.top:
            self.top = k + 1
            masks.append(bit)
        else:
            masks[k + 1] |= bit
        if k == self.bottom and not masks[k]:
            self.bottom = k + 1

    def settle(self, v: int) -> None:
        """Bookkeeping at the sink: none."""

    def snapshot(self, bundle_size: int, arrival: int | None = None) -> dict:
        """The history record: the usage counts."""
        return {direction_text(b, bundle_size): c for b, c in self.usage.items()}


def balance_of(st: ZadehState, b: int) -> int:
    """Usage deficit of the direction of bit b against the most used direction."""
    return st.top - st.count[b]


def is_saturated(oracle: OrientationOracle, v: int, st: ZadehState, mask: int) -> bool:
    """No imbalanced direction on a coordinate of `mask` is available at v;
    balance is measured against the most used direction overall.  One test
    of the available directions against those used fewer than top times."""
    out = oracle.evaluate(v) & mask
    return not ((out & ~v) | (out & v) << 64) & st._listed & ~st.masks[st.top]


@dataclass
class Trace:
    """A run: step t is moves[t - 1], the bit of its direction, taken where
    the earlier moves lead from the start; history, when recorded, the
    snapshot after each step."""

    rule: str
    dimension: int
    bundle_size: int
    start: int
    end: int
    moves: bytes | bytearray = field(default_factory=bytearray)
    history: list[dict] | None = None
    final_history: dict | None = None

    def __len__(self) -> int:
        return len(self.moves)

    def walk(self):
        """(vertex, move bit) before each move, then (last vertex, None).
        A move that is no direction of the cube, or that is not legal where
        it is taken, raises IllegalMoveError."""
        v, n = self.start, self.dimension
        for b in self.moves:
            c = b & 63
            if c >= n or b >> 7:
                raise IllegalMoveError(f"move {b} is no direction of the {n}-cube")
            if v >> c & 1 != b >> 6:
                raise IllegalMoveError(f"{direction_text(b, self.bundle_size)} "
                                       f"at vertex {vertex_text(v, n)}")
            yield v, b
            v ^= 1 << c
        yield v, None

    def vertices(self) -> list[int]:
        """Start vertex followed by the vertex after each step."""
        return [v for v, _ in self.walk()]


def run_to_sink(oracle: OrientationOracle, start: int, rule: str, state,
                bundle_size: int = 4, record_history: bool | None = None,
                after_step=None) -> Trace:
    """Drive a rule state from `start` until the global sink; `rule`, the
    name the trace records, must be the one the state's class names.

    Each visited vertex's outmap is read once; the state chooses the move
    from it.  Arriving over an edge that the new vertex also lists as
    outgoing raises OracleInconsistencyError, and a run still short of the
    sink after 4 << n moves StepLimitExceeded.  Per-step history snapshots
    are recorded when record_history is true (defaults to dimension <=
    HISTORY_SNAPSHOT_MAX_DIM).  after_step, when given, is called as
    after_step(b, v_after) once per move, with b the move's bit, before
    v_after is evaluated; the recursive builders use it to drive the
    adversary.  The trace returned holds its moves as bytes.
    """
    if rule != state.rule:
        raise CubeError(f"rule {rule!r} given for a {state.rule} state")
    n = oracle.dimension
    step_limit = 4 << n
    if record_history is None:
        record_history = n <= HISTORY_SNAPSHOT_MAX_DIM

    trace = Trace(rule, n, bundle_size, start, start,
                  history=[] if record_history else None)
    evaluate, choose, record, snapshot = (oracle.evaluate, state.choose, state.record,
                                          state.snapshot)
    moves, history = trace.moves, trace.history
    v = start
    crossed = 0  # bit of the edge the last move crossed into v
    while True:
        out = evaluate(v)
        if out & crossed:
            raise OracleInconsistencyError(
                f"both ends of the {direction_text(moves[-1], bundle_size)} "
                f"edge into {vertex_text(v, n)} claim it as outgoing")
        if out == 0:
            # Johnson's final update at the sink: the last displayed row of a run.
            state.settle(v)
            if history is not None:
                trace.final_history = snapshot(bundle_size)
            trace.end, trace.moves = v, bytes(moves)
            return trace
        if len(moves) >= step_limit:
            raise StepLimitExceeded(step_limit, trace)
        b = choose(v, out)
        if b is None:
            raise OracleInconsistencyError(
                f"outmap of {vertex_text(v, n)} nonempty but no direction available")
        record(v, b)
        crossed = 1 << (b & 63)
        v_next = v ^ crossed  # b is outgoing at v, so the move is legal
        moves.append(b)
        if history is not None:
            history.append(snapshot(bundle_size, v_next))
        if after_step is not None:
            after_step(b, v_next)
        v = v_next


def replay(trace: Trace, state):
    """Re-apply a trace's moves to a rule state with its own bookkeeping.

    Yields Trace.walk()'s (vertex, move bit) before each move, with the
    state holding every earlier move, and (sink, None) last.  Once the
    generator is exhausted the state is the one run_to_sink left at the sink.
    """
    for v, b in trace.walk():
        yield v, b
        if b is None:
            state.settle(v)
        else:
            state.record(v, b)


def write_trace_jsonl(trace: Trace, path) -> None:
    """One record per step plus a final record with the sink and length.
    Each line is json.dumps(record, sort_keys=True); a step's line is
    formatted directly, with each direction's text made once and the vertex
    text kept as bytes, one character flipped per move.  A move that is not
    legal where it is taken raises IllegalMoveError, as walk() does."""
    n, history = trace.dimension, trace.history
    texts = {}
    for b in set(trace.moves):
        if b & 63 >= n or b >> 7:
            raise IllegalMoveError(f"move {b} is no direction of the {n}-cube")
        texts[b] = direction_text(b, trace.bundle_size)
    vertex = bytearray(vertex_text(trace.start, n), "ascii")
    with open(path, "w", encoding="utf-8") as fh:
        for t, b in enumerate(trace.moves, 1):
            h = ("" if history is None
                 else f' "h": {json.dumps(history[t - 1], sort_keys=True)},')
            fh.write(f'{{"dir": "{texts[b]}",{h} "t": {t}, '
                     f'"vertex": "{vertex.decode()}"}}\n')
            # +c needs "0" at text position c and -c needs "1"; the move flips it.
            c = b & 63
            if vertex[c] != 48 + (b >> 6):
                raise IllegalMoveError(f"{texts[b]} at vertex {vertex.decode()}")
            vertex[c] ^= 1
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
            bits = {}
            fh.seek(0)
            for t, line in zip(range(1, last), fh):
                where = f"trace file {path} line {t}"
                rec = json.loads(line)
                if rec["t"] != t:
                    raise CubeError(f'"t" is {rec["t"]!r}')
                if rec["vertex"] != vertex_text(v, n):
                    raise CubeError(f'"vertex" is {rec["vertex"]!r}, the moves '
                                    f"reach {vertex_text(v, n)}")
                b = bits.get(rec["dir"])
                if b is None:
                    try:
                        b = parse_direction(rec["dir"], bundle_size)
                    except CubeError as exc:
                        raise CubeError(f'"dir": {exc}') from exc
                    if (b & 63 >= min(n, MAX_DIMENSION)
                            or direction_text(b, bundle_size) != rec["dir"]):
                        raise CubeError(f'"dir" {rec["dir"]!r} names no direction')
                    bits[rec["dir"]] = b
                c = b & 63
                if v >> c & 1 != b >> 6:  # Trace.walk()'s test
                    raise IllegalMoveError(f"{rec['dir']} at vertex {vertex_text(v, n)}")
                v ^= 1 << c
                trace.moves.append(b)
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
