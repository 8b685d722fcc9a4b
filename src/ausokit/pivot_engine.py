"""The three history-based pivot rules as deterministic rule states.

Cunningham: ordered list of all 2n directions, round-robin scan from the
marker.  Johnson: per-direction last-step numbers, smallest wins, ties by a
fixed lexicographic order.  Zadeh: per-direction usage counts, least used
wins, ties by a fixed ordered list.

Each state chooses a move from the current vertex's outmap and keeps its
own bookkeeping; run_to_sink reads one outmap per visited vertex (one
query of the vertex-evaluation model per step), drives a state until the
global sink and records a Trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cube_core import (
    CubeError,
    Direction,
    OrientationOracle,
    apply_direction,
    direction_text,
    is_outgoing,
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


def _least(v: int, out: int, counts: dict, rank: dict,
           order: tuple[Direction, ...]) -> Direction | None:
    """The outgoing direction at v of least (count, tie rank), read off the
    set bits of the outmap `out` alone (+c where v lacks c, -c where v has
    it).  A plain (coord, positive) tuple finds the order's Direction in
    `counts` and `rank`; a direction outside the order is skipped."""
    size, best = len(order), -1
    while out:
        bit = out & -out
        out ^= bit
        d = (bit.bit_length() - 1, not v & bit)
        r = rank.get(d)
        if r is not None:
            key = counts[d] * size + r
            if best < 0 or key < best:
                best = key
    return order[best % size] if best >= 0 else None


@dataclass
class CunninghamState:
    """List L of all 2n directions and marker mu (1-based index of the last
    direction used; 2n initially so the first check is L[1])."""

    order: tuple[Direction, ...]
    marker: int = field(init=False)

    def __post_init__(self):
        self.marker = len(self.order)
        self._rank = {d: i for i, d in enumerate(self.order)}

    def choose(self, v: int, out: int) -> Direction | None:
        """Scan L cyclically from the marker; the first outgoing direction."""
        n2 = len(self.order)
        for k in range(self.marker, self.marker + n2):
            d = self.order[k % n2]
            if is_outgoing(v, out, d):
                return d
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
    The state keeps the stamps and the latest update `updated` = (u, s).
    arrival_update controls only the recorded snapshots: when True (the
    reporting convention) a step's snapshot is h as of an update at the
    arrival vertex with the same step number.  Those are exactly the
    unavailable directions there, so choices never depend on this flag.
    """

    tie_order: tuple[Direction, ...]
    stamp: dict[Direction, int] = field(init=False)
    updated: tuple[int, int] = field(init=False, default=(0, 0))
    step_counter: int = field(init=False, default=1)
    arrival_update: bool = True

    def __post_init__(self):
        self.stamp = {d: 0 for d in self.tie_order}
        self._rank = {d: i for i, d in enumerate(self.tie_order)}

    def table(self, u: int | None = None) -> dict[Direction, int]:
        """h after the latest update phase, or as if it had been at u."""
        v, s = self.updated
        u = v if u is None else u
        return {d: s if bool(u >> d.coord & 1) == d.positive else self.stamp[d]
                for d in self.tie_order}

    @property
    def last_step(self) -> dict[Direction, int]:
        return self.table()

    def choose(self, v: int, out: int) -> Direction | None:
        """The outgoing direction with the smallest h, ties by the tie order.
        An outgoing direction's h is its stamp, which the update phase at v
        leaves alone, so stamping first, as the rule is stated, agrees."""
        return _least(v, out, self.stamp, self._rank, self.tie_order)

    def record(self, v: int, d: Direction) -> None:
        """Bookkeeping of the move d from v: update h at v (the stamp of d's
        opposite is this step), then count the step."""
        opposite = Direction(d.coord, not d.positive)
        if opposite in self.stamp:
            self.stamp[opposite] = self.step_counter
        self.updated = (v, self.step_counter)
        self.step_counter += 1

    def settle(self, v: int) -> None:
        """Bookkeeping at the sink: the update phase with the same step number."""
        self.updated = (v, self.step_counter)


@dataclass
class ZadehState:
    """Usage counts h and the tie list T (all 2n directions, fixed order)."""

    tie_list: tuple[Direction, ...]
    usage: dict[Direction, int] = field(init=False)

    def __post_init__(self):
        self.usage = {d: 0 for d in self.tie_list}
        self._rank = {d: i for i, d in enumerate(self.tie_list)}

    def choose(self, v: int, out: int) -> Direction | None:
        """The least-used outgoing direction; ties go by the tie list."""
        return _least(v, out, self.usage, self._rank, self.tie_list)

    def record(self, v: int, d: Direction) -> None:
        """Bookkeeping of the move d from v: one more use of d."""
        self.usage[d] += 1

    def settle(self, v: int) -> None:
        """Bookkeeping at the sink: none."""


def balance_of(st: ZadehState, d: Direction) -> int:
    """Usage deficit of d against the most used direction."""
    return max(st.usage.values()) - st.usage[d]


def is_saturated(oracle: OrientationOracle, v: int, st: ZadehState, mask: int) -> bool:
    """No imbalanced direction on a coordinate of `mask` is available at v;
    balance is measured against the most used direction overall.  Walks
    only the set bits of the outmap within the mask."""
    out = oracle.evaluate(v) & mask
    top = max(st.usage.values())
    while out:
        bit = out & -out
        out ^= bit
        if st.usage[(bit.bit_length() - 1, not v & bit)] < top:
            return False
    return True


@dataclass
class TraceStep:
    t: int
    vertex: int
    direction: Direction
    history: dict | None = None


@dataclass
class Trace:
    rule: str
    dimension: int
    bundle_size: int
    start: int
    end: int
    steps: list[TraceStep] = field(default_factory=list)
    final_history: dict | None = None

    def __len__(self) -> int:
        return len(self.steps)

    def directions(self) -> list[Direction]:
        return [s.direction for s in self.steps]

    def vertices(self) -> list[int]:
        """Start vertex followed by the vertex after each step."""
        out = [self.start]
        for s in self.steps:
            out.append(apply_direction(out[-1], s.direction))
        return out


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

    trace = Trace(rule, n, bundle_size, start, start)
    v = start
    crossed = 0  # bit of the edge the last move crossed into v
    t = 1
    while True:
        out = oracle.evaluate(v)
        if out & crossed:
            d = trace.steps[-1].direction
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
        if t > step_limit:
            raise StepLimitExceeded(step_limit, trace)
        d = state.choose(v, out)
        if d is None:
            raise OracleInconsistencyError(
                f"outmap of {vertex_text(v, n)} nonempty but no direction available")
        state.record(v, d)
        v_next = apply_direction(v, d)
        history = _snapshot(rule, state, bundle_size, v_next) if record_history else None
        trace.steps.append(TraceStep(t, v, d, history))
        if after_step is not None:
            after_step(d, v_next)
        crossed = 1 << d.coord
        v = v_next
        t += 1


def replay(trace: Trace, state):
    """Re-apply a trace's moves to a rule state with its own bookkeeping.

    Yields (vertex, step) before each move, with the state holding every
    earlier move, and (sink, None) last.  Once the generator is exhausted the
    state is the one run_to_sink left at the sink.
    """
    v = trace.start
    for step in trace.steps:
        yield v, step
        state.record(v, step.direction)
        v = apply_direction(v, step.direction)
    yield v, None
    state.settle(v)


def write_trace_jsonl(trace: Trace, path) -> None:
    """One record per step plus a final record with the sink and length."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in trace.steps:
            rec = {"t": s.t, "vertex": vertex_text(s.vertex, trace.dimension),
                   "dir": direction_text(s.direction, trace.bundle_size)}
            if s.history is not None:
                rec["h"] = s.history
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        final = {"sink": vertex_text(trace.end, trace.dimension), "length": len(trace),
                 "rule": trace.rule, "start": vertex_text(trace.start, trace.dimension)}
        if trace.final_history is not None:
            final["h"] = trace.final_history
        fh.write(json.dumps(final, sort_keys=True) + "\n")


def read_trace_jsonl(path, bundle_size: int) -> Trace:
    steps = []
    final = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "sink" in rec:
                final = rec
            else:
                steps.append(TraceStep(rec["t"], parse_vertex(rec["vertex"]),
                                       parse_direction(rec["dir"], bundle_size),
                                       rec.get("h")))
    if final is None:
        raise CubeError(f"trace file {path} lacks a final record")
    n = len(final["sink"])
    trace = Trace(final["rule"], n, bundle_size, parse_vertex(final["start"]),
                  parse_vertex(final["sink"]), steps, final.get("h"))
    return trace
