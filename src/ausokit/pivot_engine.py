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


@dataclass
class CunninghamState:
    """List L of all 2n directions and marker mu (1-based index of the last
    direction used; 2n initially so the first check is L[1])."""

    order: tuple[Direction, ...]
    marker: int = field(default=-1)
    _rank: dict[Direction, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.marker < 0:
            self.marker = len(self.order)
        if not self._rank:
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
    """Last-step table h, step counter t, and the tie order.

    arrival_update controls only the recorded snapshots: when True (the
    reporting convention) the update phase is also applied at the arrival
    vertex with the same step number.  The updated directions are exactly
    the unavailable ones there, so choices never depend on this flag.
    """

    tie_order: tuple[Direction, ...]
    last_step: dict[Direction, int] = field(default_factory=dict)
    step_counter: int = 1
    arrival_update: bool = True

    def __post_init__(self):
        if not self.last_step:
            self.last_step = {d: 0 for d in self.tie_order}

    def choose(self, v: int, out: int) -> Direction | None:
        """The outgoing direction with the smallest h; min keeps the first of
        equal keys, so ties go by the tie order.  record stamps h at v only
        on directions not outgoing there, so stamping first, as the rule is
        stated, chooses the same move."""
        return min((d for d in self.tie_order if is_outgoing(v, out, d)),
                   key=self.last_step.__getitem__, default=None)

    def apply_update(self, v: int, t: int) -> None:
        """h(d) := t for every direction whose defining condition holds at v."""
        for d in self.tie_order:
            present = bool(v & (1 << d.coord))
            if present == d.positive:
                self.last_step[d] = t

    def record(self, v: int, d: Direction) -> None:
        """Bookkeeping of a move from v: update h at v, then count the step."""
        self.apply_update(v, self.step_counter)
        self.step_counter += 1

    def settle(self, v: int) -> None:
        """Bookkeeping at the sink: the update phase with the same step number."""
        self.apply_update(v, self.step_counter)


@dataclass
class ZadehState:
    """Usage counts h and the tie list T (all 2n directions, fixed order)."""

    tie_list: tuple[Direction, ...]
    usage: dict[Direction, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.usage:
            self.usage = {d: 0 for d in self.tie_list}

    def choose(self, v: int, out: int) -> Direction | None:
        """The least-used outgoing direction; ties go by the tie list."""
        return min((d for d in self.tie_list if is_outgoing(v, out, d)),
                   key=self.usage.__getitem__, default=None)

    def record(self, v: int, d: Direction) -> None:
        """Bookkeeping of the move d from v: one more use of d."""
        self.usage[d] += 1

    def settle(self, v: int) -> None:
        """Bookkeeping at the sink: none."""


def balance_of(st: ZadehState, d: Direction) -> int:
    """Usage deficit of d against the most used direction."""
    return max(st.usage.values()) - st.usage[d]


def is_saturated(oracle: OrientationOracle, v: int, st: ZadehState, directions) -> bool:
    """No imbalanced direction of the given set is available at v; balance is
    measured against the most used direction overall."""
    out = oracle.evaluate(v)
    top = max(st.usage.values())
    return not any(st.usage[d] < top and is_outgoing(v, out, d) for d in directions)


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


def _snapshot(rule: str, st, bundle_size: int):
    if rule == "cunningham":
        return {"mu": st.marker}
    if rule == "johnson":
        return {direction_text(d, bundle_size): t for d, t in st.last_step.items()}
    return {direction_text(d, bundle_size): c for d, c in st.usage.items()}


def run_to_sink(oracle: OrientationOracle, start: int, rule: str, state,
                step_limit: int | None = None, bundle_size: int = 4,
                record_history: bool | None = None, after_step=None) -> Trace:
    """Drive a rule state from `start` until the global sink.

    Each visited vertex's outmap is read once; the state chooses the move
    from it.  Arriving over an edge that the new vertex also lists as
    outgoing raises OracleInconsistencyError.  Per-step history snapshots
    are recorded when record_history is true (defaults to dimension <=
    HISTORY_SNAPSHOT_MAX_DIM).  after_step, when given, is called as
    after_step(t, v_before, direction, v_after) once per move, before
    v_after is evaluated; the recursive builders use it to drive the
    adversary.
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
        history = None
        if record_history:
            if rule == "johnson" and state.arrival_update:
                state.apply_update(v_next, t)
            history = _snapshot(rule, state, bundle_size)
        trace.steps.append(TraceStep(t, v, d, history))
        if after_step is not None:
            after_step(t, v, d, v_next)
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
