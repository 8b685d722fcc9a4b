"""The three history-based pivot rules as deterministic steppers.

Cunningham: ordered list of all 2n directions, round-robin scan from the
marker.  Johnson: per-direction last-step numbers, smallest wins, ties by a
fixed lexicographic order.  Zadeh: per-direction usage counts, least used
wins, ties by a fixed ordered list.

Each stepper mutates its own state value and returns the move; run_to_sink
drives a stepper until the global sink and records a Trace.
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
    is_available,
    parse_direction,
    parse_vertex,
    vertex_text,
)

HISTORY_SNAPSHOT_MAX_DIM = 16


class SinkReached(CubeError):
    """Stepper found no available direction: the token sits on the sink."""


class StepLimitExceeded(CubeError):
    """The run did not reach the sink in time; suspect a cycle or a bad
    frame transcription."""

    def __init__(self, limit: int, partial: "Trace"):
        super().__init__(f"no sink within {limit} steps")
        self.limit = limit
        self.partial = partial


class OracleInconsistencyError(CubeError):
    """A chosen direction failed the availability re-check."""


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
    _tie_rank: dict[Direction, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.last_step:
            self.last_step = {d: 0 for d in self.tie_order}
        if not self._tie_rank:
            self._tie_rank = {d: i for i, d in enumerate(self.tie_order)}

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
    _tie_rank: dict[Direction, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.usage:
            self.usage = {d: 0 for d in self.tie_list}
        if not self._tie_rank:
            self._tie_rank = {d: i for i, d in enumerate(self.tie_list)}

    def record(self, v: int, d: Direction) -> None:
        """Bookkeeping of the move d from v: one more use of d."""
        self.usage[d] += 1

    def settle(self, v: int) -> None:
        """Bookkeeping at the sink: none."""


def cunningham_step(oracle: OrientationOracle, v: int, st: CunninghamState):
    """Scan L cyclically from the marker and take the first available direction."""
    n2 = len(st.order)
    for k in range(1, n2 + 1):
        idx = (st.marker - 1 + k) % n2
        d = st.order[idx]
        if is_available(oracle, v, d):
            st.record(v, d)
            return d, apply_direction(v, d)
    raise SinkReached(f"no available direction at {v:b}")


def johnson_step(oracle: OrientationOracle, v: int, st: JohnsonState):
    """Move along the available direction with the smallest h (ties by
    lexicographic order), then stamp h at the current vertex and count the
    step.  The stamp touches only directions unavailable at v, so stamping
    first, as the rule is stated, chooses the same move."""
    best = None
    for d in st.tie_order:
        if is_available(oracle, v, d):
            key = (st.last_step[d], st._tie_rank[d])
            if best is None or key < best[0]:
                best = (key, d)
    if best is None:
        raise SinkReached(f"no available direction at {v:b}")
    d = best[1]
    st.record(v, d)
    return d, apply_direction(v, d)


def zadeh_step(oracle: OrientationOracle, v: int, st: ZadehState):
    """Move along the least-used available direction, ties by the tie list."""
    best = None
    for d in st.tie_list:
        if is_available(oracle, v, d):
            key = (st.usage[d], st._tie_rank[d])
            if best is None or key < best[0]:
                best = (key, d)
    if best is None:
        raise SinkReached(f"no available direction at {v:b}")
    d = best[1]
    st.record(v, d)
    return d, apply_direction(v, d)


_STEPPERS = {
    "cunningham": cunningham_step,
    "johnson": johnson_step,
    "zadeh": zadeh_step,
}


def balance_of(st: ZadehState, d: Direction, scope=None) -> int:
    """Usage deficit of d against the most used direction (of `scope` if given)."""
    pool = scope if scope is not None else st.usage.keys()
    top = max(st.usage[x] for x in pool)
    return top - st.usage[d]


def is_saturated(oracle: OrientationOracle, v: int, st: ZadehState, directions) -> bool:
    """No imbalanced direction of the given set is available at v; balance is
    measured against the most used direction overall."""
    top = max(st.usage.values())
    for d in directions:
        if st.usage[d] < top and is_available(oracle, v, d):
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


def _snapshot(rule: str, st, bundle_size: int):
    if rule == "cunningham":
        return {"mu": st.marker}
    if rule == "johnson":
        return {direction_text(d, bundle_size): t for d, t in st.last_step.items()}
    return {direction_text(d, bundle_size): c for d, c in st.usage.items()}


def run_to_sink(oracle: OrientationOracle, start: int, rule: str, state,
                step_limit: int | None = None, bundle_size: int = 4,
                record_history: bool | None = None, after_step=None) -> Trace:
    """Iterate a rule's stepper from `start` until the global sink.

    Per-step history snapshots are recorded when record_history is true
    (defaults to dimension <= HISTORY_SNAPSHOT_MAX_DIM).  after_step, when
    given, is called as after_step(t, v_before, direction, v_after) once per
    move; the recursive builders use it to drive the adversary.
    """
    if rule not in _STEPPERS:
        raise CubeError(f"unknown rule {rule!r}")
    stepper = _STEPPERS[rule]
    n = oracle.dimension
    if step_limit is None:
        step_limit = 4 << n
    if step_limit <= 0:
        raise CubeError("step_limit must be positive")
    if record_history is None:
        record_history = n <= HISTORY_SNAPSHOT_MAX_DIM

    trace = Trace(rule, n, bundle_size, start, start)
    v = start
    t = 1
    while True:
        if oracle.evaluate(v) == 0:
            # Johnson's final update at the sink: the last displayed row of a run.
            state.settle(v)
            if record_history:
                trace.final_history = _snapshot(rule, state, bundle_size)
            trace.end = v
            return trace
        if t > step_limit:
            raise StepLimitExceeded(step_limit, trace)
        try:
            d, v_next = stepper(oracle, v, state)
        except SinkReached:
            # evaluate(v) != 0 but nothing available: broken oracle
            raise OracleInconsistencyError(
                f"outmap of {vertex_text(v, n)} nonempty but no direction available")
        if not oracle.evaluate(v) & (1 << d.coord):
            raise OracleInconsistencyError(
                f"direction {direction_text(d, bundle_size)} not outgoing on re-check")
        history = None
        if record_history:
            if rule == "johnson" and state.arrival_update:
                state.apply_update(v_next, t)
            history = _snapshot(rule, state, bundle_size)
        trace.steps.append(TraceStep(t, v, d, history))
        if after_step is not None:
            after_step(t, v, d, v_next)
        v = v_next
        t += 1


def replay(trace: Trace, state):
    """Re-apply a trace's moves to a rule state with the steppers' own
    bookkeeping.

    Yields (vertex, step) before each move, with the state holding every
    earlier move, and (sink, None) last.  Once the generator is exhausted the
    state is the one the stepper left at the sink.
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
