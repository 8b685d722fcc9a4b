import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ausokit.combinators import ProductOracle, ReorientedOracle
from ausokit.cube_core import (
    MAX_DIMENSION,
    CubeError,
    IllegalMoveError,
    OrientationOracle,
    TableOracle,
    UniformOracle,
    direction_text,
    vertex_text,
)
from ausokit.frame_store import FAMILY
from ausokit.pivot_engine import (
    CunninghamState,
    JohnsonState,
    OracleInconsistencyError,
    StepLimitExceeded,
    Trace,
    ZadehState,
    balance_of,
    is_saturated,
    read_trace_jsonl,
    replay,
    run_to_sink,
    write_trace_jsonl,
)
from ausokit.constructions import realize_level, realize_range
from ausokit.verifier import outmap_table
from directions import (
    DIRECTIONS,
    Direction,
    apply_direction,
    bits,
    direction_bit,
    directions,
    is_available,
    keyed,
)


def _dirs(pattern, bundle=0, size=4):
    out = []
    for item in pattern.split(","):
        out.append(Direction(bundle * size + int(item[1:]) - 1, item[0] == "+"))
    return out


def _lexicographic(n):
    """Johnson's tie order on one bundle of n coordinates."""
    return [Direction(c, positive) for positive in (True, False) for c in range(n)]


def _chosen(state, v, out):
    """The Direction of the bit state.choose(v, out) returns, or None."""
    b = state.choose(v, out)
    return None if b is None else DIRECTIONS[b]


def _step(oracle, v, state):
    """One move as run_to_sink makes it: choose from v's outmap, record."""
    d = _chosen(state, v, oracle.evaluate(v))
    state.record(v, direction_bit(d))
    return d, apply_direction(v, d)


def test_cunningham_base_case_run(cunningham_frames):
    _, f3 = cunningham_frames["f3"]
    st = CunninghamState(FAMILY["cunningham"].tie_order(0))
    trace = run_to_sink(f3, 0b0010, "cunningham", st, bundle_size=4)
    assert directions(trace) == _dirs("+1,+3,-1,+4,+1")
    assert len(trace) == 5
    assert trace.end == 0b1111


def test_cunningham_first_steps_skip_unavailable(cunningham_frames):
    _, f3 = cunningham_frames["f3"]
    st = CunninghamState(FAMILY["cunningham"].tie_order(0))
    d, v = _step(f3, 0b0010, st)
    assert d == Direction(0, True)
    d, v = _step(f3, v, st)
    assert d == Direction(2, True)  # -c^2 was not available


def test_cunningham_marker_tracks_used_direction(cunningham_frames):
    _, f3 = cunningham_frames["f3"]
    st = CunninghamState(FAMILY["cunningham"].tie_order(0))
    v = 0b0010
    while f3.evaluate(v):
        d, v = _step(f3, v, st)
        assert st.order[st.marker - 1] == direction_bit(d)


def test_cunningham_step_at_sink_raises(cunningham_frames):
    _, f3 = cunningham_frames["f3"]
    assert f3.evaluate(0b1111) == 0
    st = CunninghamState(FAMILY["cunningham"].tie_order(0))
    assert st.choose(0b1111, 0) is None


JOHNSON_TABLE = [
    # vertex, direction, h(+1..+4), h(-1..-4)
    ("0000", "+1", (1, 0, 0, 0), (1, 1, 1, 1)),
    ("1000", "+2", (2, 2, 0, 0), (1, 2, 2, 2)),
    ("1100", "+3", (3, 3, 3, 0), (1, 2, 3, 3)),
    ("1110", "+4", (4, 4, 4, 4), (1, 2, 3, 4)),
    ("1111", "-3", (5, 5, 5, 5), (1, 2, 5, 4)),
    ("1101", "-2", (6, 6, 5, 6), (1, 6, 6, 4)),
]
JOHNSON_FINAL = ("1001", (7, 6, 5, 7), (1, 7, 7, 4))


def test_johnson_example_table(johnson_frames):
    from ausokit.cube_core import parse_vertex, vertex_text
    _, f1 = johnson_frames["f1"]
    st = JohnsonState(FAMILY["johnson"].tie_order(0))
    trace = run_to_sink(f1, 0, "johnson", st, bundle_size=4)
    assert len(trace) == 6
    for v, direction, history, (bits, d, pos, neg) in zip(
            trace.vertices(), directions(trace), trace.history, JOHNSON_TABLE):
        assert vertex_text(v, 4) == bits
        sign, k = d[0], int(d[1])
        assert direction == Direction(k - 1, sign == "+")
        for k in range(4):
            assert history[f"+0.{k+1}"] == pos[k]
            assert history[f"-0.{k+1}"] == neg[k]
    bits, pos, neg = JOHNSON_FINAL
    assert trace.end == parse_vertex(bits)
    for k in range(4):
        assert trace.final_history[f"+0.{k+1}"] == pos[k]
        assert trace.final_history[f"-0.{k+1}"] == neg[k]


def test_zadeh_base_case_walk(zadeh_frames):
    spec, a0 = zadeh_frames["a0"]
    st = ZadehState(FAMILY["zadeh"].tie_order(0))
    trace = run_to_sink(a0, spec.labels["box1"], "zadeh", st, bundle_size=6)
    assert len(trace) == 20
    assert trace.vertices() == [spec.labels[f"box{i}"] for i in range(1, 22)]
    for k in (2, 3, 4, 5):  # -c^3 .. -c^6
        assert balance_of(st, direction_bit(Direction(k, False))) == 1
    for b in st.tie_list:
        d = DIRECTIONS[b]
        if not (not d.positive and d.coord >= 2):
            assert balance_of(st, b) == 0


def test_zadeh_two_cube_tie_break():
    # both directions unused: the tie list decides; hand-simulated
    o = UniformOracle(2, 0)
    tie = (Direction(0, True), Direction(0, False), Direction(1, True),
           Direction(1, False))
    st = ZadehState(bits(tie))
    trace = run_to_sink(o, 0b11, "zadeh", st, bundle_size=2)
    assert directions(trace) == [Direction(0, False), Direction(1, False)]


def test_zadeh_usage_conservation(zadeh_frames):
    spec, a0 = zadeh_frames["a0"]
    st = ZadehState(FAMILY["zadeh"].tie_order(0))
    v = spec.labels["box1"]
    steps = 0
    while a0.evaluate(v):
        _, v = _step(a0, v, st)
        steps += 1
        assert sum(st.usage.values()) == steps


def test_all_rules_take_n_steps_from_antisink(tmp_path):
    """From the antisink of a uniform cube every rule takes the n negative
    directions in coordinate order; at n = MAX_DIMENSION = 63 these are
    bits 64..126, the top slots of the states' tables, and the trace reads
    back from its file."""
    for n in (3, 5, MAX_DIMENSION):
        anti = (1 << n) - 1
        o = UniformOracle(n, 0)
        pairs = bits(d for c in range(n) for d in (Direction(c, True), Direction(c, False)))
        john = JohnsonState(bits(_lexicographic(n)))
        for rule, state in (("cunningham", CunninghamState(pairs)), ("johnson", john),
                            ("zadeh", ZadehState(pairs))):
            trace = run_to_sink(o, anti, rule, state, bundle_size=n)
            assert trace.moves == bytearray(range(64, 64 + n))
            path = tmp_path / f"{rule}_{n}.jsonl"
            write_trace_jsonl(trace, path)
            assert read_trace_jsonl(path, n) == trace


def test_determinism_identical_traces(zadeh_frames):
    spec, a0 = zadeh_frames["a0"]
    runs = [run_to_sink(a0, spec.labels["box1"], "zadeh",
                        ZadehState(FAMILY["zadeh"].tie_order(0)), bundle_size=6)
            for _ in range(2)]
    assert runs[0].moves == runs[1].moves
    assert runs[0].history == runs[1].history


def test_run_refuses_a_rule_name_that_is_not_the_states(zadeh_frames):
    """The trace records the rule name run_to_sink is given, so a name
    other than the one the state's class names is refused before any step,
    not written into a trace."""
    _, a0 = zadeh_frames["a0"]
    spec = FAMILY["zadeh"]
    with pytest.raises(CubeError, match="rule 'cunningham' given for a zadeh state"):
        run_to_sink(a0, spec.start(0), "cunningham", spec.rule_state(0), bundle_size=6)


def test_step_limit_flags_cycle():
    cyclic = TableOracle(2, [0b01, 0b10, 0b10, 0b01])
    st = CunninghamState(bits((Direction(0, True), Direction(1, True),
                               Direction(0, False), Direction(1, False))))
    with pytest.raises(StepLimitExceeded) as exc:
        run_to_sink(cyclic, 0, "cunningham", st, bundle_size=2)
    assert exc.value.limit == len(exc.value.partial) == 4 << 2


def _states(order):
    """A fresh state of each rule on an order of Directions."""
    order = bits(order)
    return {"cunningham": CunninghamState(order), "johnson": JohnsonState(order),
            "zadeh": ZadehState(order)}


def test_inconsistent_oracle_detected():
    # Uniform toward sink {c2}, except that the sink also claims the edge
    # {0, c2}: both of its ends list it, and every rule arrives over it.
    table = TableOracle(2, [0b10, 0b11, 0b10, 0b01])
    order = (Direction(0, True), Direction(1, True), Direction(0, False),
             Direction(1, False))
    for rule, state in _states(order).items():
        with pytest.raises(OracleInconsistencyError, match="both ends"):
            run_to_sink(table, 0, rule, state, bundle_size=2)


def test_outmap_outside_the_order_raises():
    # The order lacks coordinate 1; at 0b10 the outmap lists only that edge.
    order = (Direction(0, True), Direction(0, False))
    for rule, state in _states(order).items():
        with pytest.raises(OracleInconsistencyError, match="no direction available"):
            run_to_sink(UniformOracle(2, 0), 0b11, rule, state, bundle_size=2)


class _CountingOracle(OrientationOracle):
    def __init__(self, base):
        self.base = base
        self.dimension = base.dimension
        self.calls = 0

    def evaluate(self, v):
        self.calls += 1
        return self.base.evaluate(v)


@pytest.mark.parametrize("family,top", [("cunningham", 3), ("johnson", 2), ("zadeh", 1)])
def test_one_evaluate_per_visited_vertex(family, top, built_levels):
    level, _ = built_levels[family][top]
    counting = _CountingOracle(level.oracle)
    trace = run_to_sink(counting, level.start, family, level.rule_state(),
                        bundle_size=level.bundle_size)
    assert len(trace) == level.path_length > 0
    assert counting.calls == len(trace) + 1


@pytest.mark.parametrize("realizations", [1, 2], ids=["build", "reload"])
def test_built_level_memo_starts_cold(tmp_path, realizations):
    """A chain's top level, built or reloaded, runs below its memo and
    leaves nothing there: a re-run on its oracle evaluates every vertex of
    its path below the memo, so it recomputes every outmap it reads.  (Lower
    levels run on their memo; see
    test_lower_levels_computed_once_per_path_vertex.)"""
    for _ in range(realizations):
        level, trace = realize_level("cunningham", 3, cache_dir=tmp_path)
    counting = _CountingOracle(level.oracle.base)
    level.oracle.base = counting
    again = run_to_sink(level.oracle, level.start, "cunningham", level.rule_state(),
                        bundle_size=level.bundle_size)
    assert again.moves == trace.moves
    assert counting.calls == len(trace) + 1


@pytest.mark.parametrize("family,top", [("cunningham", 4), ("zadeh", 2)])
@pytest.mark.parametrize("realizations", [1, 2], ids=["build", "reload"])
def test_lower_levels_computed_once_per_path_vertex(tmp_path, monkeypatch, family,
                                                    top, realizations):
    """Over a whole chain, built or reloaded, each level is computed through
    its oracle chain (its ReorientedOracle) once per vertex of its path:
    a level below the top runs on its memo, which ends holding exactly its
    path's outmaps, and the next level's run reads nothing else of it.  The
    top's memo stays cold."""
    for _ in range(realizations - 1):
        realize_range(family, top, cache_dir=tmp_path)
    calls = Counter()
    evaluate = ReorientedOracle.evaluate

    def counting(self, v):
        calls[id(self)] += 1
        return evaluate(self, v)

    monkeypatch.setattr(ReorientedOracle, "evaluate", counting)
    chain = realize_range(family, top, cache_dir=tmp_path)
    for level, trace in chain[1:]:
        assert calls[id(level.oracle.base)] == len(trace) + 1
        held = 0 if level.level == top else len(trace) + 1
        assert len(level.oracle.entries()) == held


def test_balance_of_fresh_and_scoped():
    st = ZadehState(FAMILY["zadeh"].tie_order(0))
    for d in st.tie_list:
        assert balance_of(st, d) == 0
    for d in [Direction(0, True)] * 3 + [Direction(1, True)]:
        st.record(0, direction_bit(d))
    assert balance_of(st, direction_bit(Direction(1, True))) == 2
    assert st.top == 3


def test_is_saturated_fresh_state(zadeh_frames):
    _, a0 = zadeh_frames["a0"]
    st = ZadehState(FAMILY["zadeh"].tie_order(0))
    assert is_saturated(a0, 0b000010, st, 0b111111)


def test_is_saturated_at_box12_not_at_box2(zadeh_frames):
    spec, a0 = zadeh_frames["a0"]
    st = ZadehState(FAMILY["zadeh"].tie_order(0))
    v = spec.labels["box1"]
    for i in range(11):
        _, v = _step(a0, v, st)
        if i == 0:
            # after one step some imbalanced direction is available, but
            # not on c1, the only coordinate of the narrower mask
            assert not is_saturated(a0, v, st, 0b111111)
            assert is_saturated(a0, v, st, 0b000001)
    assert v == spec.labels["box12"]
    assert is_saturated(a0, v, st, 0b111111)


def test_trace_jsonl_roundtrip(tmp_path, built_levels):
    """Every fixture trace, history included, reads back field by field."""
    path = tmp_path / "t.jsonl"
    traces = [trace for chain in built_levels.values() for _, trace in chain]
    assert any(trace.history for trace in traces)
    for trace in traces:
        write_trace_jsonl(trace, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(trace) + 1  # final record carries sink and length
        assert read_trace_jsonl(path, trace.bundle_size) == trace


class _FixedOutmap(OrientationOracle):
    """Answers every vertex with one outmap."""

    dimension = 63

    def __init__(self, out):
        self.out = out

    def evaluate(self, v):
        return self.out


def _reference_choice(counts, order, v, out):
    """Least count (Zadeh's usage, Johnson's stamp) among the available
    directions of the order, then tie rank."""
    available = [d for d in order
                 if out >> d.coord & 1 and bool(v >> d.coord & 1) != d.positive]
    return min(available, key=lambda d: (counts[d], order.index(d)), default=None)


_directions = hst.builds(Direction, hst.integers(0, 62), hst.booleans())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(order=hst.lists(_directions, unique=True, max_size=20),
       moves=hst.lists(hst.tuples(hst.integers(0, 19), _directions), max_size=60),
       queries=hst.lists(hst.tuples(hst.integers(0, (1 << 63) - 1),
                                    hst.integers(0, (1 << 63) - 1),
                                    hst.integers(0, (1 << 63) - 1)), max_size=8))
def test_zadeh_state_matches_its_definition(order, moves, queries):
    """The packed ZadehState against the rule's definitions, on random tie
    lists (most leave directions out), moves and (v, out, mask) queries:
    choose takes the least usage, then the least tie rank; a vertex is
    saturated when no available direction on the mask is used fewer times
    than the most used one; record refuses a direction outside the list."""
    order = tuple(order)
    state = ZadehState(bits(order))
    usage = {d: 0 for d in order}
    for pick, d in moves:
        if order and pick % 2:
            d = order[pick % len(order)]  # half the moves stay in the list
        if d in usage:
            state.record(0, direction_bit(d))
            usage[d] += 1
        else:
            with pytest.raises(CubeError):
                state.record(0, direction_bit(d))
        top = max(usage.values(), default=0)
        assert keyed(state.usage) == usage and list(keyed(state.usage)) == list(order)
        assert state.top == top
        assert all(balance_of(state, direction_bit(x)) == top - c for x, c in usage.items())
        for v, out, mask in queries:
            # Half the outmaps keep only coordinates of the order.
            if pick % 2:
                out &= sum(1 << x.coord for x in order)
            assert _chosen(state, v, out) == _reference_choice(usage, order, v, out)
            saturated = not any(c < top for x, c in usage.items()
                                if (mask & out) >> x.coord & 1
                                and bool(v >> x.coord & 1) != x.positive)
            assert is_saturated(_FixedOutmap(out), v, state, mask) == saturated
    # Equality compares the counts, not the order the moves came in.
    again = ZadehState(bits(order))
    for d, c in reversed(usage.items()):
        for _ in range(c):
            again.record(0, direction_bit(d))
    assert again == state
    if order:
        again.record(0, direction_bit(order[0]))
        assert again != state


def _johnson_reference_table(stamp, s, u):
    """h after an update phase at u with step number s: s for each d not
    outgoing-side at u (+c with c present, -c with c absent), stamp[d] for
    the others."""
    return {d: s if (u >> d.coord & 1 if d.positive else not u >> d.coord & 1) else c
            for d, c in stamp.items()}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(order=hst.lists(_directions, unique=True, max_size=20),
       moves=hst.lists(hst.tuples(hst.integers(0, 19), _directions,
                                  hst.integers(0, (1 << 63) - 1)), max_size=60),
       queries=hst.lists(hst.tuples(hst.integers(0, (1 << 63) - 1),
                                    hst.integers(0, (1 << 63) - 1)), max_size=8))
def test_johnson_state_matches_its_definition(order, moves, queries):
    """JohnsonState against the rule's definitions, on random tie orders
    (most leave directions out), moves in and out of the order from random
    vertices, and (v, out) queries: choose takes the least stamp, then the
    least tie rank; the stamp of d is the step whose move took d's opposite
    (0 before one); table(u) is h after an update at u with the latest step
    number; equality compares the key lists."""
    order = tuple(order)
    state = JohnsonState(bits(order))
    stamp = {d: 0 for d in order}
    taken = []
    for step, (pick, d, u) in enumerate(moves, 1):
        if order and pick % 2:
            d = order[pick % len(order)]  # half the moves stay in the order
        state.record(u, direction_bit(d))
        taken.append((u, direction_bit(d)))
        opposite = Direction(d.coord, not d.positive)
        if opposite in stamp:
            stamp[opposite] = step
        assert keyed(state.stamp) == stamp and list(keyed(state.stamp)) == list(order)
        assert keyed(state.table()) == _johnson_reference_table(stamp, step, u)
        for v, out in queries:
            # Half the outmaps keep only coordinates of the order.
            if pick % 2:
                out &= sum(1 << x.coord for x in order)
            assert _chosen(state, v, out) == _reference_choice(stamp, order, v, out)
            assert keyed(state.table(v)) == _johnson_reference_table(stamp, step, v)
    # The same moves give an equal state; the moves in reverse order, taken
    # at the same vertices, one that is equal exactly when the stamps are.
    same, reordered = JohnsonState(bits(order)), JohnsonState(bits(order))
    for (u, b), (_, b_back) in zip(taken, reversed(taken)):
        same.record(u, b)
        reordered.record(u, b_back)
    assert same == state
    assert (reordered == state) == (reordered.stamp == state.stamp)


# Johnson's example run on F1: line 3 is step 3, +0.3 from 1100; line 7 is
# the final record, sink 1001 after 6 steps.
@pytest.mark.parametrize("line,key,value", [
    (3, "t", 4),
    (3, "vertex", "1110"),
    (3, "dir", "-0.3"),  # 1100 lacks c3
    (3, "dir", "+0.7"),  # no coordinate 7 in the 4-cube
    (3, "h", None),  # the other records carry a snapshot
    (7, "length", 7),
    (7, "sink", "1000"),
])
def test_trace_jsonl_tampering_is_caught(tmp_path, johnson_frames, line, key, value):
    _, f1 = johnson_frames["f1"]
    trace = run_to_sink(f1, 0, "johnson", JohnsonState(FAMILY["johnson"].tie_order(0)),
                        bundle_size=4)
    path = tmp_path / "t.jsonl"
    write_trace_jsonl(trace, path)
    records = [json.loads(text) for text in path.read_text().splitlines()]
    assert len(records) == 7 and records[2]["dir"] == "+0.3"
    assert records[2]["vertex"] == "1100" and records[6]["sink"] == "1001"
    if value is None:
        del records[line - 1][key]
    else:
        records[line - 1][key] = value
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    with pytest.raises(CubeError, match=f"line {line}: "):
        read_trace_jsonl(path, 4)


def test_trace_reader_refuses_coordinates_beyond_the_bits(tmp_path):
    """A 65-cube file's +16.1 (coordinate 64) has no bit; read as bit 64 it
    would be -0.1, legal from this start and reaching the recorded sink."""
    start = "1" + "0" * 64
    records = [{"dir": "+16.1", "t": 1, "vertex": start},
               {"length": 1, "rule": "zadeh", "sink": "0" * 65, "start": start}]
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    with pytest.raises(CubeError, match='line 1: "dir"'):
        read_trace_jsonl(path, 4)


@pytest.mark.parametrize("start,moves", [
    (0b001, [0, 1]),  # +c1 where the vertex has c1
    (0b000, [64, 1]),  # -c1 where the vertex lacks c1
    (0b000, [0, 1, 0, 2]),  # +c1 again after +c1, +c2
    (0b010, [65, 64, 0]),  # -c2, then -c1 where the vertex lacks c1
    # The same as a run's last move.
    (0b001, [0]),
    (0b000, [64]),
    (0b010, [65, 64]),
    (0b000, [3]),  # +c4 outside the 3-cube
], ids=["plus", "minus", "plus-again", "minus-later", "last-plus", "last-minus",
        "last-minus-later", "off-cube"])
def test_trace_writer_refuses_illegal_moves(tmp_path, start, moves):
    trace = Trace("zadeh", 3, 3, start, start, moves=bytearray(moves))
    with pytest.raises(IllegalMoveError):
        write_trace_jsonl(trace, tmp_path / "t.jsonl")


@pytest.mark.parametrize("start,moves", [
    (0b001, [0]),  # +c1 where the vertex has c1
    (0b010, [65, 64]),  # -c2, then -c1 where the vertex lacks c1
    (0b000, [3]),  # +c4 outside the 3-cube
    (0b000, [1, 67]),  # -c4 outside the 3-cube
    (0b000, [128]),  # no direction's bit
], ids=["plus", "minus-later", "off-cube-plus", "off-cube-minus", "no-direction"])
def test_walk_refuses_illegal_moves_and_moves_off_the_cube(start, moves):
    trace = Trace("zadeh", 3, 3, start, start, moves=bytearray(moves))
    with pytest.raises(IllegalMoveError):
        trace.vertices()


@pytest.mark.parametrize("family, top", [("cunningham", 3), ("johnson", 3), ("zadeh", 2)])
def test_walk_and_replay_yield_the_move_bits(family, top):
    """walk() and replay() yield each vertex of the run with the bit of the
    move taken there, then the sink with None."""
    for level, trace in realize_range(family, top):
        want = [*zip(trace.vertices(), trace.moves), (trace.end, None)]
        assert list(trace.walk()) == want
        assert list(replay(trace, level.rule_state())) == want


@pytest.mark.parametrize("history", [True, False], ids=["history", "no-history"])
def test_trace_writer_flips_one_character_per_move(tmp_path, history):
    """A hand-made walk over every coordinate of a 5-cube and back, with and
    without snapshots, is written as one json.dumps per record."""
    moves = bytearray([0, 65, 2, 3, 4, 64, 1, 66, 67, 68, 65, 0])
    trace = Trace("cunningham", 5, 2, 0b00010, 0, moves=moves,
                  history=[{"mu": t} for t in range(len(moves))] if history else None,
                  final_history={"mu": 99} if history else None)
    trace.end = trace.vertices()[-1]
    path = tmp_path / "t.jsonl"
    write_trace_jsonl(trace, path)
    assert path.read_text(encoding="utf-8").splitlines() == _reference_jsonl(trace)
    assert read_trace_jsonl(path, 2) == trace


def test_rules_terminate_within_2n_from_every_start(cunningham_frames,
                                                    johnson_frames, zadeh_frames):
    # acyclic oracles: every start reaches the sink within 2^n steps
    frames = [cunningham_frames["f3"][1], johnson_frames["f1"][1],
              zadeh_frames["a0"][1]]
    for oracle in frames:
        n = oracle.dimension
        for start in range(1 << n):
            order = bits(Direction(c, s) for c in range(n) for s in (True, False))
            for rule, state in (
                    ("cunningham", CunninghamState(order)),
                    ("johnson", JohnsonState(bits(_lexicographic(n)))),
                    ("zadeh", ZadehState(order))):
                trace = run_to_sink(oracle, start, rule, state, bundle_size=n,
                                    record_history=False)
                assert len(trace) <= 1 << n


def test_history_snapshots_off_beyond_dim16():
    from ausokit.constructions import realize_level, rule_state
    level, _ = realize_level("zadeh", 2)  # n = 18
    trace = run_to_sink(level.oracle, level.start, "zadeh",
                        rule_state("zadeh", 2), bundle_size=6)
    assert trace.history is None


@pytest.mark.parametrize("family,top", [("cunningham", 5), ("johnson", 5), ("zadeh", 3)])
def test_replay_ends_in_the_steppers_final_state(family, top):
    for level, trace in realize_range(family, top):
        stepped = level.rule_state()
        run_to_sink(level.oracle, level.start, family, stepped,
                    bundle_size=level.bundle_size)
        replayed = level.rule_state()
        assert [v for v, _ in replay(trace, replayed)] == trace.vertices()
        assert replayed == stepped
        if trace.final_history is None:
            continue
        if family == "cunningham":
            assert trace.final_history == {"mu": replayed.marker}
        else:
            counts = replayed.table() if family == "johnson" else replayed.usage
            assert trace.final_history == {direction_text(b, level.bundle_size): c
                                           for b, c in counts.items()}


# The rules as the per-direction steppers stated them, one is_available
# probe per direction and Johnson's h updated eagerly over the whole tie
# order: the reference for the single-outmap choose methods and for the
# stamped h tables.
def _reference_run(oracle, start, rule, order, limit):
    """The directions of the run; for Johnson, h after each step in both
    conventions ((arrival, non-arrival) pairs) and after the final update;
    and the bookkeeping after each step (Zadeh's usage counts, Johnson's
    stamps: the step whose move took the direction's opposite, 0 before)."""
    rank = {d: i for i, d in enumerate(order)}
    h = {d: 0 for d in order}
    stamp = dict(h)
    marker, counter = len(order), 1
    v, dirs, tables, books = start, [], [], []

    def updated(u, t):
        """h after an update phase at u with step number t."""
        return {x: t if bool(u & (1 << x.coord)) == x.positive else c
                for x, c in h.items()}

    while oracle.evaluate(v) and len(dirs) < limit:
        if rule == "cunningham":
            for k in range(1, len(order) + 1):
                d = order[(marker - 1 + k) % len(order)]
                if is_available(oracle, v, d):
                    break
            marker = rank[d] + 1
        else:
            d = min((x for x in order if is_available(oracle, v, x)),
                    key=lambda x: (h[x], rank[x]))
            if rule == "johnson":
                h = updated(v, counter)
                tables.append((updated(apply_direction(v, d), counter), h))
                opposite = Direction(d.coord, not d.positive)
                if opposite in stamp:
                    stamp[opposite] = counter
                books.append(dict(stamp))
                counter += 1
            else:
                h[d] += 1
                books.append(dict(h))
        dirs.append(d)
        v = apply_direction(v, d)
    return dirs, tables, updated(v, counter), books


def _views_match_reference(got, rule, order, books):
    """Replaying a run, the views after every move, keyed by Direction, equal the
    reference bookkeeping (Zadeh's usage, Johnson's stamps); Zadeh's running
    top count is the top usage."""
    state = _states(order)[rule]
    for moves, _ in enumerate(replay(got, state)):
        if moves:
            book = books[moves - 1]
            assert keyed(state.usage if rule == "zadeh" else state.stamp) == book
            if rule == "zadeh":
                assert state.top == max(book.values())
    assert moves == len(books)


def _johnson_matches_reference(oracle, start, order, bundle_size):
    """Snapshots (h at the vertex entered), final history and replayed h
    tables (h at the vertex left, as table() reads it) against the
    reference, which stops at run_to_sink's step limit."""
    _, tables, final, _ = _reference_run(oracle, start, "johnson", order,
                                         4 << oracle.dimension)

    def text(table):
        return {direction_text(direction_bit(d), bundle_size): c for d, c in table.items()}

    try:
        got = run_to_sink(oracle, start, "johnson", JohnsonState(bits(order)),
                          bundle_size=bundle_size, record_history=True)
    except StepLimitExceeded as exc:
        got = exc.partial
    assert got.history == [text(arrival) for arrival, _ in tables]
    if got.final_history is not None:
        assert got.final_history == text(final)
    state = JohnsonState(bits(order))
    before = [{d: 0 for d in order}] + [non_arrival for _, non_arrival in tables]
    for _, want in zip(replay(got, state), before, strict=True):
        assert keyed(state.table()) == want
    assert keyed(state.table()) == final


@hst.composite
def _rule_oracles(draw, frames):
    """A uniform cube with a random sink, a product of frames (a frame or a
    uniform cube inside, 4-frames outside), or a uniform cube with a random
    sink and its low 4-face at a random anchor reoriented by a 4-frame; at
    most 10 dimensions."""
    four_dim = [f for f in frames if f.dimension == 4]
    kind = draw(hst.sampled_from(("uniform", "product", "reoriented")))
    if kind == "uniform":
        n = draw(hst.integers(0, 10))
        return UniformOracle(n, draw(hst.integers(0, (1 << n) - 1)))
    if kind == "product":
        if draw(hst.booleans()):
            inner = draw(hst.sampled_from(frames))
        else:
            m = draw(hst.integers(1, 6))
            inner = UniformOracle(m, draw(hst.integers(0, (1 << m) - 1)))
        keys = draw(hst.sets(hst.integers(0, (1 << inner.dimension) - 1), max_size=12))
        return ProductOracle(inner, draw(hst.sampled_from(four_dim)),
                             {k: draw(hst.sampled_from(four_dim)) for k in keys})
    n = draw(hst.integers(4, 10))
    base = UniformOracle(n, draw(hst.integers(0, (1 << n) - 1)))
    anchor = draw(hst.integers(0, (1 << n) - 1)) & ~0b1111
    return ReorientedOracle(base, anchor, draw(hst.sampled_from(four_dim)),
                            base.evaluate(anchor) & ~0b1111)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(hst.data())
def test_rules_match_per_direction_reference(cunningham_frames, johnson_frames,
                                             zadeh_frames, data):
    frames = [oracle for family in (cunningham_frames, johnson_frames, zadeh_frames)
              for _, oracle in family.values()]
    drawn = data.draw(_rule_oracles(frames))
    oracle = TableOracle(drawn.dimension, outmap_table(drawn).tolist())
    n = oracle.dimension
    order = tuple(data.draw(hst.permutations(
        [Direction(c, s) for c in range(n) for s in (True, False)])))
    limit = 4 << n  # run_to_sink's step limit
    for start in range(1 << n):
        for rule, state in _states(order).items():
            try:
                got = run_to_sink(oracle, start, rule, state, bundle_size=max(n, 1),
                                  record_history=False)
            except StepLimitExceeded as exc:
                got = exc.partial
            dirs, _, _, books = _reference_run(oracle, start, rule, order, limit)
            assert directions(got) == dirs
            if rule != "cunningham":
                _views_match_reference(got, rule, order, books)
        _johnson_matches_reference(oracle, start, order, max(n, 1))


def test_johnson_h_keys_stay_the_tie_order():
    # The tie order lacks -c1; the run takes +c1 first, whose opposite it is.
    order = (Direction(0, True), Direction(1, True), Direction(1, False))
    state = JohnsonState(bits(order))
    trace = run_to_sink(UniformOracle(2, 0b11), 0, "johnson", state, bundle_size=2)
    assert directions(trace) == [Direction(0, True), Direction(1, True)]
    assert list(state.table()) == list(state.stamp) == list(bits(order))
    keys = [direction_text(direction_bit(d), 2) for d in order]
    assert all(list(h) == keys for h in trace.history)
    assert list(trace.final_history) == keys
    _johnson_matches_reference(UniformOracle(2, 0b11), 0, order, 2)


def test_zadeh_usage_keys_stay_the_tie_list():
    # The tie list lacks -c1; the run never needs it.
    order = (Direction(0, True), Direction(1, True), Direction(1, False))
    state = ZadehState(bits(order))
    trace = run_to_sink(UniformOracle(2, 0b11), 0, "zadeh", state, bundle_size=2)
    assert directions(trace) == [Direction(0, True), Direction(1, True)]
    assert list(state.usage) == list(bits(order))
    assert [balance_of(state, b) for b in bits(order)] == [0, 0, 1]
    keys = [direction_text(direction_bit(d), 2) for d in order]
    assert all(list(h) == keys for h in trace.history)
    assert trace.final_history == dict(zip(keys, (1, 1, 0)))


@pytest.mark.parametrize("rule", ["cunningham", "johnson", "zadeh"])
def test_direction_outside_the_order_never_wins(rule):
    # The order lacks -c2 (coordinate 1).  At 0b10 the outmap 0b11 offers +c1
    # and -c2: the rule takes +c1.  At 0b11 it offers -c2 alone: nothing.
    order = (Direction(0, True), Direction(0, False), Direction(1, True))
    state = _states(order)[rule]
    assert _chosen(state, 0b10, 0b11) == Direction(0, True)
    assert _chosen(state, 0b11, 0b10) is None
    state.record(0b10, direction_bit(Direction(0, True)))
    assert _chosen(state, 0b11, 0b11) == Direction(0, False)
    if rule != "johnson":  # Johnson's record stamps only the move's opposite
        with pytest.raises(CubeError, match="is not in the"):
            state.record(0b11, direction_bit(Direction(1, False)))


def _reference_jsonl(trace) -> list[str]:
    """The lines of a trace file as one json.dumps per record."""
    records = []
    history = trace.history or [None] * len(trace)
    for t, (v, d, h) in enumerate(zip(trace.vertices(), directions(trace), history), 1):
        rec = {"t": t, "vertex": vertex_text(v, trace.dimension),
               "dir": direction_text(direction_bit(d), trace.bundle_size)}
        if h is not None:
            rec["h"] = h
        records.append(rec)
    final = {"sink": vertex_text(trace.end, trace.dimension), "length": len(trace),
             "rule": trace.rule, "start": vertex_text(trace.start, trace.dimension)}
    if trace.final_history is not None:
        final["h"] = trace.final_history
    records.append(final)
    return [json.dumps(rec, sort_keys=True) for rec in records]


def test_trace_writer_matches_json_dumps(built_levels, tmp_path):
    """Every line the writer emits, history snapshots included, equals
    json.dumps(record, sort_keys=True)."""
    path = tmp_path / "t.jsonl"
    traces = [trace for chain in built_levels.values() for _, trace in chain]
    for trace in traces:
        write_trace_jsonl(trace, path)
        assert path.read_text(encoding="utf-8").splitlines() == _reference_jsonl(trace)
    assert sum(trace.final_history is not None for trace in traces) == len(traces) - 1


# Traces of levels above HISTORY_SNAPSHOT_MAX_DIM carry no history, so the
# golden digests (all n <= 16) do not cover their writer path.
NO_HISTORY_TRACE_DIGEST = (
    "27564ac9232d7b929450809bdb80fbf392a1e14540a97e83229eb2829911385f")


def test_no_history_trace_digest(tmp_path):
    digest = hashlib.sha256()
    for family, lo, hi in (("cunningham", 4, 5), ("zadeh", 2, 3)):
        for level, trace in realize_range(family, hi)[lo:]:
            assert trace.final_history is None and 18 <= level.dimension <= 24
            path = tmp_path / f"{family}_level{level.level}.jsonl"
            write_trace_jsonl(trace, path)
            assert path.read_text(encoding="utf-8").splitlines() == _reference_jsonl(trace)
            digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == NO_HISTORY_TRACE_DIGEST
