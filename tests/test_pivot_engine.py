import pytest

from ausokit.cube_core import Direction, TableOracle, direction_text, uniform_oracle
from ausokit.frame_store import johnson_tie_order, tie_pattern_zadeh
from ausokit.pivot_engine import (
    CunninghamState,
    JohnsonState,
    OracleInconsistencyError,
    SinkReached,
    StepLimitExceeded,
    ZadehState,
    balance_of,
    cunningham_step,
    is_saturated,
    read_trace_jsonl,
    replay,
    run_to_sink,
    write_trace_jsonl,
    zadeh_step,
)
from ausokit.constructions import realize_range, tie_list


def _dirs(pattern, bundle=0, size=4):
    out = []
    for item in pattern.split(","):
        out.append(Direction(bundle * size + int(item[1:]) - 1, item[0] == "+"))
    return out


def test_cunningham_base_case_run(cunningham_frames):
    _, f3 = cunningham_frames["f3"]
    st = CunninghamState(tuple(tie_list("cunningham", 0)))
    trace = run_to_sink(f3, 0b0010, "cunningham", st, bundle_size=4)
    assert trace.directions() == _dirs("+1,+3,-1,+4,+1")
    assert len(trace) == 5
    assert trace.end == 0b1111


def test_cunningham_first_steps_skip_unavailable(cunningham_frames):
    _, f3 = cunningham_frames["f3"]
    st = CunninghamState(tuple(tie_list("cunningham", 0)))
    d, v = cunningham_step(f3, 0b0010, st)
    assert d == Direction(0, True)
    d, v = cunningham_step(f3, v, st)
    assert d == Direction(2, True)  # -c^2 was not available


def test_cunningham_marker_tracks_used_direction(cunningham_frames):
    _, f3 = cunningham_frames["f3"]
    st = CunninghamState(tuple(tie_list("cunningham", 0)))
    v = 0b0010
    while f3.evaluate(v):
        d, v = cunningham_step(f3, v, st)
        assert st.order[st.marker - 1] == d


def test_cunningham_step_at_sink_raises(cunningham_frames):
    _, f3 = cunningham_frames["f3"]
    with pytest.raises(SinkReached):
        cunningham_step(f3, 0b1111, CunninghamState(tuple(tie_list("cunningham", 0))))


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
    st = JohnsonState(tuple(johnson_tie_order(1)))
    trace = run_to_sink(f1, 0, "johnson", st, bundle_size=4)
    assert len(trace) == 6
    for step, (bits, d, pos, neg) in zip(trace.steps, JOHNSON_TABLE):
        assert vertex_text(step.vertex, 4) == bits
        sign, k = d[0], int(d[1])
        assert step.direction == Direction(k - 1, sign == "+")
        for k in range(4):
            assert step.history[f"+0.{k+1}"] == pos[k]
            assert step.history[f"-0.{k+1}"] == neg[k]
    bits, pos, neg = JOHNSON_FINAL
    assert trace.end == parse_vertex(bits)
    for k in range(4):
        assert trace.final_history[f"+0.{k+1}"] == pos[k]
        assert trace.final_history[f"-0.{k+1}"] == neg[k]


def test_johnson_dual_mode_same_directions(johnson_frames):
    _, f1 = johnson_frames["f1"]
    a = run_to_sink(f1, 0, "johnson", JohnsonState(tuple(johnson_tie_order(1))),
                    bundle_size=4)
    b = run_to_sink(f1, 0, "johnson",
                    JohnsonState(tuple(johnson_tie_order(1)), arrival_update=False),
                    bundle_size=4)
    assert a.directions() == b.directions()
    # the recorded snapshots differ, the choices never do
    assert a.steps[0].history != b.steps[0].history


def test_zadeh_base_case_walk(zadeh_frames):
    spec, a0 = zadeh_frames["a0"]
    st = ZadehState(tuple(tie_pattern_zadeh(0)))
    trace = run_to_sink(a0, spec.labels["box1"], "zadeh", st, bundle_size=6)
    assert len(trace) == 20
    assert trace.vertices() == [spec.labels[f"box{i}"] for i in range(1, 22)]
    for k in (2, 3, 4, 5):  # -c^3 .. -c^6
        assert balance_of(st, Direction(k, False)) == 1
    for d in st.tie_list:
        if not (not d.positive and d.coord >= 2):
            assert balance_of(st, d) == 0


def test_zadeh_two_cube_tie_break():
    # both directions unused: the tie list decides; hand-simulated
    o = uniform_oracle(2, 0)
    tie = (Direction(0, True), Direction(0, False), Direction(1, True),
           Direction(1, False))
    st = ZadehState(tie)
    trace = run_to_sink(o, 0b11, "zadeh", st, bundle_size=2)
    assert trace.directions() == [Direction(0, False), Direction(1, False)]


def test_zadeh_usage_conservation(zadeh_frames):
    spec, a0 = zadeh_frames["a0"]
    st = ZadehState(tuple(tie_pattern_zadeh(0)))
    v = spec.labels["box1"]
    steps = 0
    while a0.evaluate(v):
        _, v = zadeh_step(a0, v, st)
        steps += 1
        assert sum(st.usage.values()) == steps


def test_all_rules_take_n_steps_from_antisink():
    for n in (3, 5):
        anti = (1 << n) - 1
        o = uniform_oracle(n, 0)
        cunn = CunninghamState(tuple(
            d for c in range(n) for d in (Direction(c, True), Direction(c, False))))
        assert len(run_to_sink(o, anti, "cunningham", cunn, bundle_size=n)) == n
        john = JohnsonState(tuple(johnson_tie_order(1, bundle_size=n)))
        assert len(run_to_sink(o, anti, "johnson", john, bundle_size=n)) == n
        zad = ZadehState(tuple(
            d for c in range(n) for d in (Direction(c, True), Direction(c, False))))
        assert len(run_to_sink(o, anti, "zadeh", zad, bundle_size=n)) == n


def test_determinism_identical_traces(zadeh_frames):
    spec, a0 = zadeh_frames["a0"]
    runs = [run_to_sink(a0, spec.labels["box1"], "zadeh",
                        ZadehState(tuple(tie_pattern_zadeh(0))), bundle_size=6)
            for _ in range(2)]
    assert runs[0].directions() == runs[1].directions()
    assert [s.history for s in runs[0].steps] == [s.history for s in runs[1].steps]


def test_step_limit_flags_cycle():
    cyclic = TableOracle(2, [0b01, 0b10, 0b10, 0b01])
    st = CunninghamState((Direction(0, True), Direction(1, True),
                          Direction(0, False), Direction(1, False)))
    with pytest.raises(StepLimitExceeded) as exc:
        run_to_sink(cyclic, 0, "cunningham", st, step_limit=50, bundle_size=2)
    assert len(exc.value.partial.steps) == 50


def test_inconsistent_oracle_detected():
    class Flaky:
        dimension = 2

        def __init__(self):
            self.calls = 0

        def evaluate(self, v):
            self.calls += 1
            return 0b01 if self.calls % 2 else 0b10

    st = CunninghamState((Direction(0, True), Direction(1, True),
                          Direction(0, False), Direction(1, False)))
    with pytest.raises(OracleInconsistencyError):
        run_to_sink(Flaky(), 0, "cunningham", st, bundle_size=2)


def test_balance_of_fresh_and_scoped():
    st = ZadehState(tuple(tie_pattern_zadeh(0)))
    for d in st.tie_list:
        assert balance_of(st, d) == 0
    st.usage[Direction(0, True)] = 3
    st.usage[Direction(1, True)] = 1
    assert balance_of(st, Direction(1, True)) == 2
    assert balance_of(st, Direction(1, True),
                      scope=[Direction(1, True), Direction(2, True)]) == 0


def test_is_saturated_fresh_state(zadeh_frames):
    _, a0 = zadeh_frames["a0"]
    st = ZadehState(tuple(tie_pattern_zadeh(0)))
    assert is_saturated(a0, 0b000010, st, st.tie_list)


def test_is_saturated_at_box12_not_at_box2(zadeh_frames):
    spec, a0 = zadeh_frames["a0"]
    st = ZadehState(tuple(tie_pattern_zadeh(0)))
    v = spec.labels["box1"]
    for i in range(11):
        _, v = zadeh_step(a0, v, st)
        if i == 0:
            # after one step some imbalanced direction is available
            assert not is_saturated(a0, v, st, st.tie_list)
    assert v == spec.labels["box12"]
    assert is_saturated(a0, v, st, st.tie_list)


def test_trace_jsonl_roundtrip(tmp_path, johnson_frames):
    _, f1 = johnson_frames["f1"]
    trace = run_to_sink(f1, 0, "johnson", JohnsonState(tuple(johnson_tie_order(1))),
                        bundle_size=4)
    path = tmp_path / "t.jsonl"
    write_trace_jsonl(trace, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(trace) + 1  # final record carries sink and length
    again = read_trace_jsonl(path, 4)
    assert again.directions() == trace.directions()
    assert again.end == trace.end
    assert [s.history for s in again.steps] == [s.history for s in trace.steps]


def test_rules_terminate_within_2n_from_every_start(cunningham_frames,
                                                    johnson_frames, zadeh_frames):
    # acyclic oracles: every start reaches the sink within 2^n steps
    frames = [cunningham_frames["f3"][1], johnson_frames["f1"][1],
              zadeh_frames["a0"][1]]
    for oracle in frames:
        n = oracle.dimension
        for start in range(1 << n):
            pairs = [(Direction(c, s), None) for c in range(n)
                     for s in (True, False)]
            order = tuple(d for d, _ in pairs)
            for rule, state in (
                    ("cunningham", CunninghamState(order)),
                    ("johnson", JohnsonState(tuple(johnson_tie_order(1, bundle_size=n)))),
                    ("zadeh", ZadehState(order))):
                trace = run_to_sink(oracle, start, rule, state,
                                    step_limit=1 << n, bundle_size=n,
                                    record_history=False)
                assert len(trace) <= 1 << n


def test_history_snapshots_off_beyond_dim16():
    from ausokit.constructions import realize_level, rule_state
    level, _ = realize_level("zadeh", 2)  # n = 18
    trace = run_to_sink(level.oracle, level.start, "zadeh",
                        rule_state("zadeh", 2), bundle_size=6)
    assert all(s.history is None for s in trace.steps)


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
            counts = replayed.last_step if family == "johnson" else replayed.usage
            assert trace.final_history == {direction_text(d, level.bundle_size): c
                                           for d, c in counts.items()}
