"""Acceptance criteria, one test each; every tolerance is exact.

Run with -s to see the per-criterion verdict lines.
"""

import random
import time

import pytest

from ausokit.combinators import ProductOracle, ReorientedOracle
from ausokit.constructions import realize_range, rule_state
from ausokit.cube_core import UniformOracle, direction_text, vertex_text
from ausokit.frame_store import FAMILY, load_family, validate_all
from ausokit.pivot_engine import (
    CunninghamState,
    JohnsonState,
    ZadehState,
    balance_of,
    run_to_sink,
    write_trace_jsonl,
)
from ausokit.verifier import (
    _face_count_uso,
    _pairwise_uso,
    check_acyclic,
    check_growth,
    check_trace_properties,
    check_uso_sampled,
    outmap_table,
)
from directions import DIRECTIONS, Direction, directions

LEVEL_RANGES = (("cunningham", 5), ("johnson", 5), ("zadeh", 3))


@pytest.fixture(scope="module")
def chains():
    return {family: realize_range(family, top) for family, top in LEVEL_RANGES}


def _verdict(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


def _best_time(fn, repeats=3):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


JOHNSON_TABLE = [
    ("0000", "+0.1", {"+0.1": 1, "+0.2": 0, "+0.3": 0, "+0.4": 0,
                      "-0.1": 1, "-0.2": 1, "-0.3": 1, "-0.4": 1}),
    ("1000", "+0.2", {"+0.1": 2, "+0.2": 2, "+0.3": 0, "+0.4": 0,
                      "-0.1": 1, "-0.2": 2, "-0.3": 2, "-0.4": 2}),
    ("1100", "+0.3", {"+0.1": 3, "+0.2": 3, "+0.3": 3, "+0.4": 0,
                      "-0.1": 1, "-0.2": 2, "-0.3": 3, "-0.4": 3}),
    ("1110", "+0.4", {"+0.1": 4, "+0.2": 4, "+0.3": 4, "+0.4": 4,
                      "-0.1": 1, "-0.2": 2, "-0.3": 3, "-0.4": 4}),
    ("1111", "-0.3", {"+0.1": 5, "+0.2": 5, "+0.3": 5, "+0.4": 5,
                      "-0.1": 1, "-0.2": 2, "-0.3": 5, "-0.4": 4}),
    ("1101", "-0.2", {"+0.1": 6, "+0.2": 6, "+0.3": 5, "+0.4": 6,
                      "-0.1": 1, "-0.2": 6, "-0.3": 6, "-0.4": 4}),
]
JOHNSON_FINAL = ("1001", {"+0.1": 7, "+0.2": 6, "+0.3": 5, "+0.4": 7,
                          "-0.1": 1, "-0.2": 7, "-0.3": 7, "-0.4": 4})


def test_criterion_1_johnson_example_table():
    f1 = load_family("johnson")["f1"]

    def run():
        return run_to_sink(f1, 0, "johnson",
                           JohnsonState(FAMILY["johnson"].tie_order(0)), bundle_size=4)

    trace, elapsed = _best_time(run)
    ok = len(trace) == 6
    for v, b, history, (bits, d, hist) in zip(
            trace.vertices(), trace.moves, trace.history, JOHNSON_TABLE):
        ok = ok and vertex_text(v, 4) == bits
        ok = ok and direction_text(b, 4) == d
        ok = ok and history == hist
    ok = ok and vertex_text(trace.end, 4) == JOHNSON_FINAL[0]
    ok = ok and trace.final_history == JOHNSON_FINAL[1]
    ok = ok and elapsed < 1e-3
    _verdict("1 (johnson example table)", ok, f"runtime {elapsed*1e6:.0f}us")


def test_criterion_2_cunningham_base_case():
    f3 = load_family("cunningham")["f3"]

    def run():
        return run_to_sink(f3, 0b0010, "cunningham",
                           CunninghamState(FAMILY["cunningham"].tie_order(0)),
                           bundle_size=4)

    trace, elapsed = _best_time(run)
    want = [Direction(0, True), Direction(2, True), Direction(0, False),
            Direction(3, True), Direction(0, True)]
    ok = directions(trace) == want and len(trace) == 5
    ok = ok and trace.end == 0b1111 and not f3.evaluate(trace.end)
    ok = ok and elapsed < 1e-3
    _verdict("2 (cunningham base case)", ok, f"runtime {elapsed*1e6:.0f}us")


def test_criterion_3_zadeh_base_case():
    a0 = load_family("zadeh")["a0"]

    def run():
        st = ZadehState(FAMILY["zadeh"].tie_order(0))
        return run_to_sink(a0, a0.spec.labels["box1"], "zadeh", st, bundle_size=6), st

    (trace, state), elapsed = _best_time(run)
    ok = trace.vertices() == [a0.spec.labels[f"box{i}"] for i in range(1, 22)]
    im = {Direction(k, False) for k in (2, 3, 4, 5)}
    ok = ok and all(balance_of(state, b) == (1 if DIRECTIONS[b] in im else 0)
                    for b in state.tie_list)
    ok = ok and elapsed < 1e-3
    _verdict("3 (zadeh base case)", ok, f"runtime {elapsed*1e6:.0f}us")


def test_criterion_4_growth_recursions(chains):
    t0 = time.perf_counter()
    ok = True
    detail = []
    for family, top in LEVEL_RANGES:
        lengths = [(lv.level, lv.dimension, lv.path_length)
                   for lv, _ in chains[family]]
        report = check_growth(lengths, FAMILY[family].bundle_size)
        ok = ok and report.passed
        detail.append(f"{family}:{[p for _, _, p in lengths]}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    _verdict("4 (growth recursions)", ok, f"{'; '.join(detail)} in {elapsed:.1f}s")


def test_criterion_5_structural_verification(chains):
    t0 = time.perf_counter()
    ok = True
    for family, _ in LEVEL_RANGES:
        for level, _ in chains[family]:
            n = level.dimension
            if n <= 12:
                # definitional face-sink count is the ground truth
                ok = ok and _face_count_uso(outmap_table(level.oracle), n)[0]
            if n <= 20:
                ok = ok and check_acyclic(level.oracle).passed
            rep = check_uso_sampled(level.oracle, 10000, 8, seed=7)
            ok = ok and rep.passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1800
    _verdict("5 (structural verification)", ok, f"{elapsed:.1f}s")


def test_criterion_6_property_suites(chains):
    rng = random.Random(2024)
    frames = []
    for family in ("cunningham", "johnson", "zadeh"):
        frames.extend(load_family(family).values())
    four_dim = [f for f in frames if f.dimension == 4]
    ok = True
    # 1000 randomized compositions at total dimension <= 10
    for i in range(500):
        inner = rng.choice(frames)
        overrides = {v: rng.choice(four_dim) for v in range(1 << inner.dimension)}
        combined = ProductOracle(inner, rng.choice(four_dim), overrides)
        ok = ok and _pairwise_uso(outmap_table(combined), combined.dimension)[0]
        ok = ok and check_acyclic(combined).passed
    # Uniform bases with a random sink, the low 4-face at a random anchor
    # reoriented: a coordinate permutation maps a uniform orientation to a
    # uniform one, so these are the cases of any 4-face.
    for i in range(500):
        n = rng.choice((8, 10))
        base = UniformOracle(n, rng.getrandbits(n))
        anchor = rng.getrandbits(n) & ~0b1111
        out = ReorientedOracle(base, anchor, rng.choice(four_dim),
                               base.evaluate(anchor) & ~0b1111)
        ok = ok and _pairwise_uso(outmap_table(out), n)[0]
        ok = ok and check_acyclic(out).passed
    _verdict("6a (combinator preservation, 1000 compositions)", ok)
    # family behavioral suites on every built level
    ok = True
    for family, _ in LEVEL_RANGES:
        prev = None
        for level, trace in chains[family]:
            rep = check_trace_properties(level, trace, prev)
            ok = ok and rep.passed
            prev = trace
    _verdict("6b (balance/saturation, reset ordering, projections)", ok)


def test_criterion_7_determinism_and_replay(chains, tmp_path):
    ok = True
    for family, _ in LEVEL_RANGES:
        for level, trace in chains[family]:
            # Above the base the re-run goes below the level's memo, so it
            # recomputes every outmap it reads on the finished product; the
            # memo, which the next level's run read, must agree with it.
            oracle = level.oracle.base if level.level else level.oracle
            if level.level:
                ok = ok and all(oracle.evaluate(v) == out
                                for v, out in level.oracle.entries())
            again = run_to_sink(oracle, level.start, family,
                                rule_state(family, level.level),
                                bundle_size=level.bundle_size,
                                record_history=level.dimension <= 16)
            a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
            write_trace_jsonl(trace, a)
            write_trace_jsonl(again, b)
            ok = ok and a.read_bytes() == b.read_bytes()
    # johnson: a run with history recorded and one without take the same
    # moves, on the base case and the level-1 construction
    base = load_family("johnson")["f1"]
    lvl1 = chains["johnson"][1][0]
    for oracle, start, bundles in ((base, 0, 1), (lvl1.oracle, lvl1.start, 2)):
        recorded, unrecorded = (run_to_sink(
            oracle, start, "johnson", JohnsonState(FAMILY["johnson"].tie_order(bundles - 1)),
            bundle_size=4, record_history=record) for record in (True, False))
        ok = ok and recorded.history is not None and recorded.moves == unrecorded.moves
    _verdict("7 (determinism / replay)", ok)


def test_criterion_8_frame_transcription_gate():
    report = validate_all()
    _verdict("8 (frame transcription gate)", report.passed,
             f"{len(report.checks)} constraints")
