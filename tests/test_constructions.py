import itertools
import json
import random
import shutil
import tracemalloc

import numpy as np
import pytest

from ausokit import constructions, frame_store
from ausokit.combinators import MemoOracle, ProductOracle, materialize
from ausokit.constructions import (
    BOX1_POSITION,
    BOX5_POSITION,
    BUNDLE_SIZE,
    DEFAULT_FRAME,
    GADGET_ANCHOR,
    GADGET_EXTERNAL,
    HYPERSINK_POSITION,
    ConstructionError,
    ConstructionLevel,
    FrameConflictError,
    FrameValidationError,
    _cache_chunks,
    _read_cache,
    _Unassigned,
    build_reset,
    realize_level,
    realize_range,
    rule_state,
    starting_vertex,
    tie_list,
)
from ausokit.cube_core import Direction, TableOracle, UniformOracle, vertex_text
from ausokit.frame_store import (
    FAMILY_FRAMES,
    frame_file_sha256,
    load_family,
    packaged_frames_dir,
    resolve_frames_dir,
)
from ausokit.pivot_engine import is_saturated, replay, run_to_sink, write_trace_jsonl
from ausokit.verifier import check_acyclic, check_trace_properties, check_uso_exhaustive
from reference import record


def _d(bundle, k, positive, size=4):
    return Direction(bundle * size + k - 1, positive)


def test_tie_list_cunningham_level0():
    want = [_d(0, 1, True), _d(0, 2, False), _d(0, 3, True), _d(0, 1, False),
            _d(0, 4, True), _d(0, 3, False), _d(0, 2, True), _d(0, 4, False)]
    assert tie_list("cunningham", 0) == want


def test_tie_list_zadeh():
    t0 = tie_list("zadeh", 0)
    want = [_d(0, 1, True, 6), _d(0, 2, False, 6), _d(0, 3, True, 6),
            _d(0, 1, False, 6), _d(0, 4, True, 6), _d(0, 3, False, 6),
            _d(0, 5, True, 6), _d(0, 4, False, 6), _d(0, 6, True, 6),
            _d(0, 5, False, 6), _d(0, 2, True, 6), _d(0, 6, False, 6)]
    assert t0 == want
    t1 = tie_list("zadeh", 1)
    assert len(t1) == 24
    assert t1[:12] == t0
    assert all(d.coord >= 6 for d in t1[12:])


def test_tie_list_rejects_johnson():
    with pytest.raises(ConstructionError):
        tie_list("johnson", 1)


def test_starting_vertices():
    assert starting_vertex("johnson", 0) == 0
    assert starting_vertex("johnson", 4) == 0
    assert starting_vertex("cunningham", 1) == (1 << 1) | (1 << 5)
    assert starting_vertex("zadeh", 0) == 1 << 1


def test_build_reset_r1_matches_transcription(johnson_frames):
    _, r1 = johnson_frames["r1"]
    built = build_reset(1, r1)
    assert materialize(built).table == r1.table


def test_build_reset_r2_walk_and_structure(johnson_frames):
    r2 = build_reset(2, johnson_frames["r1"][1])
    assert r2.dimension == 8
    v = 0b1001 | (0b1001 << 4)  # {c_0^1, c_0^4, c_1^1, c_1^4}
    used = []
    while v:
        out = r2.evaluate(v)
        assert bin(out).count("1") == 1
        used.append(out.bit_length() - 1)
        v ^= out
    assert used == [0, 3, 4, 7]  # -c_0^1, -c_0^4, -c_1^1, -c_1^4
    table = materialize(r2)
    assert check_uso_exhaustive(table).passed
    assert check_acyclic(table).passed


def test_build_reset_evaluate_many(johnson_frames):
    for level in range(4):
        oracle = build_reset(level, johnson_frames["r1"][1])
        size = 1 << oracle.dimension
        got = oracle.evaluate_many(np.arange(size, dtype=np.uint64))
        assert got.tolist() == [oracle.evaluate(v) for v in range(size)]


@pytest.mark.parametrize("family, top", [("cunningham", 11), ("johnson", 10),
                                         ("zadeh", 7)])
def test_top_level_evaluate_many(family, top):
    """The deepest levels (n = 48, 44, 48): every vertex of the path, which
    meets the assigned frames, and random vertices, half with the top bit."""
    level, trace = realize_level(family, top)
    n = level.dimension
    rng = random.Random(n)
    vs = trace.vertices() + [rng.getrandbits(n - 1) | (rng.getrandbits(1) << (n - 1))
                             for _ in range(20000)]
    got = level.oracle.evaluate_many(np.array(vs, dtype=np.uint64))
    assert got.tolist() == [level.oracle.evaluate(v) for v in vs]


def test_realize_base_cases(built_levels):
    assert built_levels["cunningham"][0][0].path_length == 5
    assert built_levels["johnson"][0][0].path_length == 6
    assert built_levels["zadeh"][0][0].path_length == 20


def test_johnson_level1_projection_and_growth(built_levels):
    level0, trace0 = built_levels["johnson"][0]
    level1, trace1 = built_levels["johnson"][1]
    assert level1.dimension == 8
    assert len(trace1) > 2 * len(trace0)
    inner = [d for d in trace1.directions() if d.coord < 4]
    assert inner[:len(trace0)] == trace0.directions()
    assert inner[-len(trace0):] == trace0.directions()


def test_zadeh_level1_imbalanced_set(built_levels):
    from ausokit.pivot_engine import balance_of
    level1, trace1 = built_levels["zadeh"][1]
    assert level1.dimension == 12
    state = rule_state("zadeh", 1)
    for _ in replay(trace1, state):
        pass
    im = {Direction(j * 6 + k, False) for j in (0, 1) for k in (2, 3, 4, 5)}
    for d in state.tie_list:
        assert balance_of(state, d) == (1 if d in im else 0)


def test_replay_fixpoint(built_levels):
    for family, chain in built_levels.items():
        for level, trace in chain[:3]:
            again = run_to_sink(level.oracle, level.start, family,
                                rule_state(family, level.level),
                                bundle_size=level.bundle_size)
            assert again.directions() == trace.directions()
            assert again.end == trace.end == level.expected_sink


FIXTURE_CHAINS = [("cunningham", 3), ("johnson", 3), ("zadeh", 2)]


@pytest.mark.parametrize("family, top", FIXTURE_CHAINS)
def test_level_cache_roundtrip(tmp_path, family, top):
    cache = tmp_path / "caches"
    first = realize_range(family, top, cache_dir=cache)
    files = sorted(p.name for p in cache.glob("*.json"))
    assert files == [f"{family}_level{i}.json" for i in range(top + 1)]
    payload = json.loads((cache / f"{family}_level1.json").read_text())
    assert payload["path_length"] == first[1][0].path_length
    assert set(payload["frame_files"]) == set(FAMILY_FRAMES[family])
    assert all(len(h) == 64 for h in payload["frame_files"].values())
    before = {p.name: p.read_bytes() for p in cache.glob("*.json")}
    second = realize_range(family, top, cache_dir=cache)
    after = {p.name: p.read_bytes() for p in cache.glob("*.json")}
    assert before == after  # rerun over existing caches is a no-op
    built, reloaded = tmp_path / "built.jsonl", tmp_path / "reloaded.jsonl"
    for (a, ta), (b, tb) in zip(first, second):
        write_trace_jsonl(ta, built)
        write_trace_jsonl(tb, reloaded)
        assert built.read_bytes() == reloaded.read_bytes()
        assert a.assignments == b.assignments


@pytest.mark.parametrize("family, top", FIXTURE_CHAINS)
def test_one_run_per_level(tmp_path, monkeypatch, family, top):
    """A built level is run once, by the adversary; a reloaded level is run
    once, on the frames its cache records."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return run_to_sink(*args, **kwargs)

    monkeypatch.setattr("ausokit.constructions.run_to_sink", counting)
    for _ in ("build", "reload"):
        calls.clear()
        realize_range(family, top, cache_dir=tmp_path)
        assert len(calls) == top + 1


@pytest.mark.parametrize("family, top", FIXTURE_CHAINS)
@pytest.mark.parametrize("cached", [False, True], ids=["build", "reload"])
def test_levels_below_the_top_pair_are_frozen(tmp_path, family, top, cached):
    """After realize_range, built in memory or reloaded, every memo below
    the top, the top pair's lower one included, is frozen on its level's
    path (bound to it, holding its |P| + 1 outmaps) and the top's memo holds
    nothing, also once read; every product above level 1 holds one assigned frame byte per
    position of the path below it and nothing off it (level 1's inner is
    the base frame, which has no memo)."""
    if cached:
        realize_range(family, top, cache_dir=tmp_path)
    chain = realize_range(family, top, cache_dir=tmp_path if cached else None)
    level, trace = chain[-1]
    assert all(level.oracle.evaluate(v) for v in trace.vertices()[:-1])
    for (lower, lower_trace), (level, trace) in zip(chain, chain[1:]):
        assert (level.oracle.moves is not None) == (level.level < top)
        assert len(level.oracle.outmaps) == (len(trace) + 1 if level.level < top else 0)
        if level.level > 1:
            assert level.product.lower is lower.oracle
            assert len(level.product.rows) == len(lower_trace) + 1
            assert all(level.product.rows) and not level.product.side
        else:
            assert not level.product.rows and level.product.side


def test_one_frame_read_per_realize_range(monkeypatch):
    """realize_range reads the frame files once: the gate checks the frames
    the levels are built from, through frame_store.validate_family."""
    reads, gates = [], []
    load_family, validate_family = frame_store.load_family, frame_store.validate_family

    def counting_load(*args, **kwargs):
        reads.append(args)
        return load_family(*args, **kwargs)

    def counting_gate(*args, **kwargs):
        gates.append(args)
        return validate_family(*args, **kwargs)

    for module in (frame_store, constructions):
        monkeypatch.setattr(module, "load_family", counting_load)
        monkeypatch.setattr(module, "validate_family", counting_gate)
    for family in sorted(BUNDLE_SIZE):
        reads.clear()
        gates.clear()
        realize_range(family, 1)
        assert len(reads) == 1 and len(gates) == 1


def test_wide_cache_record_roundtrip(tmp_path, cunningham_frames):
    """A record of inner dimension 56 with keys at and above 2^53, on the
    inner memo's path and off it, is written from the product's columns
    and read back onto the same path positions and side keys, exactly."""
    frames = {name: oracle for name, (_, oracle) in cunningham_frames.items()}
    names = {oracle: name for name, oracle in frames.items()}
    hashes = {name: spec.sha256 for name, (spec, _) in cunningham_frames.items()}
    inner = MemoOracle(UniformOracle(56, 0))
    walk = [(1 << 53) + 1, (1 << 53) + 3, 3, 2, (1 << 55) | 2]
    record(inner, walk)
    overrides = {(1 << 53) + 1: frames["f1"], (1 << 54) + (1 << 53): frames["f2"],
                 (1 << 55) | 5: frames["f2"], (1 << 56) - 1: frames["f1"], 3: frames["f2"],
                 (1 << 55) | 2: frames["f3"]}
    product = ProductOracle(inner, frames["f3"], overrides)
    level = ConstructionLevel("cunningham", 14, 60, oracle=product, start=1 << 59,
                              expected_sink=0, path_length=7, product=product,
                              frame_names=names, default_frame="f3")
    path = tmp_path / "cunningham_level14.json"
    path.write_text("".join(_cache_chunks(level, hashes)), encoding="utf-8")
    record_read = json.loads(path.read_text(encoding="utf-8"))
    assert record_read["assignments"] == {vertex_text(v, 56): names[f]
                                          for v, f in overrides.items()}
    read = ProductOracle(inner, frames["f3"])
    assert _read_cache(path, "cunningham", 14, frames, hashes, read) == (1 << 59, 0, 7)
    assert dict(read.items()) == overrides
    assert [read.frames[row] for row in read.rows] == [product.frames[row]
                                                        for row in product.rows]
    assert {v: read.frames[row] for v, row in read.side.items()} == {
        v: f for v, f in overrides.items() if v not in walk}


def test_cache_write_is_atomic(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("ausokit.constructions.os.replace", fail)
    with pytest.raises(OSError):
        realize_range("zadeh", 1, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []  # neither a partial file nor a temporary


def _reference_cache_record(level, hashes):
    inner_dim = level.dimension - BUNDLE_SIZE[level.family]
    return {
        "family": level.family,
        "level": level.level,
        "dimension": level.dimension,
        "start": vertex_text(level.start, level.dimension),
        "sink": vertex_text(level.expected_sink, level.dimension),
        "path_length": level.path_length,
        "assignments": {vertex_text(v, inner_dim): name
                        for v, name in level.assignments.items()},
        "default_frame": level.default_frame,
        "gadget_anchor": vertex_text(level.gadget_anchor, level.dimension),
        "frame_files": hashes,
    }


def test_cache_writer_matches_json_dumps(built_levels, tmp_path):
    """Every cache file of the fixture chains, level 0's empty assignments
    included, is json.dumps(record, indent=2, sort_keys=True) + "\n" of the
    record rebuilt from the level."""
    for family, chain in built_levels.items():
        realize_range(family, len(chain) - 1, cache_dir=tmp_path)
        frames_dir = resolve_frames_dir(None)
        hashes = {stem: frame_file_sha256(frames_dir / f"{family}_{stem}.frame")
                  for stem in FAMILY_FRAMES[family]}
        for level, _ in chain:
            record = _reference_cache_record(level, hashes)
            assert bool(record["assignments"]) == (level.level > 0)
            path = tmp_path / f"{family}_level{level.level}.json"
            assert path.read_text(encoding="utf-8") == json.dumps(
                record, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("block", [1, 3, 1 << 8, 1 << 12])
def test_cache_chunks_hold_at_most_a_block(built_levels, tmp_path, monkeypatch, block):
    """Whatever CACHE_WRITE_BLOCK is, every fixture level's record is
    json.dumps(record, indent=2, sort_keys=True) + "\n", no assignment chunk
    holds more than CACHE_WRITE_BLOCK lines, and the files read back."""
    monkeypatch.setattr(constructions, "CACHE_WRITE_BLOCK", block)
    for family, chain in built_levels.items():
        hashes = {stem: spec.sha256 for stem, (spec, _) in load_family(family).items()}
        for level, _ in chain:
            chunks = list(_cache_chunks(level, hashes))
            assert "".join(chunks) == json.dumps(
                _reference_cache_record(level, hashes), indent=2, sort_keys=True) + "\n"
            lines = [chunk.count('\n    "') for chunk in chunks[1:-1]]
            assert sum(lines) == len(level.assignments)
            assert all(1 <= n <= block for n in lines), (family, level.level, lines)
        realize_range(family, len(chain) - 1, cache_dir=tmp_path)
        reloaded = realize_range(family, len(chain) - 1, cache_dir=tmp_path)
        assert [level.assignments for level, _ in reloaded] == [
            level.assignments for level, _ in chain]


def test_cache_keys_refuse_inner_dimension_above_56(tmp_path, cunningham_frames):
    """A vertex text of more than 56 bits leaves no room for the frame row in
    a 64-bit key: the write raises instead of writing wrong bytes, and leaves
    no file.  (No realizable level gets there: the widest, at n = 60, has
    an inner dimension of at most 56.)"""
    frames = {name: oracle for name, (_, oracle) in cunningham_frames.items()}
    names = {oracle: name for name, oracle in frames.items()}
    hashes = {name: spec.sha256 for name, (spec, _) in cunningham_frames.items()}
    product = ProductOracle(UniformOracle(57, 0), frames["f3"], {1 << 56: frames["f1"]})
    level = ConstructionLevel("cunningham", 14, 61, oracle=product, start=0,
                              expected_sink=0, path_length=0, product=product,
                              frame_names=names, default_frame="f3")
    with pytest.raises(ConstructionError, match="56 bits"):
        next(_cache_chunks(level, hashes))
    path = tmp_path / "cunningham_level14.json"
    with pytest.raises(ConstructionError):
        constructions._write_atomic(path, _cache_chunks(level, hashes))
    assert list(tmp_path.iterdir()) == []


def test_cache_write_heap_grows_by_a_key_per_assignment():
    """Streaming a level's record, chunks consumed one at a time, holds one
    8-byte key per lower path position and side key and one block of lines:
    from cunningham level 7 to level 9 the tracemalloc peak grows by under
    12 bytes per key, where level-sized index arrays and 2^12-line chunks
    took about 47."""
    chain = realize_range("cunningham", 9)
    hashes = {stem: spec.sha256 for stem, (spec, _) in load_family("cunningham").items()}

    def peak(level):
        tracemalloc.start()
        try:
            for _ in _cache_chunks(level, hashes):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def keys(level):
        return len(level.product.rows) + len(level.product.side)

    peak(chain[1][0])  # first-use caches
    (low, _), (high, _) = chain[7], chain[9]
    per_key = (peak(high) - peak(low)) / (keys(high) - keys(low))
    assert per_key < 12, per_key


def test_cached_level_serves_same_oracle(tmp_path):
    built, _ = realize_level("zadeh", 1, cache_dir=tmp_path)
    reloaded, _ = realize_level("zadeh", 1, cache_dir=tmp_path)
    for v in range(0, 1 << 12, 17):
        assert built.oracle.evaluate(v) == reloaded.oracle.evaluate(v)


def test_assignments_use_known_frames(built_levels):
    for family, chain in built_levels.items():
        for level, _ in chain[1:]:
            assert level.assignments
            assert set(level.assignments.values()) <= {"f1", "f2", "f3"}


def test_unknown_family_rejected():
    with pytest.raises(ConstructionError):
        realize_level("dantzig", 0)


def test_unassigned_frame_demand_fails_closed(monkeypatch):
    """With box-1 entries skipped by the adversary, the run demands the frame
    of an inner vertex that holds none: the build stops, it does not fall
    back to the default frame."""
    monkeypatch.setitem(HYPERSINK_POSITION, "cunningham", BOX1_POSITION["cunningham"])
    with pytest.raises(ConstructionError, match="unassigned"):
        realize_level("cunningham", 2)


def test_unassigned_frame_map_refuses_batches():
    inner = TableOracle(1, [1, 0])
    product = ProductOracle(inner, _Unassigned(4), {0: TableOracle(4, [0] * 16)})
    with pytest.raises(ConstructionError, match="unassigned"):
        product.evaluate_many(np.arange(32, dtype=np.uint64))


def test_conflicting_frame_demand_fails_closed(monkeypatch):
    """A revisit that demands another frame than the one the inner vertex
    holds aborts the build and names both frames."""
    answers = itertools.cycle((True, False))
    monkeypatch.setattr(constructions, "is_saturated", lambda *args: next(answers))
    with pytest.raises(FrameConflictError) as info:
        realize_level("zadeh", 1)
    assert "f1" in str(info.value) and "f2" in str(info.value)


def test_frames_that_fail_validation_build_nothing(tmp_path):
    """The builder is gated on the family's frame checks: with a cunningham
    frame missing its `label H` line, realize_range and realize_level raise
    naming the failing check, and neither builds a level nor writes a cache."""
    frames = tmp_path / "frames"
    shutil.copytree(packaged_frames_dir(), frames)
    f1 = frames / "cunningham_f1.frame"
    lines = f1.read_text().splitlines(keepends=True)
    f1.write_text("".join(line for line in lines if line.strip() != "label H 1111"))
    cache = tmp_path / "caches"
    for build in (realize_range, realize_level):
        with pytest.raises(FrameValidationError, match="label_H") as info:
            build("cunningham", 3, frames, cache)
        assert [c.name for c in info.value.report.failures()] == ["label_H"]
    assert not cache.exists()


@pytest.mark.parametrize("family", sorted(BUNDLE_SIZE))
def test_builder_geometry_matches_frame_labels(family):
    """The positions and the gadget outmap the builder takes on trust agree
    with the gated frame data."""
    frames = load_family(family)
    labels = frames["f1"][0].labels
    anchor = sum(1 << k for k in GADGET_ANCHOR[family])
    assert anchor == labels["R" if family == "johnson" else "B"]
    external = sum(1 << k for k in GADGET_EXTERNAL[family])
    for name in {"f1", "f2", DEFAULT_FRAME[family]}:
        assert frames[name][1].evaluate(anchor) == external, name
    for table, label in ((BOX1_POSITION, "box1"), (BOX5_POSITION, "box5"),
                         (HYPERSINK_POSITION, "H")):
        if table[family] is not None:
            assert table[family] == labels[label]
    assert starting_vertex(family, 0) == labels["box1"]


def test_cached_off_path_assignment_reloads(tmp_path):
    """A level record that gains one valid assignment line for an inner
    vertex off the lower path reloads with the same run and the same
    verdicts: the frame lands in the product's side dict and answers there."""
    built = realize_range("cunningham", 3, cache_dir=tmp_path)
    lower_path = set(built[1][1].vertices())
    off = next(v for v in range(1 << 8) if v not in lower_path)
    path = tmp_path / "cunningham_level2.json"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    close = lines.index("  },\n")
    block = sorted([line.rstrip(",\n") for line in lines[2:close]]
                   + [f'    "{vertex_text(off, 8)}": "f2"'])
    path.write_text("".join(lines[:2]) + ",\n".join(block) + "\n"
                    + "".join(lines[close:]), encoding="utf-8")
    reloaded = realize_range("cunningham", 3, cache_dir=tmp_path)
    for (a, ta), (b, tb) in zip(built, reloaded):
        assert bytes(ta.moves) == bytes(tb.moves) and (ta.end, len(ta)) == (tb.end, len(tb))
    level, trace = reloaded[2]
    assert level.assignments == {**built[2][0].assignments, off: "f2"}
    assert list(level.product.side) == [off]
    f2 = load_family("cunningham")["f2"][1]
    for o in range(16):
        assert level.product.evaluate(off | o << 8) == (
            built[1][0].oracle.evaluate(off) | f2.evaluate(o) << 8)
    for (lvl, tr), (_, lower) in zip(reloaded[1:], reloaded):
        assert check_trace_properties(lvl, tr, lower).passed
    assert check_uso_exhaustive(level.oracle).passed and check_acyclic(level.oracle).passed


def test_second_walk_demanding_another_frame_conflicts_at_a_path_position(monkeypatch):
    """At zadeh level 2 the inner memo is bound to the lower path, so the
    adversary's frames are bytes at path positions.  A second walk over the
    lower path that decides the other frame raises FrameConflictError on
    the byte held at that position, naming both frames."""
    seen = set()

    def flipping(oracle, v, state, mask):
        got = is_saturated(oracle, v, state, mask)
        if isinstance(oracle, MemoOracle):
            if v in seen:
                return not got
            seen.add(v)
        return got

    monkeypatch.setattr(constructions, "is_saturated", flipping)
    with pytest.raises(FrameConflictError) as info:
        realize_level("zadeh", 2)
    assert "f1" in str(info.value) and "f2" in str(info.value)
    vertex = int(str(info.value).split()[2], 2)
    assert vertex in realize_range("zadeh", 1)[1][1].vertices()


def test_path_bytes_keep_their_first_frame(cunningham_frames):
    """assign() on a bound memo's path vertex, at the cursor or away from
    it, and off the path: the first frame stays and is returned."""
    f1, f2, f3 = (cunningham_frames[name][1] for name in ("f1", "f2", "f3"))
    inner = MemoOracle(UniformOracle(4, 0))
    walk = [0, 1, 3, 7, 15]
    record(inner, walk)
    product = ProductOracle(inner, f3)
    for v in walk[::-1] + [8]:
        assert product.assign(v, f1) is f1
    for v in walk + [8]:
        assert product.assign(v, f2) is f1
    assert list(product.rows) == [1] * 5 and product.side == {8: 1}


@pytest.mark.parametrize("family, levels", [("cunningham", range(2, 8)),
                                            ("johnson", range(2, 8)),
                                            ("zadeh", range(2, 5))])
@pytest.mark.parametrize("cached", [False, True], ids=["build", "reload"])
def test_next_level_reads_the_lower_path_twice_in_order(tmp_path, monkeypatch, family,
                                                        levels, cached):
    """An observation, not a correctness condition: while level i runs, its
    reads of level i - 1's memo (through the product and, for zadeh's
    adversary, directly), with consecutive repeats collapsed, are the
    lower path from start to sink, then again; and realize_range never
    takes the memo's off-cursor search."""
    if cached:
        realize_range(family, levels[-1], cache_dir=tmp_path)
    reads, searches = [], []
    product_evaluate, memo_evaluate = ProductOracle.evaluate, MemoOracle.evaluate
    position = MemoOracle._position

    def product_reading(self, v):
        reads.append((self.lower, v & self.inner_mask))
        return product_evaluate(self, v)

    def memo_reading(self, v):
        if not self.recording:  # not the memo's own level's run
            reads.append((self, v))
        return memo_evaluate(self, v)

    def searching(self, v):
        searches.append(v)
        return position(self, v)

    monkeypatch.setattr(ProductOracle, "evaluate", product_reading)
    monkeypatch.setattr(MemoOracle, "evaluate", memo_reading)
    monkeypatch.setattr(MemoOracle, "_position", searching)
    chain = realize_range(family, levels[-1], cache_dir=tmp_path if cached else None)
    assert searches == []
    for i in levels:
        memo, path = chain[i - 1][0].oracle, chain[i - 1][1].vertices()
        seen = [v for m, v in reads if m is memo]
        collapsed = [v for k, v in enumerate(seen) if k == 0 or seen[k - 1] != v]
        assert collapsed == path + path, (family, i)


def test_cold_build_heap_stays_small():
    """The tracemalloc peak of a cold realize_range("cunningham", 9) stays
    under 2 MB: levels keep path-order columns, 9 bytes per path vertex for
    the memo below and the product above, where per-vertex dicts took
    3.2 MB."""
    realize_range("cunningham", 1)  # imports and first-use caches
    tracemalloc.start()
    try:
        realize_range("cunningham", 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
