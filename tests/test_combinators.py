import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ausokit import constructions
from ausokit.combinators import (
    FRAME_TABLE_MAX_DIM,
    TABLE_MAX_DIM,
    CombinatorError,
    MemoOracle,
    ProductOracle,
    ReorientedOracle,
)
from ausokit.constructions import (
    ConstructionError,
    cache_path,
    realize_range,
)
from ausokit.cube_core import Face, TableOracle, UniformOracle, parse_vertex
from ausokit.frame_store import FAMILY, load_family
from ausokit.pivot_engine import run_to_sink
from ausokit.verifier import _pairwise_uso, check_acyclic, check_uso_exhaustive, outmap_table
from reference import DictProduct, record
from test_verifier import _Counting


def test_product_of_uniform_1cubes_is_uniform_2cube():
    inner = UniformOracle(1, 0)
    combined = ProductOracle(inner, UniformOracle(1, 0))
    reference = UniformOracle(2, 0)
    assert all(combined.evaluate(v) == reference.evaluate(v) for v in range(4))


def test_product_dimension_mismatch():
    """Frames of another outer dimension than the default's are refused."""
    with pytest.raises(CombinatorError, match="outer dimension"):
        ProductOracle(UniformOracle(2, 0), UniformOracle(1, 0), {3: UniformOracle(2, 0)})


def test_product_random_frame_pairs(cunningham_frames, johnson_frames):
    """500 random assignments of transcribed 4-frames over inner F1: the
    8-cube product must stay an acyclic USO."""
    pool = [cunningham_frames[n][1] for n in ("f1", "f2", "f3")]
    pool += [johnson_frames[n][1] for n in ("f1", "f2", "r1")]
    inner = cunningham_frames["f1"][1]
    rng = random.Random(99)
    for _ in range(500):
        overrides = {v: rng.choice(pool) for v in range(16)}
        combined = ProductOracle(inner, rng.choice(pool), overrides)
        assert _pairwise_uso(outmap_table(combined), 8)[0]
        assert check_acyclic(combined).passed


def test_external_outmap_uniform_gadget_faces(built_levels):
    """Before the gadget reorientation, the gadget faces of the level-1
    products show one shared external outmap, read in one batch."""
    for family, want_bits in (("cunningham", (0,)), ("johnson", (1,)), ("zadeh", (3, 4, 5))):
        level1 = built_levels[family][1][0]
        product = level1.oracle.base.base  # MemoOracle -> ReorientedOracle -> product
        assert isinstance(product, ProductOracle)
        inner_dim = level1.dimension - level1.bundle_size
        anchor = FAMILY[family].gadget_anchor << inner_dim
        face = np.arange(1 << inner_dim, dtype=np.uint64) | np.uint64(anchor)
        external = product.evaluate_many(face) >> np.uint64(inner_dim)
        assert set(external.tolist()) == {sum(1 << k for k in want_bits)}
        assert sum(1 << k for k in want_bits) == FAMILY[family].gadget_external


def _low_face_reorientation(rng, base, replacement):
    """`base` with the face of the low replacement.dimension coordinates at
    a random anchor reoriented to `replacement`, keeping the anchor's
    external outmap, and that face's free set and closure (anchor | free)."""
    free = (1 << replacement.dimension) - 1
    anchor = rng.getrandbits(base.dimension) & ~free
    out = ReorientedOracle(base, anchor, replacement, base.evaluate(anchor) & ~free)
    return out, free, anchor | free


def test_reorient_flips_single_edge_of_2cube():
    base = UniformOracle(2, 0)
    # the only other 1-USO on a single coordinate: sink at the far end
    replacement = UniformOracle(1, 1)
    out = ReorientedOracle(base, 0b10, replacement, base.evaluate(0b10) & ~0b01)
    for v in range(4):
        for c in range(2):
            sinks = [u for u in Face(v & ~(1 << c), 1 << c).vertices()
                     if not out.evaluate(u) & (1 << c)]
            assert len(sinks) == 1
    assert out.evaluate(0b10) & 0b01  # flipped edge now leaves the face vertex
    assert check_uso_exhaustive(out).passed


def test_reorient_locality():
    rng = random.Random(17)
    for _ in range(50):
        n = 5
        base = UniformOracle(n, rng.getrandbits(n))
        replacement = UniformOracle(2, rng.getrandbits(2))
        out, free, closure = _low_face_reorientation(rng, base, replacement)
        for v in range(1 << n):
            if v | free == closure:
                assert (out.evaluate(v) & ~free) == (base.evaluate(v) & ~free)
                assert out.evaluate(v) & free == replacement.evaluate(v & free)
            else:
                assert out.evaluate(v) == base.evaluate(v)


def test_reorient_preserves_uso_randomized(cunningham_frames, johnson_frames):
    """100 uniform 8-cubes with a random sink, each with the low 4-face at
    a random anchor reoriented to a random transcribed 4-frame."""
    pool = [cunningham_frames[n][1] for n in ("f1", "f2", "f3")]
    pool += [johnson_frames[n][1] for n in ("f1", "f2", "r1")]
    rng = random.Random(23)
    for _ in range(100):
        base = UniformOracle(8, rng.getrandbits(8))
        out, _, _ = _low_face_reorientation(rng, base, rng.choice(pool))
        assert _pairwise_uso(outmap_table(out), 8)[0]


def test_memo_oracle_consistency():
    base = UniformOracle(4, 0b0110)
    memo = MemoOracle(base)
    assert all(memo.evaluate(v) == base.evaluate(v) for v in range(16))
    assert all(memo.evaluate(v) == base.evaluate(v) for v in range(16))


@st.composite
def _leaf_oracles(draw, n):
    """A uniform orientation or an arbitrary outmap table on the n-cube."""
    if draw(st.booleans()):
        return UniformOracle(n, draw(st.integers(0, (1 << n) - 1)))
    values = st.integers(0, (1 << n) - 1)
    return TableOracle(n, draw(st.lists(values, min_size=1 << n, max_size=1 << n)))


@st.composite
def _compositions(draw):
    """Random stacks of products (sparse frame overrides, sometimes at the
    smallest and largest inner vertex) and reorientations of a low face at
    a random anchor, some memoized."""
    oracle = draw(_leaf_oracles(draw(st.integers(0, 3))))
    for _ in range(draw(st.integers(1, 4))):
        n = oracle.dimension
        if n == 0 or draw(st.booleans()):
            m = draw(st.integers(1, 3))
            pool = draw(st.lists(_leaf_oracles(m), min_size=1, max_size=3))
            keys = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=8))
            if draw(st.booleans()):
                keys |= {0, (1 << n) - 1}
            oracle = ProductOracle(oracle, draw(st.sampled_from(pool)),
                                   {k: draw(st.sampled_from(pool)) for k in keys})
        else:
            m = draw(st.integers(1, min(n, 4)))
            anchor = draw(st.integers(0, (1 << n) - 1))
            external = draw(st.integers(0, (1 << n) - 1)) >> m << m
            oracle = ReorientedOracle(oracle, anchor, draw(_leaf_oracles(m)), external)
        if draw(st.booleans()):
            oracle = MemoOracle(oracle)
    return oracle


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_evaluate_many_matches_evaluate(data):
    oracle = data.draw(_compositions())
    top = (1 << oracle.dimension) - 1
    vs = [0, top] + data.draw(st.lists(st.integers(0, top), max_size=64))
    got = oracle.evaluate_many(np.array(vs, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert got.tolist() == [oracle.evaluate(v) for v in vs]


@st.composite
def _wide_compositions(draw, n):
    """A random composition as _compositions draws it, widened to n
    dimensions by a product with uniform frames above it, or with it as the
    frame above a uniform inner cube, under a memo."""
    oracle = draw(_compositions())
    pad = n - oracle.dimension
    sinks = st.integers(0, (1 << pad) - 1)
    if draw(st.booleans()):
        keys = draw(st.sets(st.integers(0, (1 << oracle.dimension) - 1), max_size=8))
        oracle = ProductOracle(oracle, UniformOracle(pad, draw(sinks)),
                               {k: UniformOracle(pad, draw(sinks)) for k in keys})
    else:
        keys = draw(st.sets(sinks, max_size=8))
        oracle = ProductOracle(UniformOracle(pad, draw(sinks)), oracle,
                               {k: MemoOracle(oracle) for k in keys})
    return MemoOracle(oracle)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.data())
@pytest.mark.parametrize("n", [TABLE_MAX_DIM - 1, TABLE_MAX_DIM, TABLE_MAX_DIM + 1])
def test_memo_tables_answer_as_evaluate(n, data):
    """A memo at most TABLE_MAX_DIM wide (and every memo below it) answers
    batches from its table, a wider one from its base; either way each
    batch equals evaluate on a seeded sample, and overwriting a batch's
    result leaves the table as it was."""
    memo = data.draw(_wide_compositions(n))
    rng = random.Random(data.draw(st.integers(0, 1 << 32)))
    vs = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(200)]
    want = [memo.evaluate(v) for v in vs]
    for _ in range(2):
        got = memo.evaluate_many(np.array(vs, dtype=np.uint64))
        assert got.dtype == np.uint64 and got.tolist() == want
        got[:] = 0
    assert ("_table" in vars(memo)) == (n <= TABLE_MAX_DIM)


@pytest.fixture(scope="module")
def fresh_chains():
    """Per family, a chain realized in this module only, so that the memo
    tables its tests fill are not shared."""
    return {family: realize_range(family, top)
            for family, top in (("cunningham", 3), ("johnson", 3), ("zadeh", 2))}


@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(st.data())
@pytest.mark.parametrize("family", ["cunningham", "johnson", "zadeh"])
def test_level_batches_answer_as_evaluate(fresh_chains, family, data):
    """Every level of a realized chain answers a batch as evaluate: on
    every vertex up to n = 12, on a seeded sample above."""
    rng = random.Random(data.draw(st.integers(0, 1 << 32)))
    for level, _ in fresh_chains[family]:
        n = level.dimension
        vs = (list(range(1 << n)) if n <= 12 else
              [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(2000)])
        got = level.oracle.evaluate_many(np.array(vs, dtype=np.uint64))
        assert got.tolist() == [level.oracle.evaluate(v) for v in vs], (family, n)


@pytest.mark.parametrize("n", [12, TABLE_MAX_DIM, TABLE_MAX_DIM + 1])
def test_memo_table_fill_stays_within_the_block(n):
    """The fill hands the base at most 2^14 vertices at once and reads each
    vertex once; later batches never reach the base.  A wider memo passes
    each batch on as it is."""
    counting = _Counting(UniformOracle(n, 0b1011))
    memo = MemoOracle(counting)
    vs = np.arange(0, 1 << n, 7, dtype=np.uint64)
    for _ in range(2):
        assert memo.evaluate_many(vs).tolist() == (vs ^ np.uint64(0b1011)).tolist()
    if n <= TABLE_MAX_DIM:
        assert max(counting.sizes) <= 1 << 14 and sum(counting.sizes) == 1 << n
        assert not memo._table.flags.writeable
    else:
        assert counting.sizes == [len(vs)] * 2


def test_filled_level_table_keeps_its_product_frozen(cunningham_frames):
    """Once a level's memo has filled its table, its product refuses to
    assign a frame to an inner vertex that holds none, as after any batch;
    every vertex of the lower path keeps the frame it holds."""
    (lower, trace), (level, _) = realize_range("cunningham", 2)[1:]
    level.oracle.evaluate_many(np.arange(1 << level.dimension, dtype=np.uint64))
    assert "_table" in vars(level.oracle)
    f2 = cunningham_frames["f2"][1]
    path, held = trace.vertices(), dict(level.product.items())
    assert [level.product.assign(v, f2) for v in path] == [held[v] for v in path]
    with pytest.raises(TypeError):
        level.product.assign(next(v for v in range(1 << lower.dimension) if v not in path), f2)


def test_failed_batch_leaves_the_product_open():
    """A batch that raises while the product tabulates its frames, here on
    an unassigned default, leaves its frames open to assign; the first batch
    that builds the tables closes them."""
    frame = UniformOracle(4, 0)
    product = ProductOracle(TableOracle(1, [1, 0]), constructions._Unassigned(4), {0: frame})
    vs = np.arange(32, dtype=np.uint64)
    with pytest.raises(ConstructionError, match="unassigned"):
        product.evaluate_many(vs)
    assert product.assign(1, frame) is frame
    assert dict(product.items()) == {0: frame, 1: frame}
    product.frames[0] = UniformOracle(4, 0b11)
    assert product.evaluate_many(vs).tolist() == [product.evaluate(v) for v in vs.tolist()]
    with pytest.raises(TypeError):
        product.side[0] = 0


def test_batch_during_the_adaptive_run_raises_and_leaves_no_table(monkeypatch):
    """A batch on a level's memo while its adaptive run assigns the frames
    raises, as the unassigned default is read, and leaves no table."""
    probed = []

    class Stop(Exception):
        pass

    def probing(oracle, start, *args, after_step=None, **kwargs):
        if after_step is not None and isinstance(oracle, MemoOracle):
            with pytest.raises(ConstructionError, match="unassigned"):
                oracle.evaluate_many(np.arange(16, dtype=np.uint64))
            probed.append(oracle)
            raise Stop
        return run_to_sink(oracle, start, *args, after_step=after_step, **kwargs)

    monkeypatch.setattr(constructions, "run_to_sink", probing)
    with pytest.raises(Stop):
        realize_range("cunningham", 2)
    assert len(probed) == 1 and probed[0].recording
    assert "_table" not in vars(probed[0])


def _walk(draw, n):
    """A walk of distinct vertices of the n-cube, one coordinate apart."""
    path = [draw(st.integers(0, (1 << n) - 1))]
    for c in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=12)) if n else ():
        if path[-1] ^ 1 << c not in path:
            path.append(path[-1] ^ 1 << c)
    return path


@st.composite
def _path_compositions(draw):
    """Random stacks as _compositions draws them, each memo bound to a
    random walk as soon as it is drawn, so that the products above it keep
    their frames on its path as bytes (and off it in the side dict), with
    override keys drawn from the walk too; and the same stack built from
    dict references without memos.  Returns the stack, the reference and
    (memo, walk, reference under the memo) per memo."""
    oracle = ref = draw(_leaf_oracles(draw(st.integers(0, 3))))
    memos = []
    for _ in range(draw(st.integers(1, 4))):
        n = oracle.dimension
        on_memo = bool(memos) and memos[-1][0] is oracle
        if n == 0 or draw(st.integers(0, 3 if on_memo else 1)):
            m = draw(st.integers(1, 3))
            pool = draw(st.lists(_leaf_oracles(m), min_size=1, max_size=3))
            keys = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=8))
            if on_memo:
                keys |= set(draw(st.lists(st.sampled_from(memos[-1][1]), max_size=8)))
            overrides = {k: draw(st.sampled_from(pool)) for k in keys}
            default = draw(st.sampled_from(pool))
            oracle = ProductOracle(oracle, default, overrides)
            ref = DictProduct(ref, default, overrides)
            assert oracle.items() == sorted(overrides.items(), key=lambda kv: kv[0])
        else:
            m = draw(st.integers(1, min(n, 4)))
            anchor = draw(st.integers(0, (1 << n) - 1))
            external = draw(st.integers(0, (1 << n) - 1)) >> m << m
            replacement = draw(_leaf_oracles(m))
            oracle = ReorientedOracle(oracle, anchor, replacement, external)
            ref = ReorientedOracle(ref, anchor, replacement, external)
        if draw(st.booleans()):
            oracle = MemoOracle(oracle)
            walk = _walk(draw, oracle.dimension)
            record(oracle, walk)
            memos.append((oracle, walk, ref))
    return oracle, ref, memos


def _reads(data, walk, n):
    """Vertices of the n-cube: the walk in order, in reverse and shuffled,
    and random vertices, most of them off the walk."""
    shuffled = data.draw(st.permutations(walk))
    return walk + walk[::-1] + shuffled + data.draw(
        st.lists(st.integers(0, (1 << n) - 1), max_size=16))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_frozen_compositions_answer_as_live_ones(data):
    """A random composition whose memos are frozen on random walks (bound
    to them, nothing writes their columns any more) and whose products keep
    frame bytes on those walks answers evaluate and evaluate_many as the
    same stack of live dict references, read in walk order, in reverse, at
    random and off the walk, at the top and at every memo; each memo holds
    exactly its walk's outmaps."""
    oracle, ref, memos = data.draw(_path_compositions())
    assert all(memo.moves is not None for memo, _, _ in memos)
    for memo, walk, under in memos:
        assert memo.entries() == [(v, under.evaluate(v)) for v in walk]
    top = (1 << oracle.dimension) - 1
    walks = [walk for _, walk, _ in memos] or [[0]]
    high = data.draw(st.integers(0, top))
    vs = [0, top] + [v | high >> memo.dimension << memo.dimension
                     for (memo, _, _), walk in zip(memos, walks)
                     for v in _reads(data, walk, memo.dimension)]
    vs += data.draw(st.lists(st.integers(0, top), max_size=32))
    want = [ref.evaluate(v) for v in vs]
    assert [oracle.evaluate(v) for v in vs] == want
    assert oracle.evaluate_many(np.array(vs, dtype=np.uint64)).tolist() == want
    for memo, walk, under in memos:
        vs = _reads(data, walk, memo.dimension)
        want = [under.evaluate(v) for v in vs]
        assert [memo.evaluate(v) for v in vs] == want
        assert memo.evaluate_many(np.array(vs, dtype=np.uint64)).tolist() == want


@pytest.fixture(scope="module")
def levels_and_references(tmp_path_factory):
    """Per family, a small chain realized with caches and, per level, its
    oracle rebuilt from dict references: each product a DictProduct of the
    assignments its cache record lists, under the level's own gadget."""
    out = {}
    for family, top in (("cunningham", 3), ("johnson", 3), ("zadeh", 2)):
        cache = tmp_path_factory.mktemp(family)
        chain = realize_range(family, top, cache_dir=cache)
        frames = {name: oracle for name, (_, oracle) in load_family(family).items()}
        refs = [chain[0][0].oracle]
        for level, _ in chain[1:]:
            record = json.loads(cache_path(cache, family, level.level).read_text())
            overrides = {parse_vertex(text): frames[name]
                         for text, name in record["assignments"].items()}
            gadget = level.oracle.base
            refs.append(ReorientedOracle(
                DictProduct(refs[-1], frames[record["default_frame"]], overrides),
                parse_vertex(record["gadget_anchor"]), gadget.replacement,
                gadget.shared_external))
        out[family] = chain, refs
    return out


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.data())
@pytest.mark.parametrize("family", ["cunningham", "johnson", "zadeh"])
def test_frozen_levels_answer_as_live_ones(levels_and_references, family, data):
    """Every level of a realized chain (every memo below the top frozen on
    its path, the top's memo empty) answers evaluate and evaluate_many as
    its live dict reference: on its path in order, in reverse and shuffled, on
    random vertices, and on path vertices with random bits of the top two
    bundles flipped, whose lower parts read the lower paths' columns."""
    chain, refs = levels_and_references[family]
    top = chain[-1][0]
    assert all(level.oracle.moves is not None for level, _ in chain[1:-1])
    assert top.oracle.moves is None and not top.oracle.outmaps
    for (level, trace), ref in zip(chain, refs):
        n = level.dimension
        flipped = min(n, 2 * level.bundle_size)
        path = trace.vertices()
        vs = _reads(data, path, n)
        vs += [v ^ data.draw(st.integers(0, (1 << flipped) - 1)) << n - flipped
               for v in data.draw(st.lists(st.sampled_from(path), min_size=1, max_size=32))]
        want = [ref.evaluate(v) for v in vs]
        assert [level.oracle.evaluate(v) for v in vs] == want
        assert level.oracle.evaluate_many(np.array(vs, dtype=np.uint64)).tolist() == want


def test_frozen_keys_above_2_to_the_53_stay_exact(cunningham_frames):
    """Inner vertices at and above 2^53 (float64 would round them) stay
    exact on a memo's path (frame bytes, the sorted column) and off it (the
    side dict), through the interval map and the memos' lookups."""
    f1, f2, f3 = (cunningham_frames[name][1] for name in ("f1", "f2", "f3"))
    inner = MemoOracle(UniformOracle(56, 0))
    walk = [(1 << 53) + 1, (1 << 53) + 3, (1 << 54) + (1 << 53) + 3, (1 << 55) + (1 << 54)
            + (1 << 53) + 3]
    record(inner, walk)
    assert list(inner._column[0]) == sorted(walk)
    overrides = {walk[0]: f1, walk[2]: f2, walk[3]: f1, (1 << 54) + (1 << 53): f2,
                 (1 << 55) | 5: f2, (1 << 56) - 1: f1}
    product = ProductOracle(inner, f3, overrides)
    assert set(product.side) == set(overrides) - set(walk)
    assert [v for v, _ in product.items()] == sorted(overrides)
    assert product.items() == sorted(overrides.items(), key=lambda kv: kv[0])
    vs = [k | o << 56 for k in [*overrides, *walk, 1 << 53, (1 << 53) + 2] for o in (0, 6, 15)]
    want = [(v & ((1 << 56) - 1))
            | overrides.get(v & ((1 << 56) - 1), f3).evaluate(v >> 56) << 56 for v in vs]
    assert [product.evaluate(v) for v in vs] == want
    assert product.evaluate_many(np.array(vs, dtype=np.uint64)).tolist() == want
    memo = MemoOracle(product)
    outer_walk = [walk[0] | 6 << 56, walk[0] | 7 << 56, walk[1] | 7 << 56, walk[1] | 15 << 56]
    record(memo, outer_walk)
    assert memo.entries() == [(v, product.evaluate(v)) for v in outer_walk]
    assert [memo.evaluate(v) for v in vs + outer_walk] == want + [
        product.evaluate(v) for v in outer_walk]


def test_memo_evaluate_many_leaves_the_memo_alone(cunningham_frames):
    inner = cunningham_frames["f1"][1]
    memo = MemoOracle(ProductOracle(inner, cunningham_frames["f3"][1],
                                    {0: cunningham_frames["f2"][1]}))
    warm = [memo.evaluate(v) for v in range(0, 256, 3)]
    before = len(memo.entries())
    got = memo.evaluate_many(np.arange(256, dtype=np.uint64))
    assert len(memo.entries()) == before
    assert got[::3].tolist() == warm


def test_frame_map_empty_batch():
    product = ProductOracle(UniformOracle(2, 0), UniformOracle(3, 1), {1: UniformOracle(3, 6)})
    got = product.evaluate_many(np.array([], dtype=np.uint64))
    assert got.dtype == np.uint64 and got.size == 0


def test_frame_map_shared_frame_objects(cunningham_frames):
    default = cunningham_frames["f1"][1]
    shared = cunningham_frames["f2"][1]
    overrides = {v: shared for v in range(1, 64, 3)}
    overrides.update({v: default for v in range(2, 64, 5)})  # the default, again
    overrides[63] = cunningham_frames["f3"][1]
    inner = UniformOracle(6, 0)
    product = ProductOracle(inner, default, overrides)
    vs = np.arange(1 << 10, dtype=np.uint64)
    got = product.evaluate_many(vs)
    assert got.tolist() == [inner.evaluate(v & 63)
                            | overrides.get(v & 63, default).evaluate(v >> 6) << 6
                            for v in vs.tolist()]
    assert len(product._tables[2]) == 3  # one row per distinct frame


@pytest.mark.parametrize("keys", [
    {3: "f2", 4: "f3"},  # adjacent keys, different frames
    {3: "f2", 4: "f2", 5: "f3", 6: "f1", 7: "f2"},  # a run, then the default
    {0: "f2"},
    {0: "f2", 1: "f3", 63: "f2"},
    {63: "f3"},
    {62: "f2", 63: "f2"},
    {5: "f1", 6: "f1"},  # the default object only: no interval of its own
    {},
], ids=["adjacent", "run", "zero", "zero-one-top", "top", "top-pair", "default",
        "none"])
def test_frame_map_intervals(cunningham_frames, keys):
    """Override keys k and k + 1 with different frames or the same one, key
    0, key 2^m - 1 and overrides that hold the default object: each batch
    equals evaluate, vertex by vertex."""
    frames = {name: cunningham_frames[name][1] for name in ("f1", "f2", "f3")}
    inner = UniformOracle(6, 0b101)
    product = ProductOracle(inner, frames["f1"],
                            {k: frames[name] for k, name in keys.items()})
    vs = np.arange(1 << 10, dtype=np.uint64)
    assert product.evaluate_many(vs).tolist() == [product.evaluate(v) for v in vs.tolist()]
    bounds, offsets, table = product._tables
    assert len(offsets) == len(bounds) + 1
    # Each interval's row differs from its neighbour's: none is redundant.
    assert (offsets[1:] != offsets[:-1]).all()
    assert len(table) == 1 + len({name for name in keys.values() if name != "f1"})


def test_frame_map_table_cap():
    wide = UniformOracle(FRAME_TABLE_MAX_DIM + 1, 0)
    product = ProductOracle(UniformOracle(2, 0), wide)
    # Single evaluations still work: inner vertex 1, outer vertex 5.
    assert product.evaluate(1 | 5 << 2) == 1 | 5 << 2
    with pytest.raises(CombinatorError, match="refusing to tabulate"):
        product.evaluate_many(np.zeros(1, dtype=np.uint64))
