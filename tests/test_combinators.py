import copy
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ausokit.combinators import (
    MATERIALIZE_MAX_DIM,
    CombinatorError,
    MemoOracle,
    ProductOracle,
    ReorientationError,
    ReorientedOracle,
    external_outmap_uniform,
    materialize,
    reorient_face,
)
from ausokit.constructions import realize_range
from ausokit.cube_core import Face, TableOracle, UniformOracle
from ausokit.verifier import check_acyclic, check_uso_exhaustive


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
        assert check_uso_exhaustive(combined, mode="pairwise").passed
        assert check_acyclic(combined).passed


def test_external_outmap_uniform_zero_dim_face():
    o = UniformOracle(3, 0b101)
    ok, external, witness = external_outmap_uniform(o, Face(0b010, 0))
    assert ok and witness is None
    assert external == o.evaluate(0b010)


def test_external_outmap_uniform_gadget_faces(built_levels):
    """Before the gadget reorientation, the balance/reset faces of the
    level-1 products show one shared external outmap."""
    from ausokit.constructions import GADGET_ANCHOR, GADGET_EXTERNAL
    from ausokit.combinators import ProductOracle
    for family, want_bits in (("cunningham", (0,)), ("johnson", (1,))):
        level1 = built_levels[family][1][0]
        base = level1.oracle.base.base  # MemoOracle -> ReorientedOracle -> product
        assert isinstance(base, ProductOracle)
        inner_dim = level1.dimension - level1.bundle_size
        anchor = sum(1 << (inner_dim + k) for k in GADGET_ANCHOR[family])
        ok, external, witness = external_outmap_uniform(
            base, Face(anchor, (1 << inner_dim) - 1))
        assert ok, witness
        assert external == sum(1 << (inner_dim + k) for k in GADGET_EXTERNAL[family])
        assert want_bits == GADGET_EXTERNAL[family]


def test_reorient_flips_single_edge_of_2cube():
    base = UniformOracle(2, 0)
    # the only other 1-USO on a single coordinate: sink at the far end
    replacement = UniformOracle(1, 1)
    face = Face(0b10, 0b01)
    out = reorient_face(base, face, replacement)
    for v in range(4):
        for c in range(2):
            sinks = [u for u in Face(v & ~(1 << c), 1 << c).vertices()
                     if not out.evaluate(u) & (1 << c)]
            assert len(sinks) == 1
    assert out.evaluate(0b10) & 0b01  # flipped edge now leaves the face vertex
    assert check_uso_exhaustive(materialize(out)).passed


def test_reorient_precondition_failure_witness():
    # the two face vertices disagree on the external coordinate
    table = TableOracle(2, [0b11, 0b01, 0b10, 0b00])
    with pytest.raises(ReorientationError) as exc:
        reorient_face(table, Face(0, 0b01), UniformOracle(1, 0))
    assert len(exc.value.witness) == 2


def test_reorient_locality():
    rng = random.Random(17)
    for _ in range(50):
        n = 5
        base = UniformOracle(n, rng.getrandbits(n))
        free = 0
        for c in rng.sample(range(n), 2):
            free |= 1 << c
        face = Face(rng.getrandbits(n) & ~free, free)
        replacement = UniformOracle(2, rng.getrandbits(2))
        out = reorient_face(base, face, replacement)
        for v in range(1 << n):
            if v in face:
                assert (out.evaluate(v) & ~free) == (base.evaluate(v) & ~free)
            else:
                assert out.evaluate(v) == base.evaluate(v)


def test_reorient_preserves_uso_randomized(cunningham_frames, johnson_frames):
    pool = [cunningham_frames[n][1] for n in ("f1", "f2", "f3")]
    pool += [johnson_frames[n][1] for n in ("f1", "f2", "r1")]
    rng = random.Random(23)
    for _ in range(100):
        base = UniformOracle(8, rng.getrandbits(8))
        free = 0
        for c in rng.sample(range(8), 4):
            free |= 1 << c
        face = Face(rng.getrandbits(8) & ~free, free)
        out = reorient_face(base, face, rng.choice(pool))
        assert check_uso_exhaustive(materialize(out), mode="pairwise").passed


def test_materialize_cap():
    class Wide:
        dimension = 24

        def evaluate(self, v):
            return 0

    with pytest.raises(CombinatorError):
        materialize(Wide())


def test_memo_oracle_consistency():
    base = UniformOracle(4, 0b0110)
    memo = MemoOracle(base)
    assert all(memo.evaluate(v) == base.evaluate(v) for v in range(16))
    assert all(memo.evaluate(v) == base.evaluate(v) for v in range(16))


def test_external_outmap_enumeration_cap():
    # 2^21 vertices exceed DEFAULT_FACE_ENUM_CAP = 2^20; the check raises
    # before enumerating any of them.
    o = UniformOracle(21, 0)
    with pytest.raises(CombinatorError):
        external_outmap_uniform(o, Face(0, (1 << 21) - 1))


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
    smallest and largest inner vertex) and face reorientations (mostly on
    free sets that are not the low coordinates), some memoized."""
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
            coords = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4))
            free = sum(1 << c for c in coords)
            anchor = draw(st.integers(0, (1 << n) - 1)) & ~free
            external = draw(st.integers(0, (1 << n) - 1)) & ~free
            oracle = ReorientedOracle(oracle, Face(anchor, free),
                                      draw(_leaf_oracles(len(coords))), external)
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


def _chain_links(oracle):
    """The oracles of a composition from the top down, frames left out."""
    while oracle is not None:
        yield oracle
        oracle = getattr(oracle, "base", getattr(oracle, "inner", None))


def _freeze_all(oracle):
    for link in _chain_links(oracle):
        if isinstance(link, (MemoOracle, ProductOracle)):
            link.freeze()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_frozen_compositions_answer_as_live_ones(data):
    """Every memo and product of a random composition frozen after part of
    the vertices were evaluated answers evaluate (memo hits and misses
    alike) and evaluate_many as an untouched copy of it does, and each memo
    keeps its entries."""
    oracle = data.draw(_compositions())
    live = copy.deepcopy(oracle)
    top = (1 << oracle.dimension) - 1
    vs = [0, top] + data.draw(st.lists(st.integers(0, top), max_size=64))
    for v in vs[::2]:
        oracle.evaluate(v)
    memos = [link for link in _chain_links(oracle) if isinstance(link, MemoOracle)]
    held = [sorted(memo.entries()) for memo in memos]
    _freeze_all(oracle)
    assert all(link.frozen for link in _chain_links(oracle)
               if isinstance(link, (MemoOracle, ProductOracle)))
    assert [memo.entries() for memo in memos] == held
    want = [live.evaluate(v) for v in vs]
    assert [oracle.evaluate(v) for v in vs] == want
    assert oracle.evaluate_many(np.array(vs, dtype=np.uint64)).tolist() == want


@pytest.fixture(scope="module")
def live_and_frozen_tops():
    """Per family, the top level of a small chain realized with freezing
    switched off, its trace, and the top of the same chain with every level
    frozen."""
    tops = {}
    for family, top in (("cunningham", 3), ("johnson", 3), ("zadeh", 2)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ProductOracle, "freeze", lambda self: None)
            patch.setattr(MemoOracle, "freeze", lambda self: None)
            live, trace = realize_range(family, top)[-1]
        frozen = realize_range(family, top)[-1][0]
        _freeze_all(frozen.oracle)
        tops[family] = live, trace.vertices(), frozen
    return tops


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.data())
@pytest.mark.parametrize("family", ["cunningham", "johnson", "zadeh"])
def test_frozen_levels_answer_as_live_ones(live_and_frozen_tops, family, data):
    """A realized level with every memo and product of its chain frozen
    answers evaluate and evaluate_many as the same level never frozen, on
    random vertices and on path vertices with random bits of the top two
    bundles flipped, whose lower parts hit the frozen memos."""
    live, path, frozen = live_and_frozen_tops[family]
    assert all(link.frozen for link in _chain_links(frozen.oracle)
               if isinstance(link, (MemoOracle, ProductOracle)))
    n, size = live.dimension, live.bundle_size
    vs = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=32))
    vs += [v ^ data.draw(st.integers(0, (1 << 2 * size) - 1)) << (n - 2 * size)
           for v in data.draw(st.lists(st.sampled_from(path), min_size=1, max_size=32))]
    want = [live.oracle.evaluate(v) for v in vs]
    assert [frozen.oracle.evaluate(v) for v in vs] == want
    assert frozen.oracle.evaluate_many(np.array(vs, dtype=np.uint64)).tolist() == want


def test_frozen_keys_above_2_to_the_53_stay_exact(cunningham_frames):
    """Inner vertices at and above 2^53 (float64 would round them) freeze
    into the key column, answer batches through the interval map and memo
    lookups exactly."""
    f1, f2, f3 = (cunningham_frames[name][1] for name in ("f1", "f2", "f3"))
    inner = UniformOracle(56, 0)
    overrides = {(1 << 53) + 1: f1, (1 << 54) + (1 << 53): f2, (1 << 55) | 5: f2,
                 (1 << 56) - 1: f1}
    product = ProductOracle(inner, f3, overrides)
    product.freeze()
    assert list(product.keys) == sorted(overrides)
    assert product.items() == sorted(overrides.items())
    vs = [k | o << 56 for k in [*overrides, 1 << 53, (1 << 53) + 2] for o in (0, 6, 15)]
    want = [(v & ((1 << 56) - 1))
            | overrides.get(v & ((1 << 56) - 1), f3).evaluate(v >> 56) << 56 for v in vs]
    assert [product.evaluate(v) for v in vs] == want
    assert product.evaluate_many(np.array(vs, dtype=np.uint64)).tolist() == want
    memo = MemoOracle(product)
    for v in vs[::2]:
        memo.evaluate(v)
    memo.freeze()
    assert memo.entries() == sorted(zip(vs[::2], want[::2]))
    assert [memo.evaluate(v) for v in vs] == want


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
    wide = UniformOracle(MATERIALIZE_MAX_DIM + 1, 0)
    product = ProductOracle(UniformOracle(2, 0), wide)
    # Single evaluations still work: inner vertex 1, outer vertex 5.
    assert product.evaluate(1 | 5 << 2) == 1 | 5 << 2
    with pytest.raises(CombinatorError, match="refusing to tabulate"):
        product.evaluate_many(np.zeros(1, dtype=np.uint64))
