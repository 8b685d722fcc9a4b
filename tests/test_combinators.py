import random

import pytest

from ausokit.combinators import (
    CombinatorError,
    FrameAssignmentMap,
    MemoOracle,
    ReorientationError,
    external_outmap_uniform,
    materialize,
    product,
    reorient_face,
)
from ausokit.cube_core import Face, TableOracle, uniform_oracle
from ausokit.verifier import check_acyclic, check_uso_exhaustive


def test_product_of_uniform_1cubes_is_uniform_2cube():
    inner = uniform_oracle(1, 0)
    frames = FrameAssignmentMap(1, uniform_oracle(1, 0))
    combined = product(inner, frames)
    reference = uniform_oracle(2, 0)
    assert all(combined.evaluate(v) == reference.evaluate(v) for v in range(4))


def test_product_dimension_mismatch():
    with pytest.raises(CombinatorError):
        product(uniform_oracle(2, 0), FrameAssignmentMap(1, uniform_oracle(1, 0)))


def test_product_random_frame_pairs(cunningham_frames, johnson_frames):
    """500 random assignments of transcribed 4-frames over inner F1: the
    8-cube product must stay an acyclic USO."""
    pool = [cunningham_frames[n][1] for n in ("f1", "f2", "f3")]
    pool += [johnson_frames[n][1] for n in ("f1", "f2", "r1")]
    inner = cunningham_frames["f1"][1]
    rng = random.Random(99)
    for _ in range(500):
        overrides = {v: rng.choice(pool) for v in range(16)}
        combined = product(inner, FrameAssignmentMap(4, rng.choice(pool), overrides))
        assert check_uso_exhaustive(combined, mode="pairwise").passed
        assert check_acyclic(combined).passed


def test_external_outmap_uniform_zero_dim_face():
    o = uniform_oracle(3, 0b101)
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
    base = uniform_oracle(2, 0)
    # the only other 1-USO on a single coordinate: sink at the far end
    replacement = uniform_oracle(1, 1)
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
        reorient_face(table, Face(0, 0b01), uniform_oracle(1, 0))
    assert len(exc.value.witness) == 2


def test_reorient_locality():
    rng = random.Random(17)
    for _ in range(50):
        n = 5
        base = uniform_oracle(n, rng.getrandbits(n))
        free = 0
        for c in rng.sample(range(n), 2):
            free |= 1 << c
        face = Face(rng.getrandbits(n) & ~free, free)
        replacement = uniform_oracle(2, rng.getrandbits(2))
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
        base = uniform_oracle(8, rng.getrandbits(8))
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
    base = uniform_oracle(4, 0b0110)
    memo = MemoOracle(base)
    assert all(memo.evaluate(v) == base.evaluate(v) for v in range(16))
    assert all(memo.evaluate(v) == base.evaluate(v) for v in range(16))


def test_external_outmap_enumeration_cap():
    o = uniform_oracle(8, 0)
    with pytest.raises(CombinatorError):
        external_outmap_uniform(o, Face(0, 0xFF), cap=16)
