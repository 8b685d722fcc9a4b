"""Realized chains against the independent table reference of
tests/reference.py, at every level with n <= 20."""

import pytest

from ausokit.constructions import GADGET_ANCHOR, realize_range
from ausokit.frame_store import load_family
from ausokit.verifier import USO_EXHAUSTIVE_CAP, check_acyclic, check_uso_exhaustive
from reference import ArrayOracle, compare_with_reference, level_tables

CHAINS = [("cunningham", 4), ("johnson", 4), ("zadeh", 2)]


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    """Per family, the realized chain, its frames and its reference tables."""
    out = {}
    for family, top in CHAINS:
        cache = tmp_path_factory.mktemp(family)
        chain = realize_range(family, top, cache_dir=cache)
        frames = {name: oracle for name, (_, oracle) in load_family(family).items()}
        out[family] = chain, frames, cache, level_tables(family, top, cache, frames)
    return out


@pytest.mark.parametrize("family, top", CHAINS)
def test_chain_matches_table_reference(chains, family, top):
    """Traces, starts, sinks and lengths equal the reference runs byte for
    byte, and every level's oracle equals its table on the reference path
    and on a sample; the tables themselves are USOs (n <= 14) and acyclic."""
    chain, _, _, tables = chains[family]
    assert compare_with_reference(chain, tables) == []
    for (level, _), table in zip(chain, tables):
        oracle = ArrayOracle(table)
        if level.dimension <= USO_EXHAUSTIVE_CAP:
            assert check_uso_exhaustive(oracle).passed, (family, level.level)
        assert check_acyclic(oracle).passed, (family, level.level)


@pytest.mark.parametrize("family", ["cunningham", "johnson", "zadeh"])
def test_swapped_frame_row_fails_the_reference(chains, family):
    """Two frame rows of the top product swapped: the top's outmaps differ
    from its table, and nothing else."""
    chain, _, _, tables = chains[family]
    product = chain[-1][0].product
    frames = product.frames
    assert len(frames) >= 3
    frames[1], frames[2] = frames[2], frames[1]
    try:
        failed = compare_with_reference(chain, tables)
    finally:
        frames[1], frames[2] = frames[2], frames[1]
    assert failed == [f"{family} level {len(chain) - 1} outmaps"]


@pytest.mark.parametrize("family", ["cunningham", "johnson", "zadeh"])
def test_reference_with_moved_gadget_anchor_fails(chains, family):
    """The reference tables built with the gadget anchor one bit off: every
    level above the base differs from them in its run or its outmaps."""
    chain, frames, cache, _ = chains[family]
    anchor = GADGET_ANCHOR[family]
    moved = tuple(sorted(set(anchor) ^ {anchor[0], anchor[0] ^ 1}))
    tables = level_tables(family, len(chain) - 1, cache, frames, anchor=moved)
    failed = compare_with_reference(chain, tables)
    for level in range(1, len(chain)):
        assert any(name.startswith(f"{family} level {level} ") for name in failed), failed
    assert not any(name.startswith(f"{family} level 0 ") for name in failed)


@pytest.mark.parametrize("family", ["cunningham", "johnson"])
def test_builder_with_moved_gadget_anchor_fails_the_reference(chains, monkeypatch, family):
    """The builder with its gadget anchor one bit off (zadeh's run then finds
    no sink): every level above the base differs from the reference tables
    in its run and its outmaps; the base does not."""
    _, _, _, tables = chains[family]
    anchor = GADGET_ANCHOR[family]
    monkeypatch.setitem(GADGET_ANCHOR, family,
                        tuple(sorted(set(anchor) ^ {anchor[0], anchor[0] ^ 1})))
    failed = compare_with_reference(realize_range(family, len(tables) - 1), tables)
    for level in range(1, len(tables)):
        for check in ("moves", "outmaps"):
            assert f"{family} level {level} {check}" in failed, failed
    assert not any(name.startswith(f"{family} level 0 ") for name in failed)
