"""Realized chains against the independent table reference of
tests/reference.py, at every level with n <= 20."""

from dataclasses import replace

import pytest

from ausokit import constructions
from ausokit.constructions import realize_range
from ausokit.frame_store import FAMILY, load_family, validate_family
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


def _moved(anchor):
    """The gadget anchor (bundle-local bits) with its lowest coordinate c
    swapped for c ^ 1: both bits flip."""
    low = anchor & -anchor
    return anchor ^ low ^ 1 << ((low.bit_length() - 1) ^ 1)


@pytest.mark.parametrize("family", ["cunningham", "johnson", "zadeh"])
def test_reference_with_moved_gadget_anchor_fails(chains, family):
    """The reference tables built with the gadget anchor one bit off: every
    level above the base differs from them in its run or its outmaps."""
    chain, frames, cache, _ = chains[family]
    moved = _moved(FAMILY[family].gadget_anchor)
    tables = level_tables(family, len(chain) - 1, cache, frames, anchor=moved)
    failed = compare_with_reference(chain, tables)
    for level in range(1, len(chain)):
        assert any(name.startswith(f"{family} level {level} ") for name in failed), failed
    assert not any(name.startswith(f"{family} level 0 ") for name in failed)


@pytest.mark.parametrize("family", ["cunningham", "johnson"])
def test_builder_with_moved_gadget_anchor_fails_the_reference(chains, monkeypatch, family):
    """The builder with its gadget anchor one bit off (zadeh's run then finds
    no sink): every level above the base differs from the reference tables
    in its run and its outmaps; the base does not.  The frame gate, which
    reads the anchor from the same record, refuses it, so the builder is
    given the gate's verdict on the packaged record."""
    _, _, _, tables = chains[family]
    spec, gate = FAMILY[family], validate_family(family)
    monkeypatch.setitem(FAMILY, family, replace(spec, gadget_anchor=_moved(spec.gadget_anchor)))
    assert not validate_family(family).passed
    monkeypatch.setattr(constructions, "validate_family", lambda *args, **kwargs: gate)
    failed = compare_with_reference(realize_range(family, len(tables) - 1), tables)
    for level in range(1, len(tables)):
        for check in ("moves", "outmaps"):
            assert f"{family} level {level} {check}" in failed, failed
    assert not any(name.startswith(f"{family} level 0 ") for name in failed)
