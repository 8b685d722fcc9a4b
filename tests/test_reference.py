"""Realized chains against the independent table reference of
tests/reference.py, at every level with n <= 20, and the move-byte trace
suites against their Direction-level reference there."""

import itertools
import random
from dataclasses import replace

import pytest

from ausokit import constructions
from ausokit.constructions import realize_range
from ausokit.cube_core import IllegalMoveError
from ausokit.frame_store import FAMILY, load_family, validate_family
from ausokit.verifier import (
    USO_EXHAUSTIVE_CAP,
    check_acyclic,
    check_trace_properties,
    check_uso_exhaustive,
)
from reference import ArrayOracle, compare_with_reference, level_tables, trace_checks_reference

CHAINS = [("cunningham", 4), ("johnson", 4), ("zadeh", 2)]


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    """Per family, the realized chain, its frames and its reference tables."""
    out = {}
    for family, top in CHAINS:
        cache = tmp_path_factory.mktemp(family)
        chain = realize_range(family, top, cache_dir=cache)
        frames = load_family(family)
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
    spec, gate = FAMILY[family], validate_family(family, load_family(family))
    monkeypatch.setitem(FAMILY, family, replace(spec, gadget_anchor=_moved(spec.gadget_anchor)))
    assert not validate_family(family, load_family(family)).passed
    monkeypatch.setattr(constructions, "validate_family", lambda *args, **kwargs: gate)
    failed = compare_with_reference(realize_range(family, len(tables) - 1), tables)
    for level in range(1, len(tables)):
        for check in ("moves", "outmaps"):
            assert f"{family} level {level} {check}" in failed, failed
    assert not any(name.startswith(f"{family} level 0 ") for name in failed)


def _transposed(trace, a, b):
    """The trace with coordinates a and b exchanged in its start, its end and
    every move."""
    swap = {a: b, b: a}
    start, end = [v ^ (v >> a ^ v >> b) % 2 * (1 << a | 1 << b) for v in (trace.start, trace.end)]
    return replace(trace, start=start, end=end,
                   moves=bytes(m & 64 | swap.get(m & 63, m & 63) for m in trace.moves))


def _tampered(trace, level, rng):
    """The trace, and copies of it with two neighbouring moves swapped, with
    one move's sign flipped, or with two coordinates transposed: a sample of
    each, and every transposition up to level 2."""
    out = [trace]
    for _ in range(8):
        bad = replace(trace, moves=bytearray(trace.moves))
        i = rng.randrange(len(bad) - 1)
        bad.moves[i], bad.moves[i + 1] = bad.moves[i + 1], bad.moves[i]
        out.append(bad)
    for _ in range(3):
        bad = replace(trace, moves=bytearray(trace.moves))
        bad.moves[rng.randrange(len(bad))] ^= 64
        out.append(bad)
    n = trace.dimension
    pairs = (itertools.combinations(range(n), 2) if level <= 2
             else (rng.sample(range(n), 2) for _ in range(4)))
    return out + [_transposed(trace, a, b) for a, b in pairs]


@pytest.mark.parametrize("family, top", [("johnson", 5), ("zadeh", 3)])
def test_trace_suites_match_direction_reference(family, top):
    """On every level's trace and on its tampered copies, the move-byte
    suite gives the Direction-level reference's check names, verdicts and
    witnesses, and raises IllegalMoveError where the reference does.  Each
    check fails on some copy, but Zadeh's level-0 interior check."""
    rng = random.Random(3)
    seen, names, failed = set(), set(), set()
    lower = None
    for level, trace in realize_range(family, top):
        for t in _tampered(trace, level.level, rng):
            try:
                want = trace_checks_reference(level, t, lower)
            except IllegalMoveError:
                with pytest.raises(IllegalMoveError):
                    check_trace_properties(level, t, lower)
                seen.add("illegal")
                continue
            got = check_trace_properties(level, t, lower)
            assert [(c.name, c.passed, c.witness) for c in got.checks] == \
                [(c.name, c.passed, c.witness) for c in want.checks], (level.level, t.moves)
            seen.add(got.passed)
            names |= {c.name for c in got.checks}
            failed |= {c.name for c in got.failures()}
        lower = trace
    assert seen == {True, False, "illegal"}
    assert failed == names - {"interior_saturated_vertex"}
