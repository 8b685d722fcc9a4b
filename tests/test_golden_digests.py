"""Golden sha256 digests of the files the acceptance-fixture chains write.

Criterion 7 compares the code against itself; these digests pin the bytes
of every level's trace (per-step history snapshots included, since every
level here has n <= 16), of Johnson's traces in the non-arrival convention
(h as JohnsonState.table() reads it after replay) and of the level cache
files, so a rework of the rule states or of the builders cannot change them
unnoticed.
"""

import hashlib
from dataclasses import replace

import pytest

from ausokit.constructions import realize_range
from ausokit.cube_core import direction_text
from ausokit.pivot_engine import replay, write_trace_jsonl

TRACE_DIGESTS = {
    "cunningham":
        "6eda6248aeb54b7b85fdb0c7b300f12e67b398db6ef37b9155f11e1bb1d6f928",
    "johnson":
        "845a2ea27c6898688eef4774a7a4c75b046530bf3508a5a9d1eb0dd16dd532b1",
    "zadeh":
        "ecf645fa8abe150807cb97a417589c403beb718e3725b01f855f11d1ccaac7bd",
}
CACHE_DIGESTS = {
    "cunningham":
        "f2f97983603fec9cb03d9ea0158727d37207d6883203fe9fb4ae011632713405",
    "johnson":
        "7ad608f537385577800424ef86eb7d56d1bad6bcfd6ead8a5e9053ecb6354ab6",
    "zadeh":
        "62b90dcdb0254bc1398bd6c8cd8aefe0702be2fb800fcf85e74ef63cba8f220d",
}
JOHNSON_NON_ARRIVAL_DIGEST = (
    "54d15d869fcc2dd50f009568a7a6e28a27c84469c06532d0b649c0a70cccea54")


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\n" + path.read_bytes())
    return h.hexdigest()


def _write_traces(traces, directory):
    paths = []
    for i, trace in enumerate(traces):
        path = directory / f"level{i}.jsonl"
        write_trace_jsonl(trace, path)
        paths.append(path)
    return paths


@pytest.mark.parametrize("family", sorted(TRACE_DIGESTS))
def test_trace_digest(family, built_levels, tmp_path):
    traces = [trace for _, trace in built_levels[family]]
    assert _digest(_write_traces(traces, tmp_path)) == TRACE_DIGESTS[family]


@pytest.mark.parametrize("family", sorted(CACHE_DIGESTS))
def test_cache_digest(family, built_levels, tmp_path):
    realize_range(family, len(built_levels[family]) - 1, cache_dir=tmp_path)
    assert _digest(sorted(tmp_path.glob("*.json"))) == CACHE_DIGESTS[family]


def test_johnson_non_arrival_digest(built_levels, tmp_path):
    """Each step's h after the update phase at the vertex it leaves, as
    table() reads it, not at the vertex it enters."""
    traces = []
    for level, trace in built_levels["johnson"]:
        state = level.rule_state()
        # replay yields before each move and at the sink, holding the earlier
        # moves; once exhausted, the state has settled at the sink.
        rows = [state.table() for _ in replay(trace, state)][1:] + [state.table()]
        rows = [{direction_text(b, 4): c for b, c in h.items()} for h in rows]
        traces.append(replace(trace, history=rows[:-1], final_history=rows[-1]))
    assert all(trace.history is not None and len(trace.history) == len(trace)
               for trace in traces)
    assert _digest(_write_traces(traces, tmp_path)) == JOHNSON_NON_ARRIVAL_DIGEST
