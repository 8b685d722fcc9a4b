"""References kept in the tests for the level storage of `combinators` and
`constructions`.

- `DictProduct` is the product as a dict of frame overrides, the form the
  path-order columns replaced; `record` binds a memo to a walk, as a
  level's own run does.
- `level_tables` builds each level of a chain as one full numpy outmap
  table, from the frame tables and the assignments recorded in the level
  caches (which the golden digests pin), with the gadget face overwritten
  by the uniform orientation or by Johnson's reset orientation R_level,
  itself built as a table.  `reference_run` steps a pivot rule on such a
  table from its per-direction definition.  No combinator, memo, stepper
  state or cache check is involved.
- `compare_with_reference` names every way a realized chain differs from
  these tables.
- `lexicographic_order` is Johnson's tie order, written out.
- `face_vertices` lists a face's vertices, for the checks that count a
  face's sinks one vertex at a time.
- `trace_checks_reference` is the Johnson and Zadeh trace suites as they
  were written on `Direction`s (tests/directions.py): a walk that applies
  each move's `Direction`, direction lists and sets, and sublist matches,
  against which the move-byte suites are compared.
"""

import json

import numpy as np

from ausokit.constructions import cache_path
from ausokit.cube_core import OrientationOracle, direction_text, parse_vertex
from ausokit.frame_store import FAMILY, _coords, _deficits_ok, projection_check
from ausokit.pivot_engine import Trace, balance_of, is_saturated
from ausokit.verifier import VerificationReport
from directions import DIRECTIONS, Direction, apply_direction, direction_bit, directions, keyed
from test_pivot_engine import _reference_choice


class DictProduct(OrientationOracle):
    """Inner USO on the low coordinates and the frame overrides[vi] (else
    `default`) on the coordinates above them, looked up in a dict."""

    def __init__(self, inner, default, overrides):
        self.inner, self.default, self.overrides = inner, default, dict(overrides)
        self.dimension = inner.dimension + default.dimension

    def evaluate(self, v):
        k = self.inner.dimension
        vi = v & ((1 << k) - 1)
        return self.inner.evaluate(vi) | self.overrides.get(vi, self.default).evaluate(v >> k) << k


def record(memo, path):
    """Run `path` (distinct vertices, neighbours one coordinate apart) on
    the memo as its recording run, then bind the memo to it."""
    memo.recording = True
    for v in path:
        memo.evaluate(v)
    moves = bytearray()
    for u, w in zip(path, path[1:]):
        c = (u ^ w).bit_length() - 1
        moves.append(direction_bit(Direction(c, bool(w >> c & 1))))
    memo.bind(Trace("zadeh", memo.dimension, 1, path[0], path[-1], moves=moves))


class ArrayOracle(OrientationOracle):
    """An outmap table held as a numpy array, for the verifiers."""

    def __init__(self, table):
        self.table = table
        self.dimension = len(table).bit_length() - 1

    def evaluate(self, v):
        return int(self.table[v])

    def evaluate_many(self, vs):
        return self.table[vs]


def frame_table(frame):
    return np.array([frame.evaluate(v) for v in range(1 << frame.dimension)], dtype=np.uint64)


def product_table(inner, frame_tables, rows):
    """The product of the inner table with frame_tables[rows[vi]] at each
    inner vertex vi, indexed by (outer << m) | vi."""
    m = len(inner).bit_length() - 1
    return (inner[None, :] | np.stack(frame_tables)[rows].T << np.uint64(m)).ravel()


def reset_table(level, r1):
    """R_level: R_0 a point; R_{j+1} the product of R_j with r1 at its sink
    (vertex 0) and the uniform 4-cube with sink {c1, c4} elsewhere."""
    table = np.zeros(1, dtype=np.uint64)
    uniform = np.arange(16, dtype=np.uint64) ^ np.uint64(0b1001)
    for _ in range(level):
        rows = np.ones(len(table), dtype=np.intp)
        rows[0] = 0
        table = product_table(table, [r1, uniform], rows)
    return table


def level_tables(family, top, cache_dir, frames, anchor=None):
    """Outmap tables of levels 0..top of the family, from the cache records
    in cache_dir.  `anchor` (bundle-local bits) replaces the family's gadget
    anchor."""
    spec = FAMILY[family]
    size = spec.bundle_size
    anchor = spec.gadget_anchor if anchor is None else anchor
    external = np.uint64(spec.gadget_external)
    tables = {name: frame_table(frame) for name, frame in frames.items()}
    out = [tables[spec.base]]
    for level in range(1, top + 1):
        record = json.loads(cache_path(cache_dir, family, level).read_text())
        m = level * size
        names = [record["default_frame"]]
        rows = np.zeros(1 << m, dtype=np.intp)
        for text, name in record["assignments"].items():
            if name not in names:
                names.append(name)
            rows[parse_vertex(text)] = names.index(name)
        table = product_table(out[-1], [tables[name] for name in names], rows)
        if family == "johnson":
            replacement = reset_table(level, tables["r1"])
        else:
            lower_start = spec.start(level - 1)
            replacement = np.arange(1 << m, dtype=np.uint64) ^ np.uint64(lower_start)
        table[anchor << m:(anchor + 1) << m] = replacement | external << np.uint64(m)
        out.append(table)
    return out


def face_vertices(anchor, free):
    """The 2^|free| vertices that agree with `anchor` outside `free`, in
    ascending order: each free bit, lowest first, doubles the subsets."""
    subsets = [0]
    for c in range(free.bit_length()):
        if free >> c & 1:
            subsets += [s | 1 << c for s in subsets]
    return [anchor & ~free | s for s in subsets]


def lexicographic_order(bundles, bundle_size=4):
    """Johnson's tie order: per bundle the positive directions, then the
    negative ones, smaller index first, smaller bundle first."""
    return [Direction(j * bundle_size + k, positive) for j in range(bundles)
            for positive in (True, False) for k in range(bundle_size)]


def reference_run(table, start, family, level, limit):
    """The moves and the end of the family's rule on the table, chosen per
    direction: round-robin from the marker, Johnson's least stamp and
    Zadeh's least usage (ties by rank), as `_reference_choice` states them;
    at most `limit` moves."""
    order = (tuple(lexicographic_order(level + 1)) if family == "johnson"
             else tuple(DIRECTIONS[b] for b in FAMILY[family].tie_order(level)))
    counts = {d: 0 for d in order}
    marker, v, moves = 0, start, bytearray()
    while (out := int(table[v])) and len(moves) < limit:
        if family == "cunningham":
            d = next(d for d in order[marker:] + order[:marker]
                     if out >> d.coord & 1 and bool(v >> d.coord & 1) != d.positive)
            marker = order.index(d) + 1
        else:
            d = _reference_choice(counts, order, v, out)
            if family == "zadeh":
                counts[d] += 1
            elif (opposite := Direction(d.coord, not d.positive)) in counts:
                counts[opposite] = len(moves) + 1
        moves.append(direction_bit(d))
        v ^= 1 << d.coord
    return bytes(moves), v


def compare_with_reference(chain, tables, samples=256):
    """The names of the checks on which the realized chain differs from the
    reference tables: each level's start, sink, length and moves against
    the reference run, and its outmaps (read below its memo) at every
    vertex of the reference path and at a seeded sample of vertices.  A
    reference run stops one move past the realized run's length."""
    rng = np.random.default_rng(5)
    failed = []
    for (level, trace), table in zip(chain, tables):
        name = f"{level.family} level {level.level}"
        start = FAMILY[level.family].start(level.level)
        moves, end = reference_run(table, start, level.family, level.level, len(trace) + 1)
        for check, ok in (("start", trace.start == level.start == start),
                          ("sink", trace.end == level.expected_sink == end),
                          ("length", len(trace) == level.path_length == len(moves)),
                          ("moves", bytes(trace.moves) == moves)):
            if not ok:
                failed.append(f"{name} {check}")
        oracle = level.oracle.base if level.level else level.oracle
        vs = [start]
        for b in moves:
            vs.append(vs[-1] ^ 1 << (b & 63))
        vs += rng.integers(0, len(table), samples).tolist()
        if [oracle.evaluate(v) for v in vs] != table[vs].tolist():
            failed.append(f"{name} outmaps")
    return failed


def walk_directions(trace):
    """(vertex, Direction) before each move, then (last vertex, None); a
    move that is not legal where it is taken raises IllegalMoveError."""
    v = trace.start
    for d in map(DIRECTIONS.__getitem__, trace.moves):
        yield v, d
        v = apply_direction(v, d)
    yield v, None


def replay_directions(trace, state):
    """walk_directions, with the state holding every earlier move."""
    for v, d in walk_directions(trace):
        yield v, d
        if d is None:
            state.settle(v)
        else:
            state.record(v, direction_bit(d))


def trace_checks_reference(level, trace, lower_trace):
    """The report of the level's Johnson or Zadeh trace suite, on Directions."""
    report = VerificationReport("reference")
    suite = _johnson_reference if level.family == "johnson" else _zadeh_reference
    suite(report, level, trace, lower_trace)
    return report


def _zadeh_replay_reference(family, level, oracle, trace):
    size = family.bundle_size
    inner_mask = (1 << (oracle.dimension - size)) - 1
    full_mask = (1 << oracle.dimension) - 1
    st = family.rule_state(level)
    sat, tops = [], []
    escapes = True
    escaping = False
    for i, (v, d) in enumerate(replay_directions(trace, st)):
        if escaping:
            escapes = escapes and not is_saturated(oracle, v, st, inner_mask)
            escapes = escapes and bool(oracle.evaluate(v) & inner_mask)
        escaping = False
        if d is None or is_saturated(oracle, v, st, full_mask):
            sat.append(i)
            tops.append(st.top)
            escaping = d is not None and bool(oracle.evaluate(v) & inner_mask)
            escapes = escapes and (not escaping or d.coord < size)
    return sat, tops, escapes, st


def _zadeh_reference(report, level, trace, lower_trace):
    size = level.bundle_size
    sat, tops, escapes, final_state = _zadeh_replay_reference(
        level.spec, level.level, level.oracle, trace)
    top = {Direction(level.level * size + k, s)
           for k in range(size) for s in (True, False)}
    ok = all(after <= before + 1 for before, after in zip(tops, tops[1:]))
    dirs = directions(trace)
    for a, b in zip(sat, sat[1:]):
        segment = dirs[a:b]
        new_bundle = [d for d in segment if d in top]
        ok = ok and len(set(new_bundle)) == len(new_bundle)
        ok = ok and len(set(segment)) <= 2 * level.dimension - 1
    report.add("saturated_segment_usage", ok, None if ok else {"saturated": sat})
    ok = _deficits_ok(level.spec, level.level, final_state)
    report.add("final_balance_deficits", ok,
               None if ok else {"balances": {direction_text(b, size): balance_of(final_state, b)
                                             for b in final_state.tie_list}})
    if level.level == 0:
        interior = [i for i in sat[:-1] if i > 0]
        ok = bool(interior) and len(trace) - max(interior) >= 2
        report.add("interior_saturated_vertex", ok, None if ok else {"saturated": sat})
    else:
        projection_check(report, level, trace, lower_trace)
        report.add("saturated_escape_moves", escapes)


def _johnson_reference(report, level, trace, lower_trace):
    size, sink = level.bundle_size, level.spec.hypersink
    bundles = level.level + 1
    vertices = [v for v, _ in walk_directions(trace)]
    dirs = directions(trace)
    ok = all(
        not (d.positive and d.coord % size)
        or (i > 0 and dirs[i - 1] == Direction(d.coord - 1, True))
        for i, d in enumerate(dirs))
    report.add("positive_blocks_consecutive", ok)
    ok = True
    for i, d in enumerate(dirs):
        if d.positive or d.coord % size or d.coord < size:
            continue
        b = d.coord // size
        bundle_mask = ((1 << size) - 1) << (b * size)
        lower_sink = sum(sink << j * size for j in range(b))
        lower_mask = (1 << (b * size)) - 1
        if (vertices[i] & bundle_mask) == bundle_mask \
                and (vertices[i] & lower_mask) != lower_sink:
            block = dirs[i:i + size]
            want = [Direction(b * size + k, False) for k in range(size)]
            ok = ok and block == want
    report.add("negative_blocks_consecutive", ok)
    ok = True
    for j in range(bundles):
        mask = (1 << ((j + 1) * size)) - 1
        positives = [Direction(c, True) for c in range((j + 1) * size)]
        for i, v in enumerate(vertices):
            if v & mask:
                continue
            nxt = {}
            for t in range(i, len(dirs)):
                if dirs[t].positive and dirs[t].coord < (j + 1) * size \
                        and dirs[t] not in nxt:
                    nxt[dirs[t]] = t
                    if len(nxt) == len(positives):
                        break
            if len(nxt) < len(positives):
                ok = False
                break
            order = [nxt[d] for d in positives]
            if order != sorted(order):
                ok = False
                break
        if not ok:
            break
    report.add("positive_reuse_lexicographic", ok)
    report.add("reset_history_ordering", _johnson_resettable_reference(level, trace))
    if level.level >= 1:
        reset = [Direction(j * size + c, False) for j in range(bundles - 1)
                 for c in _coords(sink)]
        count = sum(1 for i in range(len(dirs) - len(reset) + 1)
                    if dirs[i:i + len(reset)] == reset)
        report.add("single_reset_in_order", count == 1,
                   None if count == 1 else {"count": count})
        projection_check(report, level, trace, lower_trace)


def _johnson_resettable_reference(level, trace) -> bool:
    family = level.spec
    size, sink = family.bundle_size, family.hypersink
    bundles = level.level + 1
    ordered = _coords(sink) + [size + c for c in _coords(family.gadget_external)]
    prefixes = [(sum(sink << i * size for i in range(j + 1)), (1 << ((j + 1) * size)) - 1,
                 ((1 << size) - 1) << ((j + 1) * size)) for j in range(bundles - 1)]
    st = level.rule_state()
    positions = replay_directions(trace, st)
    prev, _ = next(positions)
    for v, _ in positions:
        for j, (pattern, mask, next_bundle) in enumerate(prefixes):
            if (v & mask) != pattern or (prev & mask) == pattern:
                continue
            if not level.oracle.evaluate(v) & next_bundle:
                continue
            h = keyed(st.table())
            for jp in range(j + 1):
                stamps = [h[Direction(jp * size + c, False)] for c in ordered]
                if any(a >= b for a, b in zip(stamps, stamps[1:])):
                    return False
        prev = v
    return True
