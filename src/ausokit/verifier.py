"""Structural checkers (unique sink per face, acyclicity), the growth
check, and the runner of a family's trace suite.  They read orientations,
traces and path lengths only: the family suites, which read the family's
facts, live beside its `Family` record in frame_store.

The definitional face-sink count is the ground truth.  The pairwise outmap
criterion ((s(u) xor s(v)) & (u xor v) != 0 for all pairs) scales better
and is cross-validated against the ground truth on small cubes rather than
trusted on its own.  Likewise the depth-first search is the ground truth
for acyclicity; above CROSS_VALIDATE_CAP layered Kahn peeling decides, and
a cycle it finds is still reported by the search.  The structural checks
evaluate oracles in batches (`evaluate_many`), never one vertex at a time,
and every batch is bounded whatever the cube size: the outmap table, 4
bytes a vertex, is filled VERTEX_BLOCK vertices at a time, the sampled
faces are drawn FACE_BLOCK at a time and go to the oracle at most
VERTEX_BLOCK vertices at a time, the face-sink count takes VERTEX_BLOCK
(mask, vertex) cells at a time, the pairwise criterion scans
PAIRWISE_ROWS rows at a time and Kahn peeling takes KAHN_BLOCK vertices
of a layer at a time.  A level answers a batch from its memo's table when
it has at most 2^16 vertices (combinators).
"""

from __future__ import annotations

import json
import math
import random
import time
from array import array
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .cube_core import (
    CubeError,
    OrientationOracle,
    tabulate,
    vertex_text,
)

USO_EXHAUSTIVE_CAP = 14
ACYCLIC_CAP = 20
CROSS_VALIDATE_CAP = 8
SAMPLED_MAX_FACE_DIM = 10
VERTEX_BLOCK = 1 << 14  # vertices per oracle batch, cells per face-count block
PAIRWISE_ROWS = 1 << 6  # rows per block of the pairwise criterion
WORD_BLOCK = 1 << 12  # generator words drawn at once by sample_faces
FACE_BLOCK = 1 << 14  # faces sample_faces yields at once
KAHN_BLOCK = 1 << 10  # layer vertices peeled at once by the Kahn check


class VerifierError(CubeError):
    pass


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: dict | None = None
    details: str = ""


@dataclass
class VerificationReport:
    mode: str
    checks: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, witness=None, details: str = "") -> None:
        self.checks.append(CheckResult(name, passed, witness, details))

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(self.mode, self.checks + other.checks,
                                  self.elapsed + other.elapsed)

    def to_json(self) -> str:
        return json.dumps({
            "mode": self.mode,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 3),
            "checks": [{"name": c.name, "passed": c.passed, "witness": c.witness,
                        "details": c.details} for c in self.checks],
        }, indent=2, sort_keys=True)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def outmap_table(oracle: OrientationOracle) -> np.ndarray:
    """Outmap of every vertex, indexed by vertex, as uint32: every caller
    caps n at ACYCLIC_CAP or below, and n > 32 is refused.  The oracle sees
    VERTEX_BLOCK vertices at a time, so the temporaries of its chain stay
    small beside the table."""
    if oracle.dimension > 32:
        raise VerifierError(f"dimension {oracle.dimension} outmaps do not fit uint32")
    return tabulate(oracle, np.uint32, VERTEX_BLOCK)


def _face_count_uso(table: np.ndarray, n: int):
    """Definitional check: every face has exactly one sink.

    For each free-coordinate mask, vertices whose outmap misses the mask are
    face sinks; grouping them by anchor must cover every anchor exactly once.
    The masks go in ascending order, max(1, VERTEX_BLOCK >> n) at a time, as
    one (mask, vertex) array; the witness is the first bad (mask, anchor)
    cell in row-major order, the lowest anchor of the lowest failing mask,
    whatever the block size.  Every array is uint32, as outmap_table's
    table is, and no step shifts: the gate runs this in every command, and
    signed or shift loops are numpy code that nothing else of a build runs,
    each adding some 64 KB of library pages to the command's peak RSS.
    """
    size = 1 << n
    vertices = np.arange(size, dtype=np.uint32)
    step = max(1, VERTEX_BLOCK >> n)
    for lo in range(1, size, step):
        frees = np.arange(lo, min(lo + step, size), dtype=np.uint32)[:, None]
        sinks = (table & frees) == 0
        inside = vertices & frees
        cells = vertices ^ inside  # each vertex's anchor, in its mask's row
        cells |= np.arange(0, len(frees) << n, size, dtype=np.uint32)[:, None]
        counts = np.bincount(cells[sinks], minlength=len(frees) << n)
        bad = np.flatnonzero((inside == 0).ravel() & (counts != 1))
        if bad.size:
            row, anchor = divmod(int(bad[0]), size)
            free = lo + row
            wit = [v for v in range(size) if v & ~free == anchor and not int(table[v]) & free]
            return False, {"anchor": vertex_text(anchor, n), "free": vertex_text(free, n),
                           "sinks": [vertex_text(v, n) for v in wit]}
    return True, None


def _pairwise_uso(table: np.ndarray, n: int):
    """Outmap criterion over the vertex pairs u < v, PAIRWISE_ROWS rows at a
    time.  The relation is symmetric, so each row u is compared with the
    columns above it only; the first row with a conflict has none below the
    diagonal (the row of that column would come first), so the witness is
    the first conflicting pair in row-major order, whatever the block size.
    The scan reads half the pairs, in outmap_table's uint32 as the
    face-sink count does (uint16 loops are numpy code that nothing else of
    a build runs); a block of 2^6 rows keeps each temporary at n = 14 at
    most 4 MB."""
    size = 1 << n
    vertices = np.arange(size, dtype=np.uint32)
    rows = min(PAIRWISE_ROWS, size)
    upper = np.arange(rows)[:, None] < np.arange(rows)  # column above the row
    for lo in range(0, size, rows):
        hi = min(lo + rows, size)
        bits = table[lo:hi, None] ^ table[None, lo:]
        bits &= vertices[lo:hi, None] ^ vertices[None, lo:]
        conflict = bits == 0
        conflict[:, :hi - lo] &= upper[:hi - lo, :hi - lo]
        bad = np.flatnonzero(conflict)
        if bad.size:
            a, b = divmod(int(bad[0]), size - lo)
            a, b = a + lo, b + lo
            return False, {"pair": [vertex_text(a, n), vertex_text(b, n)]}
    return True, None


def check_uso_exhaustive(oracle: OrientationOracle) -> VerificationReport:
    """Exhaustive USO check: the pairwise criterion, cross-validated against
    the face-sink count when the cube has at most CROSS_VALIDATE_CAP
    dimensions."""
    n = oracle.dimension
    report = VerificationReport("uso_exhaustive")
    started = time.perf_counter()
    if n > USO_EXHAUSTIVE_CAP:
        raise VerifierError(f"dimension {n} above exhaustive cap "
                            f"{USO_EXHAUSTIVE_CAP}; use check_uso_sampled")
    table = outmap_table(oracle)
    if n <= CROSS_VALIDATE_CAP:
        report.add("face_sink_count", *_face_count_uso(table, n))
    report.add("pairwise_outmap", *_pairwise_uso(table, n))
    if n <= CROSS_VALIDATE_CAP:
        a, b = report.checks[0].passed, report.checks[1].passed
        report.add("cross_validation", a == b,
                   None if a == b else {"ground": a, "pairwise": b})
    report.elapsed = time.perf_counter() - started
    return report


def check_acyclic(oracle: OrientationOracle) -> VerificationReport:
    """No directed cycle along the outmaps.  Kahn peeling decides above
    CROSS_VALIDATE_CAP, the depth-first search at and below it; a cycle is
    always reported by the search, as a vertex sequence."""
    n = oracle.dimension
    if n > ACYCLIC_CAP:
        raise VerifierError(f"dimension {n} above acyclicity cap {ACYCLIC_CAP}")
    report = VerificationReport("acyclic")
    started = time.perf_counter()
    table = outmap_table(oracle)
    acyclic = n > CROSS_VALIDATE_CAP and _kahn_acyclic(table, n)
    cycle = None if acyclic else _dfs_cycle(table.tolist(), n)
    passed = acyclic or (n <= CROSS_VALIDATE_CAP and cycle is None)
    report.add("acyclic", passed, None if passed else {"cycle": cycle})
    report.elapsed = time.perf_counter() - started
    return report


def _flip(a: np.ndarray, c: int) -> np.ndarray:
    """a[v ^ (1 << c)] for every v, as a view of a cube-indexed array."""
    return a.reshape(-1, 2, 1 << c)[:, ::-1, :].reshape(-1)


def _kahn_acyclic(table: np.ndarray, n: int) -> bool:
    """Layered Kahn peeling of the directed edge relation: vertices with no
    incoming edge are removed layer by layer, KAHN_BLOCK of a layer at a
    time.  In-degrees are counted from the neighbours' outmaps, so an edge
    both endpoints claim counts twice (a 2-cycle), just as the depth-first
    search sees it.  The table may hold its outmaps in any unsigned width;
    the out-bit masks take its dtype."""
    size = 1 << n
    indeg = np.zeros(size, dtype=np.int8)
    # Bit c of every outmap, read from its byte plane (byte c >> 3 of the
    # little-endian words), so no temporary is wider than a byte per vertex.
    width = table.itemsize
    planes = table.astype(f"<u{width}", copy=False).view(np.uint8).reshape(size, width)
    for c in range(n):
        indeg += _flip(((planes[:, c >> 3] >> np.uint8(c & 7)) & np.uint8(1))
                       .view(np.int8), c)
    bits = 1 << np.arange(n, dtype=np.int64)
    out_bits = bits.astype(table.dtype)
    layer = np.flatnonzero(indeg == 0)
    removed = 0
    while layer.size:
        removed += layer.size
        freed = []
        for lo in range(0, layer.size, KAHN_BLOCK):
            block = layer[lo:lo + KAHN_BLOCK]
            edges = (table[block, None] & out_bits) != 0
            heads, hits = np.unique((block[:, None] ^ bits)[edges], return_counts=True)
            indeg[heads] -= hits.astype(np.int8)
            freed.append(heads[indeg[heads] == 0])
        # A head freed by one block has no edge from a later one, so the
        # next layer holds each vertex once.
        layer = np.concatenate(freed)
    return removed == size


def _dfs_cycle(table: list[int], n: int) -> list[str] | None:
    """Depth-first search over the directed edge relation; returns a cycle
    (vertex sequence, first vertex repeated last) or None."""
    size = 1 << n
    color = bytearray(size)  # 0 unvisited, 1 on stack, 2 done
    parent = {}
    for root in range(size):
        if color[root]:
            continue
        stack = [(root, 0)]
        color[root] = 1
        while stack:
            v, progress = stack[-1]
            out = table[v]
            advanced = False
            c = progress
            while out >> c:
                if (out >> c) & 1:
                    w = v ^ (1 << c)
                    stack[-1] = (v, c + 1)
                    if color[w] == 1:
                        path = [w, v]
                        x = v
                        while x != w:
                            x = parent[x]
                            path.append(x)
                        return [vertex_text(x, n) for x in reversed(path)]
                    if color[w] == 0:
                        color[w] = 1
                        parent[w] = v
                        stack.append((w, 0))
                    advanced = True
                    break
                c += 1
            if not advanced:
                color[v] = 2
                stack.pop()
    return None


def _word_blocks(rng: random.Random):
    """The generator's 32-bit outputs in order, WORD_BLOCK at a time:
    getrandbits(32 * w) packs w consecutive outputs, first one lowest."""
    while True:
        block = rng.getrandbits(32 * WORD_BLOCK).to_bytes(4 * WORD_BLOCK, "little")
        yield np.frombuffer(block, dtype="<u4").tolist()


def sample_faces(n: int, samples: int, max_face_dim: int, seed: int):
    """Deterministic face sample: dimension uniform in [1..max_face_dim],
    then free coordinates and anchor uniform.  Yields (anchors, frees) as
    uint64 arrays in sample order, FACE_BLOCK faces at a time (the last
    block holds the rest), so the sample is never held whole.

    The faces are those that random.Random(seed) draws with, per face,
    randint(1, min(max_face_dim, n)), sample(range(n), k) and
    getrandbits(n).  The generator's words are read in bulk and CPython's
    algorithms for those calls are replayed on them: _randbelow's top-bits
    rejection, sample's pool or set of drawn coordinates (its setsize
    rule), and getrandbits' word order (first word lowest, the last one
    shifted).
    """
    m = min(max_face_dim, n)
    if m < 1 or samples < 0:  # randint(1, 0) raises; _randbelow(0) never returns
        raise ValueError(f"no sample of {samples} faces of dimension 1..{m}")
    word = chain.from_iterable(_word_blocks(random.Random(seed))).__next__
    # _randbelow(bound) is word() >> shift[bound], redrawn while >= bound.
    shift = [32 - bound.bit_length() for bound in range(n + 1)]
    # sample() keeps a pool of the undrawn coordinates when that list is
    # smaller than a set of k drawn ones, else the set.
    use_pool = [n <= 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
                for k in range(m + 1)]
    coords = list(range(n))
    # The pool's bounds n, n - 1, ... with their shifts, for k draws.
    pool_bounds = [[(i, shift[i]) for i in range(n, n - k, -1)] for k in range(m + 1)]
    anchor_words = [(32 * i, max(0, 32 * (i + 1) - n)) for i in range((n + 31) // 32)]
    shift_m, shift_n = shift[m], shift[n]
    for lo in range(0, samples, FACE_BLOCK):
        anchors, frees = array("Q"), array("Q")
        for _ in range(min(FACE_BLOCK, samples - lo)):
            k = word() >> shift_m
            while k >= m:
                k = word() >> shift_m
            k += 1
            free = 0
            if use_pool[k]:
                pool = coords[:]
                for i, cut in pool_bounds[k]:  # the last undrawn one fills the gap
                    j = word() >> cut
                    while j >= i:
                        j = word() >> cut
                    free |= 1 << pool[j]
                    pool[j] = pool[i - 1]
            else:
                for _ in range(k):
                    j = word() >> shift_n
                    while j >= n or free >> j & 1:  # out of range or drawn before
                        j = word() >> shift_n
                    free |= 1 << j
            anchor = 0
            for pos, cut in anchor_words:
                anchor |= word() >> cut << pos
            anchors.append(anchor)
            frees.append(free)
        frees = np.frombuffer(frees, dtype=np.uint64)
        yield np.frombuffer(anchors, dtype=np.uint64) & ~frees, frees


def _sink_counts(oracle: OrientationOracle, anchors: np.ndarray,
                 frees: np.ndarray, k: int) -> np.ndarray:
    """Number of sinks of each face with the given anchors and k-bit frees."""
    # Row r lists the 2^k subsets of frees[r]: each free bit, lowest
    # first, doubles the subsets found so far.
    subsets = np.zeros((len(frees), 1 << k), dtype=np.uint64)
    rest = frees.copy()
    for j in range(k):
        low = rest & (~rest + np.uint64(1))
        subsets[:, 1 << j:2 << j] = subsets[:, :1 << j] | low[:, None]
        rest ^= low
    out = oracle.evaluate_many((anchors[:, None] | subsets).reshape(-1))
    return ((out.reshape(subsets.shape) & frees[:, None]) == 0).sum(axis=1)


def _first_failing_face(oracle: OrientationOracle, anchors: np.ndarray,
                        frees: np.ndarray) -> tuple[int, int] | None:
    """(index, sink count) of the block's first face whose sink count is
    not one, or None.  The faces of each dimension go to the oracle in
    batches, in sample order.  The temporaries die with the call, so none
    is held while the next block is drawn."""
    dims = np.unpackbits(frees.view(np.uint8).reshape(-1, 8), axis=1).sum(
        axis=1, dtype=np.intp)
    bad = None
    for k in np.flatnonzero(np.bincount(dims)).tolist():
        index = np.flatnonzero(dims == k)
        step = max(1, VERTEX_BLOCK >> k)
        for lo in range(0, len(index), step):
            rows = index[lo:lo + step]
            counts = _sink_counts(oracle, anchors[rows], frees[rows], k)
            wrong = np.flatnonzero(counts != 1)
            if wrong.size:  # later batches of this dimension come later
                first = int(rows[wrong[0]])
                if bad is None or first < bad[0]:
                    bad = first, int(counts[wrong[0]])
                break
    return bad


def check_uso_sampled(oracle: OrientationOracle, samples: int, max_face_dim: int,
                      seed: int) -> VerificationReport:
    """Unique-sink check on a seeded random sample of small faces.

    The faces are checked one sample_faces block at a time, and those of
    dimension k in a block go to the oracle max(1, VERTEX_BLOCK >> k) at a
    time, so neither the faces held nor a batch grows with the sample size.
    The check stops at the first block that holds a failing face, and the
    witness is the first such face in sample order.  An empty sample is
    refused, not passed.
    """
    if samples < 1:
        raise VerifierError(f"samples must be at least 1, got {samples}")
    if not 1 <= max_face_dim <= SAMPLED_MAX_FACE_DIM:
        raise VerifierError(f"max_face_dim must be in 1..{SAMPLED_MAX_FACE_DIM}, "
                            f"got {max_face_dim}")
    n = oracle.dimension
    report = VerificationReport("uso_sampled")
    started = time.perf_counter()
    for anchors, frees in sample_faces(n, samples, max_face_dim, seed):
        bad = _first_failing_face(oracle, anchors, frees)
        if bad is not None:
            anchor, free = int(anchors[bad[0]]), int(frees[bad[0]])
            report.add("sampled_unique_sink", False,
                       {"anchor": vertex_text(anchor, n),
                        "free": vertex_text(free, n), "sink_count": bad[1]})
            break
    else:
        report.add("sampled_unique_sink", True,
                   details=f"{samples} faces, dim<={max_face_dim}, seed={seed}")
    report.elapsed = time.perf_counter() - started
    return report


def check_trace_properties(level, trace, lower_trace=None) -> VerificationReport:
    """Family behavioral suite for a realized level's trace.

    level is a ConstructionLevel (duck-typed), whose family record's
    trace_checks(report, level, trace, lower_trace) adds the checks;
    lower_trace is the realizing trace of the previous level, required for
    the projection checks at level >= 1.
    """
    report = VerificationReport(f"trace_properties_{level.family}_{level.level}")
    started = time.perf_counter()
    level.spec.trace_checks(report, level, trace, lower_trace)
    report.elapsed = time.perf_counter() - started
    return report


def check_growth(lengths: list[tuple[int, int, int]], bundle_size: int) -> VerificationReport:
    """lengths: (level, dimension, path_length) per built level, ascending.

    Asserts |P_{i+1}| > 2 |P_i| for consecutive levels and
    |P_i| >= 2^(n / bundle_size) throughout.
    """
    report = VerificationReport("growth")
    started = time.perf_counter()
    for (l0, _, p0), (l1, _, p1) in zip(lengths, lengths[1:]):
        ok = p1 > 2 * p0
        report.add(f"recursion_{l0}_to_{l1}", ok,
                   None if ok else {"lower": p0, "upper": p1},
                   details=f"|P_{l1}|={p1} vs 2*|P_{l0}|={2 * p0}")
    for level, n, p in lengths:
        bound = 2 ** (n // bundle_size) if n % bundle_size == 0 else 2 ** (n / bundle_size)
        ok = p >= bound
        report.add(f"bound_level_{level}", ok, None if ok else {"length": p, "bound": bound},
                   details=f"|P_{level}|={p} >= 2^({n}/{bundle_size})={bound}")
    report.elapsed = time.perf_counter() - started
    return report
