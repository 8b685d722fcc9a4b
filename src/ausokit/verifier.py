"""Structural checkers (unique sink per face, acyclicity) and behavioral
checkers for traces and growth.

The definitional face-sink count is the ground truth.  The pairwise outmap
criterion ((s(u) xor s(v)) & (u xor v) != 0 for all pairs) scales better
and is cross-validated against the ground truth on small cubes rather than
trusted on its own.
"""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cube_core import (
    CubeError,
    Direction,
    Face,
    OrientationOracle,
    vertex_text,
)
from .pivot_engine import balance_of, is_saturated, replay

USO_EXHAUSTIVE_CAP = 14
ACYCLIC_CAP = 20
CROSS_VALIDATE_CAP = 8
SAMPLED_MAX_FACE_DIM = 10


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
        merged = VerificationReport(self.mode, self.checks + other.checks,
                                    self.elapsed + other.elapsed)
        return merged

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
    n = oracle.dimension
    return np.fromiter((oracle.evaluate(v) for v in range(1 << n)),
                       dtype=np.uint32, count=1 << n)


def _face_count_uso(table: np.ndarray, n: int):
    """Definitional check: every face has exactly one sink.

    For each free-coordinate mask, vertices whose outmap misses the mask are
    face sinks; grouping them by anchor must cover every anchor exactly once.
    """
    size = 1 << n
    vertices = np.arange(size, dtype=np.uint32)
    for free in range(1, size):
        sinks = vertices[(table & free) == 0]
        anchors = sinks & ~np.uint32(free)
        counts = np.bincount(anchors, minlength=size)
        valid = (vertices & free) == 0
        bad = np.nonzero(valid & (counts != 1))[0]
        if bad.size:
            anchor = int(bad[0])
            face = Face(anchor, free)
            wit = [v for v in face.vertices() if not int(table[v]) & free]
            return False, {"anchor": vertex_text(anchor, n), "free": vertex_text(free, n),
                           "sinks": [vertex_text(v, n) for v in wit]}
    return True, None


def _pairwise_uso(table: np.ndarray, n: int, block: int = 1 << 12):
    """Outmap criterion over all vertex pairs, blockwise."""
    size = 1 << n
    vertices = np.arange(size, dtype=np.uint32)
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        u = vertices[lo:hi, None]
        su = table[lo:hi, None]
        conflict = ((su ^ table[None, :]) & (u ^ vertices[None, :])) == 0
        conflict[np.arange(hi - lo), np.arange(lo, hi)] = False
        bad = np.argwhere(conflict)
        if bad.size:
            a, b = int(bad[0][0] + lo), int(bad[0][1])
            return False, {"pair": [vertex_text(a, n), vertex_text(b, n)]}
    return True, None


def check_uso_exhaustive(oracle: OrientationOracle, cap: int = USO_EXHAUSTIVE_CAP,
                         mode: str = "auto") -> VerificationReport:
    """Exhaustive USO check.

    mode "ground" runs the face-sink count, "pairwise" the outmap criterion,
    "auto" the pairwise check cross-validated against ground truth when the
    cube is small enough.
    """
    n = oracle.dimension
    report = VerificationReport("uso_exhaustive")
    started = time.perf_counter()
    if n > cap:
        raise VerifierError(
            f"dimension {n} above exhaustive cap {cap}; use check_uso_sampled")
    table = outmap_table(oracle)
    if mode in ("ground", "auto") and (mode == "ground" or n <= CROSS_VALIDATE_CAP):
        ok, witness = _face_count_uso(table, n)
        report.add("face_sink_count", ok, witness)
    if mode in ("pairwise", "auto"):
        ok, witness = _pairwise_uso(table, n)
        report.add("pairwise_outmap", ok, witness)
    if mode == "auto" and n <= CROSS_VALIDATE_CAP:
        a, b = report.checks[-2].passed, report.checks[-1].passed
        report.add("cross_validation", a == b,
                   None if a == b else {"ground": a, "pairwise": b})
    report.elapsed = time.perf_counter() - started
    return report


def check_acyclic(oracle: OrientationOracle, cap: int = ACYCLIC_CAP) -> VerificationReport:
    """Depth-first search over the directed edge relation; reports a cycle
    witness (vertex sequence) on failure."""
    n = oracle.dimension
    if n > cap:
        raise VerifierError(f"dimension {n} above acyclicity cap {cap}")
    report = VerificationReport("acyclic")
    started = time.perf_counter()
    size = 1 << n
    table = [oracle.evaluate(v) for v in range(size)]
    color = bytearray(size)  # 0 unvisited, 1 on stack, 2 done
    parent = {}
    cycle = None
    for root in range(size):
        if cycle is not None:
            break
        if color[root]:
            continue
        stack = [(root, 0)]
        color[root] = 1
        while stack and cycle is None:
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
                        cycle = [vertex_text(x, n) for x in reversed(path)]
                    elif color[w] == 0:
                        color[w] = 1
                        parent[w] = v
                        stack.append((w, 0))
                    advanced = True
                    break
                c += 1
            if not advanced:
                color[v] = 2
                stack.pop()
    report.add("acyclic", cycle is None, None if cycle is None else {"cycle": cycle})
    report.elapsed = time.perf_counter() - started
    return report


def sample_faces(n: int, samples: int, max_face_dim: int, seed: int) -> list[Face]:
    """Deterministic face sample: dimension uniform in [1..max_face_dim],
    then free coordinates and anchor uniform."""
    rng = random.Random(seed)
    faces = []
    for _ in range(samples):
        k = rng.randint(1, min(max_face_dim, n))
        free = 0
        for c in rng.sample(range(n), k):
            free |= 1 << c
        anchor = rng.getrandbits(n) & ~free
        faces.append(Face(anchor, free))
    return faces


def check_uso_sampled(oracle: OrientationOracle, samples: int, max_face_dim: int,
                      seed: int, workers: int = 1) -> VerificationReport:
    """Unique-sink check on a seeded random sample of small faces."""
    if max_face_dim > SAMPLED_MAX_FACE_DIM:
        raise VerifierError(f"max_face_dim above {SAMPLED_MAX_FACE_DIM}")
    n = oracle.dimension
    report = VerificationReport("uso_sampled")
    started = time.perf_counter()
    faces = sample_faces(n, samples, max_face_dim, seed)

    def run_shard(shard):
        for face in shard:
            count = sum(1 for v in face.vertices() if not oracle.evaluate(v) & face.free)
            if count != 1:
                return face, count
        return None

    bad = None
    if workers > 1:
        shards = [faces[i::workers] for i in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(run_shard, shards):
                if result and not bad:
                    bad = result
    else:
        bad = run_shard(faces)
    if bad:
        face, count = bad
        report.add("sampled_unique_sink", False,
                   {"anchor": vertex_text(face.anchor, n),
                    "free": vertex_text(face.free, n), "sink_count": count})
    else:
        report.add("sampled_unique_sink", True,
                   details=f"{samples} faces, dim<={max_face_dim}, seed={seed}")
    report.elapsed = time.perf_counter() - started
    return report


def check_trace_properties(level, trace, lower_trace=None) -> VerificationReport:
    """Family behavioral suite for a realized level's trace.

    level is a ConstructionLevel (duck-typed); lower_trace is the realizing
    trace of the previous level, required for the projection checks at
    level >= 1.
    """
    family = level.family
    report = VerificationReport(f"trace_properties_{family}_{level.level}")
    started = time.perf_counter()
    if family == "zadeh":
        _zadeh_trace_checks(report, level, trace, lower_trace)
    elif family == "johnson":
        _johnson_trace_checks(report, level, trace)
    else:
        _projection_check(report, level, trace, lower_trace)
    report.elapsed = time.perf_counter() - started
    return report


def _inner_steps(level, trace):
    inner_dim = level.dimension - level.bundle_size
    return [s for s in trace.steps if s.direction.coord < inner_dim]


def _projection_check(report, level, trace, lower_trace):
    """The inner-direction subsequence is the lower path, then the gadget
    return walk, then the lower path again."""
    if level.level == 0:
        report.add("projection", True, details="base level, vacuous")
        return
    if lower_trace is None:
        report.add("projection", False, {"error": "lower trace required"})
        return
    inner_dim = level.dimension - level.bundle_size
    inner_mask = (1 << inner_dim) - 1
    inner = _inner_steps(level, trace)
    lower_dirs = lower_trace.directions()
    k = len(lower_dirs)
    ok = len(inner) >= 2 * k
    ok = ok and [s.direction for s in inner[:k]] == lower_dirs
    ok = ok and [s.direction for s in inner[len(inner) - k:]] == lower_dirs
    middle = inner[k:len(inner) - k]
    # The gadget walk starts at the lower sink, ends at the lower start, and
    # every move happens inside the gadget face.
    if ok and middle:
        ok = (middle[0].vertex & inner_mask) == lower_trace.end
        gadget_pos = level.gadget_anchor
        for s in middle:
            ok = ok and (s.vertex & ~inner_mask) == gadget_pos
        after_last = middle[-1].vertex ^ (1 << middle[-1].direction.coord)
        ok = ok and (after_last & inner_mask) == lower_trace.start
    report.add("projection_twice", ok,
               None if ok else {"inner_steps": len(inner), "lower": k})


def _zadeh_replay(level, trace):
    """One replay of the run.  Returns the saturated indices (index i is
    saturated when the vertex before step i is D+-saturated, balance against
    the most used direction overall), whether every saturated vertex whose
    inner part is still active escapes through the innermost bundle to a
    vertex that is not inner-saturated and still inner-active, and the final
    state."""
    size = level.bundle_size
    inner_mask = (1 << (level.dimension - size)) - 1
    in_dirs = [Direction(c, s) for c in range(level.dimension - size)
               for s in (True, False)]
    st = level.rule_state()
    sat = []
    escapes = True
    escaping = False  # the previous vertex was saturated and inner-active
    for i, (v, step) in enumerate(replay(trace, st)):
        if escaping:
            escapes = escapes and not is_saturated(level.oracle, v, st, in_dirs)
            escapes = escapes and bool(level.oracle.evaluate(v) & inner_mask)
        escaping = False
        # The sink is trivially saturated.
        if step is None or is_saturated(level.oracle, v, st, st.tie_list):
            sat.append(i)
            escaping = step is not None and bool(level.oracle.evaluate(v) & inner_mask)
            escapes = escapes and (not escaping or step.direction.coord < size)
    return sat, escapes, st


def _zadeh_trace_checks(report, level, trace, lower_trace):
    size = level.bundle_size
    sat, escapes, final_state = _zadeh_replay(level, trace)
    # Between consecutive saturated vertices: the newest
    # bundle's directions are each used at most once (inner bundles satisfy
    # this recursively at their own level), fewer than 2n distinct
    # directions are touched, and the top usage count grows by at most one.
    top = {Direction(level.level * size + k, s)
           for k in range(size) for s in (True, False)}
    ok = True
    max_before = 0
    usage: dict = {}
    for a, b in zip(sat, sat[1:]):
        segment = [s.direction for s in trace.steps[a:b]]
        new_bundle = [d for d in segment if d in top]
        ok = ok and len(set(new_bundle)) == len(new_bundle)
        ok = ok and len(set(segment)) <= 2 * level.dimension - 1
        for d in segment:
            usage[d] = usage.get(d, 0) + 1
        max_after = max(usage.values())
        ok = ok and max_after <= max_before + 1
        max_before = max_after
    report.add("saturated_segment_usage", ok, None if ok else {"saturated": sat})
    # At the sink, exactly the -c^3..-c^6 of every bundle lag one use
    # behind; everything else is balanced.
    im = {Direction(j * size + k, False)
          for j in range(level.level + 1) for k in range(2, size)}
    ok = all(balance_of(final_state, d) == (1 if d in im else 0)
             for d in final_state.tie_list)
    report.add("final_balance_deficits", ok,
               None if ok else {"balances": {str(d): balance_of(final_state, d)
                                             for d in final_state.tie_list}})
    if level.level == 0:
        # An interior saturated vertex exists and the sink is at least two
        # steps past the last one.
        interior = [i for i in sat[:-1] if i > 0]
        ok = bool(interior) and len(trace.steps) - max(interior) >= 2
        report.add("interior_saturated_vertex", ok, None if ok else {"saturated": sat})
    else:
        _projection_check(report, level, trace, lower_trace)
        report.add("saturated_escape_moves", escapes)


def _johnson_trace_checks(report, level, trace):
    size = level.bundle_size
    bundles = level.level + 1
    vertices = trace.vertices()
    dirs = trace.directions()
    # +c_b^k with k >= 2 immediately follows +c_b^{k-1}: the positives of
    # a bundle always run as one consecutive block.
    ok = all(
        not (d.positive and d.coord % size)
        or (i > 0 and dirs[i - 1] == Direction(d.coord - 1, True))
        for i, d in enumerate(dirs))
    report.add("positive_blocks_consecutive", ok)
    # From a full bundle whose lower subtoken is not yet at its sink, the
    # bundle's negatives run consecutively as -1,-2,-3,-4.
    ok = True
    for i, d in enumerate(dirs):
        if d.positive or d.coord % size or d.coord < size:
            continue
        b = d.coord // size
        bundle_mask = ((1 << size) - 1) << (b * size)
        lower_sink = _johnson_sink_pattern(b, size)
        lower_mask = (1 << (b * size)) - 1
        if (vertices[i] & bundle_mask) == bundle_mask \
                and (vertices[i] & lower_mask) != lower_sink:
            block = dirs[i:i + size]
            want = [Direction(b * size + k, False) for k in range(size)]
            ok = ok and block == want
    report.add("negative_blocks_consecutive", ok)
    # From any point where the token misses a whole coordinate prefix, the
    # next uses of those positive directions come in lexicographic order.
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
                        break  # every later use is a reuse
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
    # Whenever a subtoken reaches its sink while the next bundle is active,
    # h(-c_j'^1) < h(-c_j'^4) < h(-c_{j'+1}^2) holds for every prefix bundle.
    ok = _johnson_resettable_check(level, trace)
    report.add("reset_history_ordering", ok)
    # Exactly one top-level reset, walking -c_0^1,-c_0^4,...,-c^1,-c^4.
    if level.level >= 1:
        reset = []
        for j in range(bundles - 1):
            reset.append(Direction(j * size, False))
            reset.append(Direction(j * size + 3, False))
        count = sum(1 for i in range(len(dirs) - len(reset) + 1)
                    if dirs[i:i + len(reset)] == reset)
        report.add("single_reset_in_order", count == 1,
                   None if count == 1 else {"count": count})


def _johnson_sink_pattern(bundles: int, size: int) -> int:
    """{c^1, c^4} of every bundle below `bundles`."""
    out = 0
    for j in range(bundles):
        out |= (1 << (j * size)) | (1 << (j * size + 3))
    return out


def _johnson_resettable_check(level, trace) -> bool:
    size = level.bundle_size
    bundles = level.level + 1
    st = level.rule_state()
    positions = replay(trace, st)
    prev, _ = next(positions)
    for v, _ in positions:
        for j in range(bundles - 1):
            pattern = _johnson_sink_pattern(j + 1, size)
            mask = (1 << ((j + 1) * size)) - 1
            if (v & mask) != pattern or (prev & mask) == pattern:
                continue  # not a fresh arrival at t_j's sink
            next_bundle = ((1 << size) - 1) << ((j + 1) * size)
            if not level.oracle.evaluate(v) & next_bundle:
                continue  # next bundle inactive: condition does not apply
            h = st.last_step
            for jp in range(j + 1):
                a = h[Direction(jp * size, False)]
                b = h[Direction(jp * size + 3, False)]
                c = h[Direction((jp + 1) * size + 1, False)]
                if not a < b < c:
                    return False
        prev = v
    return True


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
