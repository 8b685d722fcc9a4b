import copy
import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from ausokit import verifier
from ausokit.combinators import ProductOracle, ReorientedOracle
from ausokit.constructions import realize_range
from ausokit.cube_core import (
    IllegalMoveError,
    TableOracle,
    UniformOracle,
    parse_vertex,
    vertex_text,
)
from ausokit.verifier import (
    CROSS_VALIDATE_CAP,
    VerifierError,
    _dfs_cycle,
    _face_count_uso,
    _kahn_acyclic,
    _pairwise_uso,
    check_acyclic,
    check_growth,
    check_trace_properties,
    check_uso_exhaustive,
    check_uso_sampled,
    outmap_table,
    sample_faces,
)
from directions import DIRECTIONS, directions
from reference import face_vertices


class _Counting:
    """Passes each batch to an oracle and records the batch's size."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.dimension = oracle.dimension
        self.sizes = []

    def evaluate_many(self, vs):
        self.sizes.append(len(vs))
        return self.oracle.evaluate_many(vs)


def _ground(oracle):
    """The face-sink count's verdict and witness on the whole cube."""
    return _face_count_uso(outmap_table(oracle), oracle.dimension)


def _pairwise(oracle):
    """The pairwise outmap criterion's verdict and witness on the whole cube."""
    return _pairwise_uso(outmap_table(oracle), oracle.dimension)


def test_uniform_4cube_passes_both_modes():
    o = UniformOracle(4, 0b0101)
    assert _ground(o)[0] and _pairwise(o)[0]
    assert check_uso_exhaustive(o).passed


def _corrupt_edge(table, v, c):
    """Flip one endpoint's view of the edge {v, v^c}: the corrupted oracle
    claims the edge outgoing (or not) at v without fixing the other side."""
    table[v] ^= 1 << c
    return table


def test_corrupted_edge_next_to_sink_fails_with_witness():
    o = UniformOracle(4, 0)
    table = [o.evaluate(v) for v in range(16)]
    broken = TableOracle(4, _corrupt_edge(table, 0, 2))
    passed, witness = _ground(broken)
    assert not passed
    # the witness face re-fails when checked in isolation
    free = parse_vertex(witness["free"])
    sinks = [v for v in face_vertices(parse_vertex(witness["anchor"]), free)
             if not broken.evaluate(v) & free]
    assert len(sinks) != 1
    # the pairwise criterion agrees the oracle is broken
    assert not _pairwise(broken)[0]


def test_ground_truth_and_pairwise_agree_on_random_tables():
    rng = random.Random(41)
    agree = 0
    for _ in range(1000):
        table = [rng.getrandbits(4) for _ in range(16)]
        # repair edge consistency so the table is an orientation at all
        for v in range(16):
            for c in range(4):
                bit = 1 << c
                if not v & bit:
                    w = v | bit
                    if bool(table[v] & bit) == bool(table[w] & bit):
                        table[w] ^= bit
        o = TableOracle(4, table)
        assert _ground(o)[0] == _pairwise(o)[0]
        agree += 1
    assert agree == 1000


def test_sampled_full_coverage_matches_exhaustive():
    # with samples >= 3^n and max_face_dim = n the sample covers every face
    # with overwhelming probability, so the verdicts must agree
    for sink in (0, 0b101):
        o = UniformOracle(3, sink)
        table = [o.evaluate(v) for v in range(8)]
        ok = TableOracle(3, list(table))
        bad = TableOracle(3, _corrupt_edge(list(table), 0b010, 0))
        for oracle in (ok, bad):
            exhaustive = _ground(oracle)[0]
            sampled = check_uso_sampled(oracle, samples=3 ** 3 * 20,
                                        max_face_dim=3, seed=13).passed
            assert exhaustive == sampled


def _random_orientation(rng, n):
    """Edge-consistent and acyclic: every edge points to the lower rank."""
    rank = list(range(1 << n))
    rng.shuffle(rank)
    return [sum(1 << c for c in range(n) if rank[v ^ (1 << c)] < rank[v])
            for v in range(1 << n)]


def test_kahn_agrees_with_dfs():
    rng = random.Random(23)
    verdicts = []
    for trial in range(400):
        n = rng.randint(1, 6)
        table = _random_orientation(rng, n)
        for _ in range(trial % 4):
            v, c = rng.getrandbits(n), rng.randrange(n)
            if trial % 2:
                table[v] ^= 1 << c  # one endpoint changes its claim
            else:  # reverse the edge: may close a cycle
                table[v] ^= 1 << c
                table[v ^ (1 << c)] ^= 1 << c
        if trial % 5 == 0:  # both endpoints claim one edge
            v, c = rng.getrandbits(n), rng.randrange(n)
            table[v] |= 1 << c
            table[v ^ (1 << c)] |= 1 << c
        kahn = _kahn_acyclic(np.array(table, dtype=np.uint64), n)
        assert kahn == (_dfs_cycle(table, n) is None), (n, table)
        verdicts.append(kahn)
    assert 50 < sum(verdicts) < 350


@pytest.mark.parametrize("n", range(9, 15))
def test_kahn_verdict_does_not_depend_on_the_block(monkeypatch, n):
    rng = random.Random(n)
    acyclic = _random_orientation(rng, n)
    cyclic = list(acyclic)
    anchor = rng.getrandbits(n) & ~0b11
    for low, out in {0b00: 0b01, 0b01: 0b10, 0b11: 0b01, 0b10: 0b10}.items():  # 4-cycle
        cyclic[anchor | low] = (cyclic[anchor | low] & ~0b11) | out
    reversed_edges = list(acyclic)
    for _ in range(3):  # may close a cycle
        v, c = rng.getrandbits(n), rng.randrange(n)
        reversed_edges[v] ^= 1 << c
        reversed_edges[v ^ (1 << c)] ^= 1 << c
    noisy = [rng.getrandbits(n) for _ in range(1 << n)]
    verdicts = []
    for table in (acyclic, cyclic, reversed_edges, noisy):
        want = _dfs_cycle(table, n) is None
        for block in (1, 1 << 20):
            monkeypatch.setattr(verifier, "KAHN_BLOCK", block)
            assert _kahn_acyclic(np.array(table, dtype=np.uint64), n) == want
        verdicts.append(want)
    assert verdicts[:2] == [True, False] and not verdicts[3]


def test_exact_checks_read_uint32_and_uint64_tables_alike():
    """The face-sink count, the pairwise criterion and Kahn peeling give
    the same verdicts and witnesses on uint32 and uint64 copies of random,
    broken and planted-cycle tables."""
    rng = random.Random(29)
    failing = cyclic = 0
    for n in range(1, 11):
        uso = [UniformOracle(n, rng.getrandbits(n)).evaluate(v) for v in range(1 << n)]
        broken = list(uso)
        for _ in range(3):
            _corrupt_edge(broken, rng.getrandbits(n), rng.randrange(n))
        planted = _random_orientation(rng, n)
        if n >= 2:
            anchor = rng.getrandbits(n) & ~0b11
            for low, out in {0b00: 0b01, 0b01: 0b10, 0b11: 0b01, 0b10: 0b10}.items():
                planted[anchor | low] = (planted[anchor | low] & ~0b11) | out
        noisy = [rng.getrandbits(n) for _ in range(1 << n)]
        for table in (uso, broken, planted, noisy):
            wide, narrow = (np.array(table, dtype=dtype) for dtype in (np.uint64, np.uint32))
            face_count = _face_count_uso(wide, n)
            assert _face_count_uso(narrow, n) == face_count
            assert _pairwise_uso(narrow, n) == _pairwise_uso(wide, n)
            acyclic = _kahn_acyclic(wide, n)
            assert _kahn_acyclic(narrow, n) == acyclic == (_dfs_cycle(table, n) is None)
            failing += not face_count[0]
            cyclic += not acyclic
    assert failing > 20 and cyclic > 10


def test_acyclic_check_heap_stays_small():
    """The tracemalloc peak of check_acyclic on a freshly realized zadeh
    level 2 (n = 18) stays under 2.4 MB: the outmap table is uint32, and
    Kahn peeling reads it by byte planes.  A uint64 table took 3.0 MB."""
    level, _ = realize_range("zadeh", 2)[-1]
    check_acyclic(UniformOracle(CROSS_VALIDATE_CAP + 1, 0))  # first-use caches
    tracemalloc.start()
    try:
        report = check_acyclic(level.oracle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and level.dimension == 18
    assert peak < 2_400_000, peak


def _assert_directed_cycle(cycle, table):
    vertices = [parse_vertex(t) for t in cycle]
    assert len(vertices) >= 3 and vertices[0] == vertices[-1]
    for u, w in zip(vertices, vertices[1:]):
        step = u ^ w
        assert step and not step & (step - 1) and table[u] & step


def test_acyclic_planted_cycle_above_cross_validate_cap():
    n = CROSS_VALIDATE_CAP + 4
    rng = random.Random(3)
    anchor = rng.getrandbits(n) & ~0b11
    for claims in ({0b00: 0b01, 0b01: 0b10, 0b11: 0b01, 0b10: 0b10},  # 4-cycle
                   {0b00: 0b01, 0b01: 0b01}):  # both ends claim one edge
        table = _random_orientation(rng, n)
        assert check_acyclic(TableOracle(n, table)).passed
        for low, out in claims.items():
            table[anchor | low] = (table[anchor | low] & ~0b11) | out
        report = check_acyclic(TableOracle(n, table))
        assert not report.passed
        _assert_directed_cycle(report.failures()[0].witness["cycle"], table)


def test_acyclic_uniform_and_cyclic_witness():
    assert check_acyclic(UniformOracle(5, 7)).passed
    cyclic = TableOracle(2, [0b01, 0b10, 0b10, 0b01])  # 00->10->11->01->00
    report = check_acyclic(cyclic)
    assert not report.passed
    cycle = report.failures()[0].witness["cycle"]
    assert len(cycle) == 5 and cycle[0] == cycle[-1]


def test_sampled_uniform_24_cube():
    o = UniformOracle(24, 0)
    assert check_uso_sampled(o, 10000, 6, seed=3).passed


def test_sampled_targeted_corruption():
    o = UniformOracle(10, 0)
    table = [o.evaluate(v) for v in range(1 << 10)]
    broken = TableOracle(10, _corrupt_edge(table, 0b0000000011, 5))
    # seed chosen so one sampled face covers the broken edge
    seed = next(s for s in range(1000)
                if not check_uso_sampled(broken, 2000, 6, seed=s).passed)
    report = check_uso_sampled(broken, 2000, 6, seed=seed)
    assert not report.passed
    assert report.failures()[0].witness["sink_count"] != 1


def _sample(n, samples, max_face_dim, seed):
    """The whole sample, its sample_faces blocks joined in order."""
    anchors, frees = zip(*sample_faces(n, samples, max_face_dim, seed))
    return np.concatenate(anchors), np.concatenate(frees)


def test_sample_faces_digest():
    # Pins the sample itself.  The grid reaches both branches of
    # random.sample (pool below 22 coordinates or from k = 6 on, a set of
    # drawn coordinates otherwise), redraws of a duplicate coordinate, and
    # anchors of one and of two 32-bit words.
    h = hashlib.sha256()
    for n in (1, 4, 12, 21, 22, 24, 33, 48, 63):
        for max_face_dim in (1, 5, 6, 8, 10):
            for seed in (0, 7, 42):
                anchors, frees = _sample(n, 2000, max_face_dim, seed)
                h.update(f"{n},{max_face_dim},{seed}:".encode())
                h.update("".join(f"{a:x},{f:x};" for a, f in
                                 zip(anchors.tolist(), frees.tolist())).encode())
    assert h.hexdigest() == \
        "7620530f75e7b1ac09b2214ab737c17ed29c24a6556f8cfe33b5bf657c07821e"


def _reference_faces(n, samples, max_face_dim, seed):
    """The sample drawn through random.Random's own methods, face by face."""
    rng = random.Random(seed)
    faces = []
    for _ in range(samples):
        k = rng.randint(1, min(max_face_dim, n))
        free = sum(1 << c for c in rng.sample(range(n), k))
        faces.append((rng.getrandbits(n) & ~free, free))
    return faces


def test_sample_faces_replays_random():
    for n in range(1, 64):
        for max_face_dim in range(1, 11):
            for seed in (0, 1, 99):
                anchors, frees = _sample(n, 50, max_face_dim, seed)
                assert list(zip(anchors.tolist(), frees.tolist())) == \
                    _reference_faces(n, 50, max_face_dim, seed), (n, max_face_dim, seed)


def _broken_12_cube():
    """A 12-cube with 60 corrupted edges: many sampled faces fail."""
    rng = random.Random(17)
    table = [UniformOracle(12, 5).evaluate(v) for v in range(1 << 12)]
    for _ in range(60):
        _corrupt_edge(table, rng.getrandbits(12), rng.randrange(12))
    return TableOracle(12, table)


def test_sampled_deterministic_under_seed():
    anchors_a, frees_a = _sample(12, 500, 8, seed=42)
    anchors_b, frees_b = _sample(12, 500, 8, seed=42)
    assert anchors_a.dtype == frees_a.dtype == np.uint64
    assert (anchors_a == anchors_b).all() and (frees_a == frees_b).all()
    anchors_c, frees_c = _sample(12, 500, 8, seed=43)
    assert (anchors_c != anchors_a).any() or (frees_c != frees_a).any()
    # On an oracle with many broken edges, the batched check reports the
    # first failing face in sample order, as a face-by-face scan does.
    broken = _broken_12_cube()
    failing_dims = set()
    for seed in range(40, 46):
        anchors, frees = _sample(12, 500, 8, seed)
        faces = list(zip(anchors.tolist(), frees.tolist()))
        counts = [sum(1 for v in face_vertices(a, f) if not broken.evaluate(v) & f)
                  for a, f in faces]
        first = next(i for i, c in enumerate(counts) if c != 1)
        failing_dims |= {f.bit_count() for (_, f), c in zip(faces, counts) if c != 1}
        witness = check_uso_sampled(broken, 500, 8, seed).failures()[0].witness
        assert (parse_vertex(witness["anchor"]), parse_vertex(witness["free"]),
                witness["sink_count"]) == (*faces[first], counts[first])
    assert len(failing_dims) > 1  # the first failure is chosen across batches


def test_sampled_witness_does_not_depend_on_the_block(monkeypatch):
    broken = _broken_12_cube()
    witnesses = [check_uso_sampled(broken, 500, 8, seed).failures()[0].witness
                 for seed in range(40, 46)]
    monkeypatch.setattr(verifier, "VERTEX_BLOCK", 1 << 4)
    assert witnesses == [check_uso_sampled(broken, 500, 8, seed).failures()[0].witness
                         for seed in range(40, 46)]


@pytest.mark.parametrize("block", [5, 64])
def test_sampled_witness_does_not_depend_on_the_sample_block(monkeypatch, block):
    """The check stops at the first sample block that holds a failing face:
    the witness is still the first failing face in sample order."""
    broken = _broken_12_cube()
    witnesses = [check_uso_sampled(broken, 500, 8, seed).failures()[0].witness
                 for seed in range(40, 46)]
    monkeypatch.setattr(verifier, "FACE_BLOCK", block)
    assert witnesses == [check_uso_sampled(broken, 500, 8, seed).failures()[0].witness
                         for seed in range(40, 46)]


def test_sample_faces_yields_fixed_blocks(monkeypatch):
    """sample_faces yields FACE_BLOCK faces at a time, the rest last, and
    the blocks joined are the sample drawn in one block."""
    whole = _sample(12, 500, 8, seed=3)
    monkeypatch.setattr(verifier, "FACE_BLOCK", 64)
    blocks = list(sample_faces(12, 500, 8, seed=3))
    assert [len(frees) for _, frees in blocks] == [64] * 7 + [52]
    joined = _sample(12, 500, 8, seed=3)
    assert all((a == b).all() for a, b in zip(whole, joined))


def test_sampled_check_heap_does_not_grow_with_the_sample():
    """check_uso_sampled holds one sample block at a time: its tracemalloc
    peak at 80,000 faces is within 10 % of its peak at 20,000."""
    oracle = UniformOracle(24, 5)

    def peak(samples):
        tracemalloc.start()
        try:
            assert check_uso_sampled(oracle, samples, 1, seed=7).passed
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(20000), peak(80000)
    assert large <= 1.1 * small, (small, large)


def test_sampled_batches_stay_within_the_block(built_levels):
    level, _ = built_levels["johnson"][3]
    counting = _Counting(level.oracle)
    assert check_uso_sampled(counting, 3000, 10, seed=1).passed
    assert max(counting.sizes) <= verifier.VERTEX_BLOCK
    assert sum(counting.sizes) > 4 * verifier.VERTEX_BLOCK  # the sample spans many blocks


def _random_composition(rng):
    """A 10-cube orientation (not necessarily a USO): a random 4-cube table,
    twice a product with 3-cube frames on sparse overrides followed by a
    reorientation of the low 3-face at a random anchor."""
    oracle = TableOracle(4, [rng.getrandbits(4) for _ in range(16)])
    for _ in range(2):
        n = oracle.dimension
        pool = [UniformOracle(3, rng.getrandbits(3)),
                TableOracle(3, [rng.getrandbits(3) for _ in range(8)])]
        overrides = {rng.getrandbits(n): rng.choice(pool) for _ in range(6)}
        oracle = ProductOracle(oracle, rng.choice(pool), overrides)
        oracle = ReorientedOracle(
            oracle, rng.getrandbits(n + 3) & ~0b111,
            TableOracle(3, [rng.getrandbits(3) for _ in range(8)]),
            rng.getrandbits(n + 3) & ~0b111)
    return oracle


def test_outmap_table_is_filled_block_by_block(monkeypatch):
    monkeypatch.setattr(verifier, "VERTEX_BLOCK", 1 << 4)
    rng = random.Random(5)
    for _ in range(5):
        oracle = _random_composition(rng)
        counting = _Counting(oracle)
        table = outmap_table(counting)
        assert oracle.dimension == 10 and table.dtype == np.uint32
        assert table.tolist() == [oracle.evaluate(v) for v in range(1 << 10)]
        assert max(counting.sizes) <= 1 << 4 and sum(counting.sizes) == 1 << 10


def test_pairwise_witness_does_not_depend_on_the_rows(monkeypatch):
    rng = random.Random(8)
    table = [UniformOracle(10, 0b1001).evaluate(v) for v in range(1 << 10)]
    for _ in range(5):
        _corrupt_edge(table, rng.getrandbits(10), rng.randrange(10))
    table = np.array(table, dtype=np.uint64)
    witnesses = []
    for rows in (1, 1 << 6, 1 << 10):
        monkeypatch.setattr(verifier, "PAIRWISE_ROWS", rows)
        witnesses.append(_pairwise_uso(table, 10))
    assert not witnesses[0][0] and witnesses[0][1]["pair"]
    assert witnesses[1:] == witnesses[:1] * 2


def _first_conflict(table, n):
    """The first pair u != v in row-major order over all ordered pairs with
    ((s(u) ^ s(v)) & (u ^ v)) == 0, or None."""
    t = np.array(table, dtype=np.int64)
    v = np.arange(1 << n)
    conflict = ((t[:, None] ^ t[None, :]) & (v[:, None] ^ v[None, :])) == 0
    np.fill_diagonal(conflict, False)
    bad = np.argwhere(conflict)
    return tuple(bad[0].tolist()) if bad.size else None


def test_pairwise_witness_is_the_first_pair_of_a_full_scan(monkeypatch):
    """The check reads the pairs u < v only; its witness is still the first
    conflict of a scan over every ordered pair, whose later rows also hold
    conflicts below the diagonal."""
    rng = random.Random(12)
    below = 0
    for n in range(1, 11):
        for trial in range(6):
            if trial < 2:  # arbitrary outmaps: conflicts almost everywhere
                table = [rng.getrandbits(n) for _ in range(1 << n)]
            else:  # a USO with a few one-sided edge claims
                table = [UniformOracle(n, rng.getrandbits(n)).evaluate(v)
                         for v in range(1 << n)]
                for _ in range(trial - 1):
                    _corrupt_edge(table, rng.getrandbits(n), rng.randrange(n))
            want = _first_conflict(table, n)
            for rows in (1, 3, 1 << 6):
                monkeypatch.setattr(verifier, "PAIRWISE_ROWS", rows)
                ok, witness = _pairwise_uso(np.array(table, dtype=np.uint64), n)
                assert ok == (want is None), (n, trial)
                if want is not None:
                    assert [parse_vertex(t) for t in witness["pair"]] == list(want)
            if want is not None:
                t, v = np.array(table), np.arange(1 << n)
                later = ((t[want[0] + 1:, None] ^ t) & (v[want[0] + 1:, None] ^ v)) == 0
                below += int(np.tril(later, want[0]).any())
    assert below > 10  # conflicts below the diagonal did occur


def _face_count_reference(table, n):
    """One free mask at a time: the first mask, ascending, with an anchor
    whose face does not have exactly one sink, and its lowest such anchor."""
    size = 1 << n
    vertices = np.arange(size)
    for free in range(1, size):
        sinks = vertices[(table & free) == 0]
        counts = np.bincount(sinks & ~free, minlength=size)
        bad = np.flatnonzero(((vertices & free) == 0) & (counts != 1))
        if bad.size:
            return vertex_text(int(bad[0]), n), vertex_text(free, n)
    return None


def test_face_count_witness_matches_one_mask_at_a_time(monkeypatch):
    rng = random.Random(31)
    failing = 0
    for n in range(1, 9):
        for trial in range(5):
            table = [UniformOracle(n, rng.getrandbits(n)).evaluate(v)
                     for v in range(1 << n)]
            for _ in range(trial):
                _corrupt_edge(table, rng.getrandbits(n), rng.randrange(n))
            if trial == 4:
                table = [rng.getrandbits(n) for _ in range(1 << n)]
            table = np.array(table, dtype=np.uint64)
            want = _face_count_reference(table.astype(np.int64), n)
            failing += want is not None
            for block in (1, 1 << 5, 1 << 14):
                monkeypatch.setattr(verifier, "VERTEX_BLOCK", block)
                ok, witness = _face_count_uso(table, n)
                assert ok == (want is None), (n, trial, block)
                if want is not None:
                    assert (witness["anchor"], witness["free"]) == want
                    free = parse_vertex(witness["free"])
                    sinks = [v for v in face_vertices(parse_vertex(witness["anchor"]), free)
                             if not int(table[v]) & free]
                    assert [parse_vertex(t) for t in witness["sinks"]] == sinks
                    assert len(sinks) != 1
    assert failing > 20


def test_caps_raise():
    with pytest.raises(VerifierError):
        check_uso_exhaustive(UniformOracle(16, 0))
    with pytest.raises(VerifierError):
        check_acyclic(UniformOracle(22, 0))
    with pytest.raises(VerifierError, match="uint32"):
        outmap_table(UniformOracle(33, 0))
    # max_face_dim above the cap, and empty samples: refused, not passed
    for samples, max_face_dim in ((10, 11), (0, 6), (-3, 6), (10, 0)):
        with pytest.raises(VerifierError):
            check_uso_sampled(UniformOracle(12, 0), samples, max_face_dim, seed=0)


def test_check_growth():
    good = [(0, 4, 5), (1, 8, 20), (2, 12, 71)]
    assert check_growth(good, 4).passed
    stalled = [(0, 4, 5), (1, 8, 10)]
    report = check_growth(stalled, 4)
    assert not report.passed
    single = check_growth([(0, 4, 5)], 4)
    assert single.passed  # vacuous recursion, bound only


def test_trace_properties_all_levels(built_levels):
    for family, chain in built_levels.items():
        prev = None
        for level, trace in chain:
            report = check_trace_properties(level, trace, prev)
            assert report.passed, (family, level.level,
                                   [c.name for c in report.failures()])
            prev = trace


def test_trace_properties_detect_tampering(built_levels):
    level, trace = built_levels["zadeh"][1]
    import copy
    bad = copy.deepcopy(trace)
    bad.moves = bytearray(bad.moves)
    bad.moves[5], bad.moves[6] = bad.moves[6], bad.moves[5]
    report = check_trace_properties(level, bad, built_levels["zadeh"][0][1])
    assert not report.passed


def _projection_reference(level, trace, lower_trace):
    """The projection check on (vertex, direction) pairs, the directions of
    the bits Trace.walk() gives."""
    inner_dim = level.dimension - level.bundle_size
    inner_mask = (1 << inner_dim) - 1
    inner = [(v, DIRECTIONS[b]) for v, b in trace.walk()
             if b is not None and b & 63 < inner_dim]
    lower_dirs = directions(lower_trace)
    k = len(lower_dirs)
    ok = len(inner) >= 2 * k
    ok = ok and [d for _, d in inner[:k]] == lower_dirs
    ok = ok and [d for _, d in inner[len(inner) - k:]] == lower_dirs
    middle = inner[k:len(inner) - k]
    if ok and middle:
        ok = (middle[0][0] & inner_mask) == lower_trace.end
        anchor = level.spec.gadget_anchor << inner_dim
        ok = ok and all((v & ~inner_mask) == anchor for v, _ in middle)
        v, d = middle[-1]
        ok = ok and (v ^ 1 << d.coord) & inner_mask == lower_trace.start
    return ok


@pytest.mark.parametrize("family", ["cunningham", "johnson", "zadeh"])
def test_projection_check_matches_walk_reference(built_levels, family):
    """On each level's trace and on copies with two neighbouring moves
    swapped, in the trace or in the lower trace, with one move's sign
    flipped, or with another lower start or sink, the byte-level projection check gives the walk's verdict, and
    raises IllegalMoveError where the walk does."""
    rng = random.Random(11)
    chain = built_levels[family]
    seen = set()
    for (_, lower), (level, trace) in zip(chain, chain[1:]):
        cases = [(trace, lower)]
        for t in (trace,) * 60 + (lower,) * 20:
            bad = copy.deepcopy(t)
            bad.moves = bytearray(bad.moves)
            i = rng.randrange(len(bad) - 1)
            bad.moves[i], bad.moves[i + 1] = bad.moves[i + 1], bad.moves[i]
            cases.append((bad, lower) if t is trace else (trace, bad))
        for i in rng.sample(range(len(trace)), 5):
            bad = copy.deepcopy(trace)
            bad.moves = bytearray(bad.moves)
            bad.moves[i] ^= 64
            cases.append((bad, lower))
        for end in ("start", "end"):  # where the gadget walk must end or start
            bad = copy.deepcopy(lower)
            setattr(bad, end, getattr(bad, end) ^ 1)
            cases.append((trace, bad))
        for t, lo in cases:
            try:
                want = _projection_reference(level, t, lo)
            except IllegalMoveError:
                with pytest.raises(IllegalMoveError):
                    check_trace_properties(level, t, lo)
                seen.add("illegal")
                continue
            report = check_trace_properties(level, t, lo)
            assert [c.passed for c in report.checks if c.name == "projection_twice"] == [want]
            seen.add(want)
    assert seen == {True, False, "illegal"}


def test_johnson_suite_ties_each_level_to_the_one_below():
    """The Johnson suite runs the projection check above level 0: the
    packaged levels 1..8 pass it, and every copy of the trace of a level
    0..5, with two neighbouring moves swapped or one move's sign flipped,
    fails it as the lower trace of the next level or raises IllegalMoveError."""
    rng = random.Random(29)
    chain = realize_range("johnson", 8)
    for (_, lower), (level, trace) in zip(chain, chain[1:]):
        report = check_trace_properties(level, trace, lower)
        assert report.passed and "projection_twice" in [c.name for c in report.checks]
        if level.level > 6:
            continue
        for i in rng.sample(range(len(lower) - 1), min(len(lower) - 1, 15)):
            for flip in (False, True):
                bad = copy.deepcopy(lower)
                bad.moves = bytearray(bad.moves)
                if flip:
                    bad.moves[i] ^= 64
                else:
                    bad.moves[i], bad.moves[i + 1] = bad.moves[i + 1], bad.moves[i]
                try:
                    report = check_trace_properties(level, trace, bad)
                except IllegalMoveError:
                    continue
                assert [c.passed for c in report.checks
                        if c.name == "projection_twice"] == [False]


def test_cunningham_level0_suite_walks_the_trace(built_levels):
    """Cunningham's level-0 suite has no lower level to project on, but it
    walks the trace: each copy with one move's sign flipped raises."""
    level, trace = built_levels["cunningham"][0]
    assert check_trace_properties(level, trace).passed
    for i in range(len(trace)):
        bad = copy.deepcopy(trace)
        bad.moves = bytearray(bad.moves)
        bad.moves[i] ^= 64
        with pytest.raises(IllegalMoveError):
            check_trace_properties(level, bad)


def test_report_merge_and_json():
    a = check_acyclic(UniformOracle(3, 0))
    b = check_acyclic(UniformOracle(3, 5))
    merged = a.merge(b)
    assert merged.passed and len(merged.checks) == 2
    payload = merged.to_json()
    assert '"passed": true' in payload


def test_sampled_full_coverage_n4():
    table = [UniformOracle(4, 0b1100).evaluate(v) for v in range(16)]
    good = TableOracle(4, list(table))
    bad = TableOracle(4, _corrupt_edge(list(table), 0b0011, 3))
    for oracle in (good, bad):
        exhaustive = _ground(oracle)[0]
        sampled = check_uso_sampled(oracle, samples=3 ** 4 * 20,
                                    max_face_dim=4, seed=9).passed
        assert exhaustive == sampled
