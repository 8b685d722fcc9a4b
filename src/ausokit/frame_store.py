"""Bit-exact storage and validation of the small explicit AUSOs.

The frame files are hand-transcribed data: a frame is the all-forward
orientation minus an explicit list of backward edges.  A transcription is
trusted only after validate_family passes every structural and scripted-walk
constraint for its family; any failure means the data is wrong, not the code.
Each family's facts (its frames, the positions the builder keys on, its tie
order, rule and suites) are one `Family` record in FAMILY, and both of its
suites, the frame suite and the trace suite, read them from that record.

File format (UTF-8, line based):
    dim <n>               first non-comment line
    back <bits> <k>       backward edge between <bits> (bit k zero) and
                          <bits> with bit k set, oriented toward <bits>;
                          k is 1-based, leftmost bit is coordinate 1
    label <name> <bits>   named position, each name once
    # comment / blank     ignored
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .cube_core import (
    CubeError,
    Face,
    TableOracle,
    direction_text,
    face_sink,
    parse_direction,
    parse_vertex,
    vertex_text,
)
from .pivot_engine import (
    CunninghamState,
    JohnsonState,
    ZadehState,
    balance_of,
    is_saturated,
    replay,
    run_to_sink,
)
from .verifier import VerificationReport, check_acyclic, check_uso_exhaustive

ENV_FRAMES_DIR = "AUSOKIT_FRAMES_DIR"

# CPython's own SHA-256, the one hashlib falls back to without OpenSSL:
# hashlib.sha256 sets OpenSSL up on its first call, some 1 MB resident.
_sha256 = importlib.import_module(
    "_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256


class FrameParseError(CubeError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Family:
    """One lower-bound family: every fact of it that the builder, the frame
    gate, the rule and the trace suite read.  Positions are bundle-local bit sets."""

    name: str
    bundle_size: int  # the dim of its frames: a level adds one bundle
    stems: tuple[str, ...]  # its frame files are <name>_<stem>.frame
    base: str  # level 0's frame
    default: str  # the frame of the lower sink and of every unassigned inner vertex
    reset: str | None  # the frame R_1 of the reset gadget R_level; None: uniform gadget
    box1: int  # the start in every bundle; the adversary assigns f1 to a vertex entered here
    box5: int | None  # ... and f2 here; None: Zadeh's saturation test picks f2 or f1
    hypersink: int | None  # ... and nothing here; None: nowhere
    gadget_anchor: int  # ... nor here: the low face a level replaces
    gadget_external: int  # that face's external outmap in every connecting frame
    tie_pattern: str  # one bundle's tie order, "+k" / "-k" with k 1-based
    deficits: str | None  # Zadeh: one bundle's directions that lag one use at the sink
    rule: type  # the pivot rule's state class
    frame_suite: object  # frame_suite(family, frames) -> VerificationReport
    trace_checks: object  # trace_checks(report, level, trace, lower_trace)

    def tie_order(self, level: int) -> bytes:
        """The move bits of the tie pattern of each bundle up to `level`,
        earlier bundles first."""
        return b"".join(_moves(j, self.tie_pattern, self.bundle_size) for j in range(level + 1))

    def start(self, level: int) -> int:
        """The run's start at `level`: box1 in each of its bundles."""
        return sum(self.box1 << j * self.bundle_size for j in range(level + 1))

    def rule_state(self, level: int):
        """A fresh state of the family's pivot rule at `level`."""
        return self.rule(self.tie_order(level))


@dataclass
class FrameSpec:
    dim: int
    backward_edges: list[tuple[int, int]] = field(default_factory=list)  # (bits, k 1-based)
    labels: dict[str, int] = field(default_factory=dict)
    sha256: str = ""  # of the file bytes it was parsed from; set by load_family


def parse_frame(text: str) -> FrameSpec:
    dim = None
    backs: list[tuple[int, int]] = []
    labels: dict[str, int] = {}
    seen = set()

    def vertex(word: str) -> int:  # the vertex a `dim`-bit word on line line_no names
        if len(word) != dim:
            raise FrameParseError(f"vertex width {len(word)} does not match dim {dim}", line_no)
        try:
            return parse_vertex(word)
        except CubeError as exc:
            raise FrameParseError(str(exc), line_no) from exc

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if dim is None:
            if parts[0] != "dim" or len(parts) != 2 or not _decimal(parts[1]):
                raise FrameParseError("expected 'dim <n>'", line_no)
            dim = int(parts[1])
            continue
        if parts[0] == "back":
            if len(parts) != 3:
                raise FrameParseError("expected 'back <bits> <k>'", line_no)
            bits_text, bits = parts[1], vertex(parts[1])
            if not _decimal(parts[2]):
                raise FrameParseError(f"coordinate {parts[2]!r} is not a decimal number", line_no)
            k = int(parts[2])
            if not 1 <= k <= dim:
                raise FrameParseError(f"coordinate {k} outside 1..{dim}", line_no)
            if bits & (1 << (k - 1)):
                raise FrameParseError(f"bit {k} must be 0 in {bits_text}", line_no)
            if (bits, k) in seen:
                raise FrameParseError(f"duplicate edge {bits_text} {k}", line_no)
            seen.add((bits, k))
            backs.append((bits, k))
        elif parts[0] == "label":
            if len(parts) != 3:
                raise FrameParseError("expected 'label <name> <bits>'", line_no)
            if parts[1] in labels:
                raise FrameParseError(f"duplicate label {parts[1]}", line_no)
            labels[parts[1]] = vertex(parts[2])
        else:
            raise FrameParseError(f"unknown directive {parts[0]!r}", line_no)
    if dim is None:
        raise FrameParseError("missing 'dim' line", 1)
    return FrameSpec(dim, backs, labels)


def _decimal(word: str) -> bool:
    """ASCII decimal digits only: int() also takes '²', '1_0' and '+1'."""
    return word.isascii() and word.isdecimal()


def oracle_from_spec(spec: FrameSpec) -> TableOracle:
    """Forward default minus listed backward edges, as an eager table."""
    n = spec.dim
    back_set = {(bits, k - 1) for bits, k in spec.backward_edges}
    table = []
    for v in range(1 << n):
        out = 0
        for c in range(n):
            bit = 1 << c
            if v & bit:
                if (v ^ bit, c) in back_set:  # backward edge points away from v
                    out |= bit
            else:
                if (v, c) not in back_set:  # forward edge points away from v
                    out |= bit
        table.append(out)
    return TableOracle(n, table)


def packaged_frames_dir() -> Path:
    return Path(__file__).parent / "frames"


def resolve_frames_dir(explicit=None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_FRAMES_DIR)
    if env:
        return Path(env)
    return packaged_frames_dir()


def frame_file_sha256(path) -> str:
    return _sha256(Path(path).read_bytes()).hexdigest()


def load_family(family: str, frames_dir=None) -> dict[str, tuple[FrameSpec, TableOracle]]:
    frames_dir, size = resolve_frames_dir(frames_dir), FAMILY[family].bundle_size
    out = {}
    for stem in FAMILY[family].stems:
        path = frames_dir / f"{family}_{stem}.frame"
        if not path.exists():
            raise CubeError(f"missing frame transcription {path}")
        data = path.read_bytes()
        try:
            spec = parse_frame(data.decode("utf-8"))
        except (FrameParseError, UnicodeError) as exc:
            raise CubeError(f"frame file {path}: {exc}") from exc
        if spec.dim != size:  # before its 2^dim table is built
            raise CubeError(f"frame file {path} has dim {spec.dim}, not {size}")
        spec.sha256 = _sha256(data).hexdigest()
        out[stem] = (spec, oracle_from_spec(spec))
    return out


# ---------------------------------------------------------------------------
# Validation suites.  Walk constraints are stated as the exact direction
# sequences a fresh round-robin scan / greedy rule must produce, plus the
# hypersink / gadget-face outmap agreements each family relies on.

def _edge_backward(oracle: TableOracle, low: int, c: int) -> bool:
    """True iff the edge {low, low|1<<c} points toward low."""
    return bool(oracle.evaluate(low | (1 << c)) & (1 << c))


def _moves(bundle: int, pattern: str, bundle_size: int) -> bytes:
    """The move bits of a pattern of "+k" / "-k" (k 1-based) in `bundle`."""
    return bytes(parse_direction(f"{item[0]}{bundle}.{item[1:]}", bundle_size)
                 for item in pattern.split(","))


def _scan_walk(oracle, start: int, order: bytes):
    """Single pass over `order`: follow each move if available.  Returns
    (positions visited after each move, moves taken)."""
    v = start
    positions, used = [], bytearray()
    for b in order:
        out = oracle.evaluate(v)
        if ((out & ~v) | (out & v) << 64) >> b & 1:
            v ^= 1 << (b & 63)
            positions.append(v)
            used.append(b)
    return positions, used


def _require_label(report, spec, name, expected_bits: int):
    ok = spec.labels.get(name) == expected_bits
    report.add(f"label_{name}", ok,
               None if ok else {"expected": expected_bits, "labels": sorted(spec.labels)})


def _structural(report, name, oracle, sink) -> int | None:
    """The frame's USO, acyclicity and sink checks; returns its sink, None
    when it has no unique one."""
    uso = check_uso_exhaustive(oracle)
    report.add(f"{name}_uso", uso.passed, None if uso.passed else uso.failures()[0].witness)
    acyc = check_acyclic(oracle)
    report.add(f"{name}_acyclic", acyc.passed,
               None if acyc.passed else acyc.failures()[0].witness)
    n = oracle.dimension
    try:
        actual = face_sink(oracle, Face(0, (1 << n) - 1))
        report.add(f"{name}_sink", actual == sink,
                   None if actual == sink else {"expected": vertex_text(sink, n),
                                                "actual": vertex_text(actual, n)})
        return actual
    except CubeError as exc:
        report.add(f"{name}_sink", False, {"error": str(exc)})


def _outmap_is(report, name, oracle, vertex, expected):
    actual = oracle.evaluate(vertex)
    report.add(name, actual == expected,
               None if actual == expected else
               {"vertex": vertex_text(vertex, oracle.dimension),
                "expected": vertex_text(expected, oracle.dimension),
                "actual": vertex_text(actual, oracle.dimension)})


def _example_run(report, name, oracle, family: Family, state):
    """The trace of the family's rule from its level-0 start on `oracle`, or
    None when the run raises: check `name` then fails, with the error as its
    witness."""
    try:
        return run_to_sink(oracle, family.start(0), family.name, state,
                           bundle_size=family.bundle_size)
    except CubeError as exc:
        report.add(name, False, {"error": str(exc)})


def validate_cunningham(family: Family, frames) -> VerificationReport:
    report = VerificationReport("validate_cunningham")
    box1, box5, boxB, H = family.box1, family.box5, family.gadget_anchor, family.hypersink
    out_block = family.tie_order(0)
    for name, (spec, oracle) in frames.items():
        _structural(report, name, oracle, H)
        # The balance face B shows only coordinate c1 outgoing (to the
        # hypersink) in every connecting frame.
        _outmap_is(report, f"{name}_B_outmap", oracle, boxB, family.gadget_external)
        _outmap_is(report, f"{name}_H_hypersink", oracle, H, 0)
    # Fresh scans of the new-bundle block: on F1 it walks box1 -> box5 and
    # exhausts the block there; on F2 it continues box5 -> ... -> box1 and
    # ends exactly at the block boundary; on F3, once the inner block is
    # exhausted at box1 or box5, it delivers the token to B and exhausts the
    # block there.
    for check, stem, start, end, pattern in (
            ("f1_scan_box1_to_box5", "f1", box1, box5, "+1,-2,+3,+2"),
            ("f2_scan_box5_to_box1", "f2", box5, box1, "-2,-1,+4,-3,+2,-4"),
            ("f3_scan_box1_to_B", "f3", box1, boxB, None),
            ("f3_scan_box5_to_B", "f3", box5, boxB, None)):
        positions, used = _scan_walk(frames[stem][1], start, out_block)
        ok = bool(positions) and positions[-1] == end \
            and (pattern is None or used == _moves(0, pattern, 4))
        report.add(check, ok,
                   None if ok else {"positions": [vertex_text(p, 4) for p in positions]})
    # F3 doubles as the base case: the documented 5-step run.
    oracle3 = frames["f3"][1]
    trace = _example_run(report, "f3_base_case_run", oracle3, family, family.rule_state(0))
    if trace is not None:
        ok = trace.moves == _moves(0, "+1,+3,-1,+4,+1", 4) and trace.end == H
        report.add("f3_base_case_run", ok,
                   None if ok else {"dirs": [direction_text(b, 4) for b in trace.moves]})
    spec1 = frames["f1"][0]
    for label, bits in (("box1", box1), ("box5", box5), ("B", boxB), ("H", H)):
        _require_label(report, spec1, label, bits)
    return report


def validate_johnson(family: Family, frames) -> VerificationReport:
    report = VerificationReport("validate_johnson")
    sink = family.hypersink  # {c1, c4}
    boxR = family.gadget_anchor  # {c1, c2, c4}
    full = 0b1111
    sinks = {}
    for name in ("f1", "f2"):
        spec, oracle = frames[name]
        sinks[name] = _structural(report, name, oracle, sink)
        # The reset face R has a single outgoing edge, on c2, toward the
        # hypersink; both frames agree, so the face can be reoriented.
        _outmap_is(report, f"{name}_R_outmap", oracle, boxR, family.gadget_external)
        _outmap_is(report, f"{name}_H_hypersink", oracle, sink, 0)
    ok = sinks["f1"] is not None and sinks["f1"] == sinks["f2"]
    report.add("f1_f2_same_sink", ok, None if ok else
               {name: s if s is None else vertex_text(s, 4) for name, s in sinks.items()},
               details="both sinks asserted at {c1,c4}" if ok else "")
    _, f1 = frames["f1"]
    # Positive chain structure of F1: +2 available only after +1, +3 only
    # after +1 and +2.
    chain_ok = (
        not f1.evaluate(0) & 0b0010 and not f1.evaluate(0) & 0b0100
        and bool(f1.evaluate(0) & 0b0001)
        and bool(f1.evaluate(0b0001) & 0b0010) and not f1.evaluate(0b0001) & 0b0100
        and bool(f1.evaluate(0b0011) & 0b0100) and bool(f1.evaluate(0b0111) & 0b1000))
    report.add("f1_positive_chain", chain_ok)
    # The documented example run on F1 from box1, the empty vertex.
    trace = _example_run(report, "f1_example_run", f1, family, family.rule_state(0))
    if trace is not None:
        ok = trace.moves == _moves(0, "+1,+2,+3,+4,-3,-2", 4) and trace.end == sink
        report.add("f1_example_run", ok,
                   None if ok else {"dirs": [direction_text(b, 4) for b in trace.moves]})
    # F2 lets the negative directions run consecutively from the full vertex.
    _, f2 = frames["f2"]
    v = full
    ok = True
    for c in range(4):  # -1, -2, -3, -4
        ok = ok and bool(f2.evaluate(v) & (1 << c))
        v ^= 1 << c
    report.add("f2_negative_chain", ok and v == 0)
    # Reset AUSO R1: a one-outgoing-edge path from the hypersink to the sink
    # at the empty vertex, dropping the hypersink's coordinates lowest first.
    spec_r, r1 = frames[family.reset]
    _structural(report, "r1", r1, 0)
    for step, c in enumerate(_coords(sink), 1):  # at the hypersink less its coordinates below c
        _outmap_is(report, f"r1_reset_step{step}", r1, sink >> c << c, 1 << c)
    spec1 = frames["f1"][0]
    for label, bits in (("box1", family.box1), ("box5", family.box5), ("R", boxR),
                        ("H", sink)):
        _require_label(report, spec1, label, bits)
    return report


def validate_zadeh(family: Family, frames) -> VerificationReport:
    report = VerificationReport("validate_zadeh")
    box1 = family.box1  # {c2}
    boxB = family.gadget_anchor  # {c1,c2,c3}
    circ1, circ12 = 0b111010, 0b111110  # {c2,c4,c5,c6}, {c2,c3,c4,c5,c6}
    full = 0b111111
    # Base case A0: the tie-list walk visits box1..box21 in order and leaves
    # balance 1 on exactly the family's deficits.
    spec0, a0 = frames["a0"]
    _structural(report, "a0", a0, circ12)
    trace = _example_run(report, "a0_walk_boxes_1_to_21", a0, family, family.rule_state(0))
    if trace is not None:
        visited = trace.vertices()
        boxes = [spec0.labels.get(f"box{i}") for i in range(1, 22)]
        ok = None not in boxes and visited == boxes and len(trace) == 20
        report.add("a0_walk_boxes_1_to_21", ok,
                   None if ok else {"visited": [vertex_text(v, 6) for v in visited]})
        sat, _, _, st = _zadeh_replay(family, 0, a0, trace)
        imbalanced = {b for b in st.tie_list if balance_of(st, b) == 1}
        report.add("a0_final_balances", _deficits_ok(family, 0, st),
                   None if imbalanced == set(_moves(0, family.deficits, 6)) else
                   {"imbalanced": sorted(direction_text(b, 6) for b in imbalanced)})
        # box12 is saturated mid-run, and the sink lies at least two vertices
        # beyond the last saturated path vertex.
        interior = [i for i in sat[:-1] if i > 0]
        ok = len(visited) > 11 and spec0.labels.get("box12") == visited[11] \
            and 11 in interior and len(trace) - max(interior) >= 2
        report.add("a0_interior_saturation", ok,
                   None if ok else {"saturated_at": sat[:-1]})
    for name in ("f1", "f2", "f3"):
        spec, oracle = frames[name]
        # F1 and F2 sink at the full vertex (every backward edge sits below
        # it); F3 pulls the sink down to circ12, where the global sink lands.
        _structural(report, name, oracle, circ12 if name == "f3" else full)
        # Gadget face B keeps only forward incident edges: outmap {c4,c5,c6}.
        _outmap_is(report, f"{name}_B_outmap", oracle, boxB, family.gadget_external)
    # The dashed edges (backward in F1, forward in F2): box12->box1 on c6 and
    # circ12->circ1 on c3.
    _, f1 = frames["f1"]
    _, f2 = frames["f2"]
    _, f3 = frames["f3"]
    dash_ok = (_edge_backward(f1, box1, 5) and not _edge_backward(f2, box1, 5)
               and _edge_backward(f1, circ1, 2) and not _edge_backward(f2, circ1, 2))
    report.add("dashed_edges_f1_only", dash_ok)
    # Square walk of F2 (box1 -> box12, eleven distinct directions).
    specs = {n: frames[n][0] for n in ("f1", "f2", "f3")}
    sq = [specs["f2"].labels.get(f"box{i}") for i in range(1, 13)]
    report.add("f2_square_path", None not in sq and _path_oriented(f2, sq))
    # Circle walk: F3 shares the circ1 -> circ12 path edge set with F2.  (F1
    # reverses the circ12 -> circ1 closing edge instead, so it stays acyclic.)
    circ = [specs["f2"].labels.get(f"circ{i}") for i in range(1, 13)]
    ok = None not in circ and all(_path_oriented(fr, circ) for fr in (f2, f3))
    report.add("circle_path_f2_f3", ok)
    # F3: only forward edges at box1; sink at circ12.
    report.add("f3_box1_all_forward", f3.evaluate(box1) == full & ~box1)
    report.add("f3_sink_at_circ12", specs["f3"].labels.get("circ12") == circ12)
    return report


def _path_oriented(oracle, path: list[int]) -> bool:
    """Each consecutive pair must be an edge oriented along the path."""
    for u, v in zip(path, path[1:]):
        diff = u ^ v
        if diff.bit_count() != 1 or not oracle.evaluate(u) & diff:
            return False
    return True


# ---------------------------------------------------------------------------
# Trace suites: the behavioural checks on a built level's run, one per
# family, called by verifier.check_trace_properties.  `level` is a
# ConstructionLevel (duck-typed); the family's facts come from level.spec.

def _coords(bits: int) -> list[int]:
    """The coordinates of a bundle-local bit set, lowest first."""
    return [c for c in range(bits.bit_length()) if bits >> c & 1]


def projection_check(report, level, trace, lower_trace):
    """The inner-direction subsequence is the lower path, then the gadget
    return walk, then the lower path again.  The inner moves are compared
    as move bytes, and the gadget walk is followed along Trace.walk()."""
    if level.level == 0:
        trace.vertices()  # a move that is not legal raises IllegalMoveError
        report.add("projection", True, details="base level, vacuous")
        return
    if lower_trace is None:
        report.add("projection", False, {"error": "lower trace required"})
        return
    inner_dim = level.dimension - level.bundle_size
    inner_mask = (1 << inner_dim) - 1
    anchor = level.spec.gadget_anchor << inner_dim
    # The moves on an inner coordinate, in order.
    inner = trace.moves.translate(None, bytes(b for b in range(256) if b & 63 >= inner_dim))
    lower = lower_trace.moves
    k, m = len(lower), len(inner)
    ok = m >= 2 * k and inner[:k] == lower and inner[m - k:] == lower
    # The gadget walk, inner moves k..m - k - 1, starts at the lower sink,
    # ends at the lower start, and every move happens inside the gadget face.
    first, last = (k, m - k - 1) if ok else (m, -1)
    i = 0
    for v, b in trace.walk():
        if b is not None and b & 63 < inner_dim:
            if first <= i <= last:
                ok = ok and (v & ~inner_mask) == anchor
                ok = ok and (i != first or v & inner_mask == lower_trace.end)
                ok = ok and (i != last or (v ^ 1 << (b & 63)) & inner_mask == lower_trace.start)
            i += 1
    report.add("projection_twice", ok,
               None if ok else {"inner_steps": m, "lower": k})


def _zadeh_replay(family: Family, level: int, oracle, trace):
    """One replay of the family's rule at `level` along the run on `oracle`.
    Returns the saturated indices (index i is saturated when the vertex
    before step i is D+-saturated, balance against the most used direction
    overall; the sink always is, and comes last), the top usage count at
    each of them, whether every saturated vertex whose inner part is still
    active escapes through the innermost bundle to a vertex that is not
    inner-saturated and still inner-active, and the final state."""
    size = family.bundle_size
    inner_mask = (1 << (oracle.dimension - size)) - 1
    full_mask = (1 << oracle.dimension) - 1
    st = family.rule_state(level)
    sat, tops = [], []
    escapes = True
    escaping = False  # the previous vertex was saturated and inner-active
    for i, (v, b) in enumerate(replay(trace, st)):
        if escaping:
            escapes = escapes and not is_saturated(oracle, v, st, inner_mask)
            escapes = escapes and bool(oracle.evaluate(v) & inner_mask)
        escaping = False
        if b is None or is_saturated(oracle, v, st, full_mask):
            sat.append(i)
            tops.append(st.top)
            escaping = b is not None and bool(oracle.evaluate(v) & inner_mask)
            escapes = escapes and (not escaping or b & 63 < size)
    return sat, tops, escapes, st


def _deficits_ok(family: Family, level: int, st) -> bool:
    """At the sink exactly the family's deficits, in every bundle up to
    `level`, lag one use behind the most used direction; the rest balance."""
    lagging = b"".join(_moves(j, family.deficits, family.bundle_size) for j in range(level + 1))
    return all(balance_of(st, b) == (1 if b in lagging else 0) for b in st.tie_list)


def zadeh_trace_checks(report, level, trace, lower_trace):
    size = level.bundle_size
    sat, tops, escapes, final_state = _zadeh_replay(level.spec, level.level, level.oracle,
                                                    trace)
    # Between consecutive saturated vertices: the newest
    # bundle's directions are each used at most once (inner bundles satisfy
    # this recursively at their own level), fewer than 2n distinct
    # directions are touched, and the top usage count grows by at most one
    # (the start, where nothing is used yet, is always saturated).
    ok = all(after <= before + 1 for before, after in zip(tops, tops[1:]))
    for a, z in zip(sat, sat[1:]):
        segment = trace.moves[a:z]
        new_bundle = [b for b in segment if b & 63 >= level.level * size]
        ok = ok and len(set(new_bundle)) == len(new_bundle)
        ok = ok and len(set(segment)) <= 2 * level.dimension - 1
    report.add("saturated_segment_usage", ok, None if ok else {"saturated": sat})
    ok = _deficits_ok(level.spec, level.level, final_state)
    report.add("final_balance_deficits", ok,
               None if ok else {"balances": {direction_text(b, size): balance_of(final_state, b)
                                             for b in final_state.tie_list}})
    if level.level == 0:
        # An interior saturated vertex exists and the sink is at least two
        # steps past the last one.
        interior = [i for i in sat[:-1] if i > 0]
        ok = bool(interior) and len(trace) - max(interior) >= 2
        report.add("interior_saturated_vertex", ok, None if ok else {"saturated": sat})
    else:
        projection_check(report, level, trace, lower_trace)
        report.add("saturated_escape_moves", escapes)


def johnson_trace_checks(report, level, trace, lower_trace):
    size, sink = level.bundle_size, level.spec.hypersink  # each bundle's sink
    bundles = level.level + 1
    vertices, moves = trace.vertices(), trace.moves
    # +c_b^k with k >= 2 immediately follows +c_b^{k-1}: the positives of
    # a bundle always run as one consecutive block.  A move byte below 64
    # is a positive direction, its coordinate.
    ok = all(b >= 64 or not b % size or (i > 0 and moves[i - 1] == b - 1)
             for i, b in enumerate(moves))
    report.add("positive_blocks_consecutive", ok)
    # From a full bundle whose lower subtoken is not yet at its sink, the
    # bundle's negatives run consecutively as -1,-2,-3,-4.
    ok = True
    for i, b in enumerate(moves):
        c = b - 64  # the coordinate of a negative direction
        if c < size or c % size:
            continue
        bundle_mask = ((1 << size) - 1) << c
        lower_sink = sum(sink << j * size for j in range(c // size))
        lower_mask = (1 << c) - 1
        if (vertices[i] & bundle_mask) == bundle_mask \
                and (vertices[i] & lower_mask) != lower_sink:
            ok = ok and moves[i:i + size] == bytes(range(b, b + size))
    report.add("negative_blocks_consecutive", ok)
    # From any point where the token misses a whole coordinate prefix, the
    # next uses of those positive directions come in lexicographic order:
    # the bits below the prefix width are first used as 0, 1, 2, ...
    ok = True
    for j in range(bundles):
        width = (j + 1) * size
        for i, v in enumerate(vertices):
            if v & ((1 << width) - 1):
                continue
            due = 0  # the bit whose first use comes next
            for b in moves[i:]:
                if b == due:
                    due += 1
                    if due == width:
                        break  # every later use is a reuse
                elif due < b < width:
                    break  # a later bit is used first
            if due < width:
                ok = False
                break
        if not ok:
            break
    report.add("positive_reuse_lexicographic", ok)
    ok = _johnson_resettable_check(level, trace)
    report.add("reset_history_ordering", ok)
    # Exactly one top-level reset: the hypersink's negatives in every lower
    # bundle, lowest coordinate first, as build_reset's path walks them.
    if level.level >= 1:
        # The reset's bytes are distinct, so its occurrences never overlap.
        count = moves.count(bytes(64 + j * size + c for j in range(bundles - 1)
                                  for c in _coords(sink)))
        report.add("single_reset_in_order", count == 1,
                   None if count == 1 else {"count": count})
        projection_check(report, level, trace, lower_trace)


def _johnson_resettable_check(level, trace) -> bool:
    """Whenever a subtoken reaches its sink while the next bundle is active,
    every prefix bundle's hypersink negatives, lowest coordinate first, and
    then the next bundle's gadget-external negative were last stepped in
    that strict order: h(-c_j^1) < h(-c_j^4) < h(-c_{j+1}^2)."""
    family = level.spec
    size, sink = family.bundle_size, family.hypersink
    bundles = level.level + 1
    ordered = _coords(sink) + [size + c for c in _coords(family.gadget_external)]
    # Per prefix t_j: its sink pattern, its mask and the next bundle's mask.
    prefixes = [(sum(sink << i * size for i in range(j + 1)), (1 << ((j + 1) * size)) - 1,
                 ((1 << size) - 1) << ((j + 1) * size)) for j in range(bundles - 1)]
    st = level.rule_state()
    positions = replay(trace, st)
    prev, _ = next(positions)
    for v, _ in positions:
        for j, (pattern, mask, next_bundle) in enumerate(prefixes):
            if (v & mask) != pattern or (prev & mask) == pattern:
                continue  # not a fresh arrival at t_j's sink
            if not level.oracle.evaluate(v) & next_bundle:
                continue  # next bundle inactive: condition does not apply
            h = st.table()
            for jp in range(j + 1):
                stamps = [h[64 + jp * size + c] for c in ordered]
                if any(a >= b for a, b in zip(stamps, stamps[1:])):
                    return False
        prev = v
    return True


# The paper's three families.  Bit k - 1 of a position is coordinate k, which
# a frame file's vertex text writes k-th from the left: box1 0b0010 is `0100`.
FAMILY = {family.name: family for family in (
    Family("cunningham", 4, ("f1", "f2", "f3"), base="f3", default="f3", reset=None,
           box1=0b0010, box5=0b0111, hypersink=0b1111, gadget_anchor=0b1110,
           gadget_external=0b0001, tie_pattern="+1,-2,+3,-1,+4,-3,+2,-4",
           deficits=None, rule=CunninghamState, frame_suite=validate_cunningham,
           trace_checks=projection_check),
    Family("johnson", 4, ("f1", "f2", "r1"), base="f1", default="f1", reset="r1",
           box1=0b0000, box5=0b1111, hypersink=0b1001, gadget_anchor=0b1011,
           gadget_external=0b0010, tie_pattern="+1,+2,+3,+4,-1,-2,-3,-4",
           deficits=None, rule=JohnsonState, frame_suite=validate_johnson,
           trace_checks=johnson_trace_checks),
    Family("zadeh", 6, ("a0", "f1", "f2", "f3"), base="a0", default="f3", reset=None,
           box1=0b000010, box5=None, hypersink=None, gadget_anchor=0b000111,
           gadget_external=0b111000, tie_pattern="+1,-2,+3,-1,+4,-3,+5,-4,+6,-5,+2,-6",
           deficits="-3,-4,-5,-6", rule=ZadehState, frame_suite=validate_zadeh,
           trace_checks=zadeh_trace_checks),
)}


def validate_family(family: str, frames) -> VerificationReport:
    """The family's checks on `frames`, a load_family result."""
    return FAMILY[family].frame_suite(FAMILY[family], frames)


def validate_all(frames_dir=None) -> VerificationReport:
    report = VerificationReport("validate_frames")
    for family in FAMILY:
        report = report.merge(validate_family(family, load_family(family, frames_dir)))
    return report
