"""Bit-exact storage and validation of the small explicit AUSOs.

The frame files are hand-transcribed data: a frame is the all-forward
orientation minus an explicit list of backward edges.  A transcription is
trusted only after validate_family passes every structural and scripted-walk
constraint for its family; any failure means the data is wrong, not the code.
Each family's facts (its frames, the positions the builder keys on, its tie
order, rule and suites) are one `Family` record in FAMILY.

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
    Direction,
    Face,
    TableOracle,
    apply_direction,
    face_sink,
    is_available,
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
from .verifier import (
    VerificationReport,
    check_acyclic,
    check_uso_exhaustive,
    johnson_trace_checks,
    projection_check,
    zadeh_trace_checks,
)

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
    rule: type  # the pivot rule's state class
    frame_suite: object  # frame_suite(family, frames) -> VerificationReport
    trace_checks: object  # trace_checks(report, level, trace, lower_trace)

    def tie_order(self, level: int) -> list[Direction]:
        """The tie pattern of each bundle up to `level`, earlier bundles first."""
        return [d for j in range(level + 1) for d in _dirs(j, self.tie_pattern, self.bundle_size)]

    def start(self, level: int) -> int:
        """The run's start at `level`: box1 in each of its bundles."""
        return sum(self.box1 << j * self.bundle_size for j in range(level + 1))

    def rule_state(self, level: int):
        """A fresh state of the family's pivot rule at `level`."""
        return self.rule(tuple(self.tie_order(level)))


@dataclass
class FrameSpec:
    name: str
    family: str
    dim: int
    backward_edges: list[tuple[int, int]] = field(default_factory=list)  # (bits, k 1-based)
    labels: dict[str, int] = field(default_factory=dict)
    sha256: str = ""  # of the file bytes it was parsed from; set by load_family

    def to_text(self) -> str:
        lines = [f"# {self.family} frame {self.name}", f"dim {self.dim}"]
        for bits, k in self.backward_edges:
            lines.append(f"back {vertex_text(bits, self.dim)} {k}")
        for name, bits in sorted(self.labels.items()):
            lines.append(f"label {name} {vertex_text(bits, self.dim)}")
        return "\n".join(lines) + "\n"


def parse_frame(text: str, name: str = "", family: str = "") -> FrameSpec:
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
    return FrameSpec(name, family, dim, backs, labels)


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
            spec = parse_frame(data.decode("utf-8"), name=stem, family=family)
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


def _dirs(bundle: int, pattern: str, bundle_size: int) -> list[Direction]:
    out = []
    for item in pattern.split(","):
        sign, k = item[0], int(item[1:])
        out.append(Direction(bundle * bundle_size + k - 1, sign == "+"))
    return out


def _scan_walk(oracle, start: int, order: list[Direction]):
    """Single pass over `order`: follow each direction if available.  Returns
    (positions visited after each move, directions used)."""
    v = start
    positions, used = [], []
    for d in order:
        if is_available(oracle, v, d):
            v = apply_direction(v, d)
            positions.append(v)
            used.append(d)
    return positions, used


def _require_label(report, spec, name, expected_bits: int):
    ok = spec.labels.get(name) == expected_bits
    report.add(f"label_{name}", ok,
               None if ok else {"expected": expected_bits, "labels": sorted(spec.labels)})


def _structural(report, name, oracle, sink):
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
    # F1: a fresh scan of the new-bundle block walks box1 -> box5 and
    # exhausts the block there.
    _, oracle1 = frames["f1"]
    positions, used = _scan_walk(oracle1, box1, out_block)
    ok = positions and positions[-1] == box5 and used == _dirs(0, "+1,-2,+3,+2", 4)
    report.add("f1_scan_box1_to_box5", ok,
               None if ok else {"positions": [vertex_text(p, 4) for p in positions]})
    # F2: the scan continues box5 -> ... -> box1 and ends exactly at the
    # block boundary.
    _, oracle2 = frames["f2"]
    positions, used = _scan_walk(oracle2, box5, out_block)
    ok = positions and positions[-1] == box1 and used == _dirs(0, "-2,-1,+4,-3,+2,-4", 4)
    report.add("f2_scan_box5_to_box1", ok,
               None if ok else {"positions": [vertex_text(p, 4) for p in positions]})
    # F3: once the inner block is exhausted at box1 or box5, the scan must
    # deliver the token to B and exhaust the block there.
    _, oracle3 = frames["f3"]
    for start, label in ((box1, "box1"), (box5, "box5")):
        positions, _ = _scan_walk(oracle3, start, out_block)
        ok = positions and positions[-1] == boxB
        report.add(f"f3_scan_{label}_to_B", ok,
                   None if ok else {"positions": [vertex_text(p, 4) for p in positions]})
    # F3 doubles as the base case: the documented 5-step run.
    trace = _example_run(report, "f3_base_case_run", oracle3, family, family.rule_state(0))
    if trace is not None:
        ok = trace.directions() == _dirs(0, "+1,+3,-1,+4,+1", 4) and trace.end == H
        report.add("f3_base_case_run", ok,
                   None if ok else {"dirs": [str(d) for d in trace.directions()]})
    spec1 = frames["f1"][0]
    for label, bits in (("box1", box1), ("box5", box5), ("B", boxB), ("H", H)):
        _require_label(report, spec1, label, bits)
    return report


def validate_johnson(family: Family, frames) -> VerificationReport:
    report = VerificationReport("validate_johnson")
    sink = family.hypersink  # {c1, c4}
    boxR = family.gadget_anchor  # {c1, c2, c4}
    full = 0b1111
    for name in ("f1", "f2"):
        spec, oracle = frames[name]
        _structural(report, name, oracle, sink)
        # The reset face R has a single outgoing edge, on c2, toward the
        # hypersink; both frames agree, so the face can be reoriented.
        _outmap_is(report, f"{name}_R_outmap", oracle, boxR, family.gadget_external)
        _outmap_is(report, f"{name}_H_hypersink", oracle, sink, 0)
    report.add("f1_f2_same_sink", True, details="both sinks asserted at {c1,c4}")
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
        ok = trace.directions() == _dirs(0, "+1,+2,+3,+4,-3,-2", 4) and trace.end == sink
        report.add("f1_example_run", ok,
                   None if ok else {"dirs": [str(d) for d in trace.directions()]})
    # F2 lets the negative directions run consecutively from the full vertex.
    _, f2 = frames["f2"]
    v = full
    ok = True
    for d in _dirs(0, "-1,-2,-3,-4", 4):
        ok = ok and bool(f2.evaluate(v) & (1 << d.coord))
        v ^= 1 << d.coord
    report.add("f2_negative_chain", ok and v == 0)
    # Reset AUSO R1: one-outgoing-edge path {c1,c4} -> {c4} -> empty, sink at
    # the empty vertex.
    spec_r, r1 = frames[family.reset]
    _structural(report, "r1", r1, 0)
    _outmap_is(report, "r1_reset_step1", r1, 0b1001, 0b0001)
    _outmap_is(report, "r1_reset_step2", r1, 0b1000, 0b1000)
    spec1 = frames["f1"][0]
    for label, bits in (("box1", family.box1), ("box5", family.box5), ("R", boxR),
                        ("H", sink)):
        _require_label(report, spec1, label, bits)
    return report


def validate_zadeh(family: Family, frames) -> VerificationReport:
    report = VerificationReport("validate_zadeh")
    box1, box12 = family.box1, 0b100010  # {c2}, {c2,c6}
    boxB = family.gadget_anchor  # {c1,c2,c3}
    circ1, circ12 = 0b111010, 0b111110  # {c2,c4,c5,c6}, {c2,c3,c4,c5,c6}
    full = 0b111111
    # Base case A0: the tie-list walk visits box1..box21 in order and leaves
    # balance 1 on exactly -3,-4,-5,-6.
    spec0, a0 = frames["a0"]
    _structural(report, "a0", a0, circ12)
    st = family.rule_state(0)
    trace = _example_run(report, "a0_walk_boxes_1_to_21", a0, family, st)
    if trace is not None:
        visited = trace.vertices()
        boxes = [spec0.labels.get(f"box{i}") for i in range(1, 22)]
        ok = None not in boxes and visited == boxes and len(trace) == 20
        report.add("a0_walk_boxes_1_to_21", ok,
                   None if ok else {"visited": [vertex_text(v, 6) for v in visited]})
        imbalanced = {d for d in st.tie_list if balance_of(st, d) == 1}
        expected_im = set(_dirs(0, "-3,-4,-5,-6", 6))
        other_zero = all(balance_of(st, d) == 0 for d in st.tie_list if d not in expected_im)
        report.add("a0_final_balances", imbalanced == expected_im and other_zero,
                   None if imbalanced == expected_im else
                   {"imbalanced": sorted(str(d) for d in imbalanced)})
        # box12 is saturated mid-run, and the sink lies at least two vertices
        # beyond the last saturated path vertex.
        st2 = family.rule_state(0)
        sat_positions = [i for i, (v, d) in enumerate(replay(trace, st2))
                         if d is not None and is_saturated(a0, v, st2, full)]
        interior = [i for i in sat_positions if i > 0]
        ok = len(visited) > 11 and spec0.labels.get("box12") == visited[11] \
            and 11 in interior and len(trace) - max(interior) >= 2
        report.add("a0_interior_saturation", ok,
                   None if ok else {"saturated_at": sat_positions})
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


# The paper's three families.  Bit k - 1 of a position is coordinate k, which
# a frame file's vertex text writes k-th from the left: box1 0b0010 is `0100`.
FAMILY = {family.name: family for family in (
    Family("cunningham", 4, ("f1", "f2", "f3"), base="f3", default="f3", reset=None,
           box1=0b0010, box5=0b0111, hypersink=0b1111, gadget_anchor=0b1110,
           gadget_external=0b0001, tie_pattern="+1,-2,+3,-1,+4,-3,+2,-4",
           rule=CunninghamState, frame_suite=validate_cunningham,
           trace_checks=projection_check),
    Family("johnson", 4, ("f1", "f2", "r1"), base="f1", default="f1", reset="r1",
           box1=0b0000, box5=0b1111, hypersink=0b1001, gadget_anchor=0b1011,
           gadget_external=0b0010, tie_pattern="+1,+2,+3,+4,-1,-2,-3,-4",
           rule=JohnsonState, frame_suite=validate_johnson,
           trace_checks=johnson_trace_checks),
    Family("zadeh", 6, ("a0", "f1", "f2", "f3"), base="a0", default="f3", reset=None,
           box1=0b000010, box5=None, hypersink=None, gadget_anchor=0b000111,
           gadget_external=0b111000, tie_pattern="+1,-2,+3,-1,+4,-3,+5,-4,+6,-5,+2,-6",
           rule=ZadehState, frame_suite=validate_zadeh, trace_checks=zadeh_trace_checks),
)}


def johnson_tie_order(bundles: int) -> list[Direction]:
    """Johnson's lexicographic tie order over `bundles` bundles: per bundle
    positives then negatives, smaller index first, smaller bundle first."""
    return FAMILY["johnson"].tie_order(bundles - 1)


def validate_family(family: str, frames_dir=None, frames=None) -> VerificationReport:
    """The family's checks on `frames`, a load_family result, or on the
    frames load_family reads from `frames_dir` when none are given."""
    if frames is None:
        frames = load_family(family, frames_dir)
    return FAMILY[family].frame_suite(FAMILY[family], frames)


def validate_all(frames_dir=None) -> VerificationReport:
    report = VerificationReport("validate_frames")
    for family in FAMILY:
        report = report.merge(validate_family(family, frames_dir))
    return report
