"""Bit-exact storage and validation of the small explicit AUSOs.

The frame files are hand-transcribed data: a frame is the all-forward
orientation minus an explicit list of backward edges.  A transcription is
trusted only after validate_family passes every structural and scripted-walk
constraint for its family; any failure means the data is wrong, not the code.

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
)

FAMILIES = ("cunningham", "johnson", "zadeh")
FRAME_DIM = {"cunningham": 4, "johnson": 4, "zadeh": 6}  # the dim of a family's frames
ENV_FRAMES_DIR = "AUSOKIT_FRAMES_DIR"

# CPython's own SHA-256, the one hashlib falls back to without OpenSSL:
# hashlib.sha256 sets OpenSSL up on its first call, some 1 MB resident.
_sha256 = importlib.import_module(
    "_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256

# Family frame inventories: file stem -> frame name.
FAMILY_FRAMES = {
    "cunningham": ("f1", "f2", "f3"),
    "johnson": ("f1", "f2", "r1"),
    "zadeh": ("a0", "f1", "f2", "f3"),
}


class FrameParseError(CubeError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


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
            if parts[0] != "dim" or len(parts) != 2 or not parts[1].isdigit():
                raise FrameParseError("expected 'dim <n>'", line_no)
            dim = int(parts[1])
            continue
        if parts[0] == "back":
            if len(parts) != 3:
                raise FrameParseError("expected 'back <bits> <k>'", line_no)
            bits_text, bits = parts[1], vertex(parts[1])
            try:
                k = int(parts[2])
            except ValueError as exc:
                raise FrameParseError(str(exc), line_no) from exc
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
    frames_dir = resolve_frames_dir(frames_dir)
    out = {}
    for stem in FAMILY_FRAMES[family]:
        path = frames_dir / f"{family}_{stem}.frame"
        if not path.exists():
            raise CubeError(f"missing frame transcription {path}")
        data = path.read_bytes()
        spec = parse_frame(data.decode("utf-8"), name=stem, family=family)
        if spec.dim != FRAME_DIM[family]:  # before its 2^dim table is built
            raise CubeError(f"frame file {path} has dim {spec.dim}, not {FRAME_DIM[family]}")
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


def _require_label(report, spec, name, expected_bits=None):
    ok = name in spec.labels
    if ok and expected_bits is not None:
        ok = spec.labels[name] == expected_bits
    report.add(f"label_{name}", ok,
               None if ok else {"expected": expected_bits, "labels": sorted(spec.labels)})
    return spec.labels.get(name)


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


def validate_cunningham(frames) -> VerificationReport:
    report = VerificationReport("validate_cunningham")
    full = 0b1111
    box1, box5, boxB = 0b0010, 0b0111, 0b1110  # {c2}, {c1,c2,c3}, {c2,c3,c4}
    out_block = tie_pattern_cunningham(0)
    for name, (spec, oracle) in frames.items():
        _structural(report, name, oracle, full)
        # The balance face B shows only coordinate c1 outgoing (to the
        # hypersink) in every connecting frame.
        _outmap_is(report, f"{name}_B_outmap", oracle, boxB, 0b0001)
        _outmap_is(report, f"{name}_H_hypersink", oracle, full, 0)
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
    st = CunninghamState(tuple(out_block))
    trace = run_to_sink(oracle3, box1, "cunningham", st, bundle_size=4)
    expected = _dirs(0, "+1,+3,-1,+4,+1", 4)
    ok = trace.directions() == expected and trace.end == full
    report.add("f3_base_case_run", ok,
               None if ok else {"dirs": [str(d) for d in trace.directions()]})
    spec1 = frames["f1"][0]
    for label, bits in (("box1", box1), ("box5", box5), ("B", boxB), ("H", full)):
        _require_label(report, spec1, label, bits)
    return report


def validate_johnson(frames) -> VerificationReport:
    report = VerificationReport("validate_johnson")
    sink = 0b1001  # {c1, c4}
    boxR = 0b1011  # {c1, c2, c4}
    full = 0b1111
    for name in ("f1", "f2"):
        spec, oracle = frames[name]
        _structural(report, name, oracle, sink)
        # The reset face R has a single outgoing edge, on c2, toward the
        # hypersink; both frames agree, so the face can be reoriented.
        _outmap_is(report, f"{name}_R_outmap", oracle, boxR, 0b0010)
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
    # The documented example run on F1 from the empty vertex.
    tie = johnson_tie_order(1)
    st = JohnsonState(tuple(tie))
    trace = run_to_sink(f1, 0, "johnson", st, bundle_size=4)
    expected = _dirs(0, "+1,+2,+3,+4,-3,-2", 4)
    ok = trace.directions() == expected and trace.end == sink
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
    spec_r, r1 = frames["r1"]
    _structural(report, "r1", r1, 0)
    _outmap_is(report, "r1_reset_step1", r1, 0b1001, 0b0001)
    _outmap_is(report, "r1_reset_step2", r1, 0b1000, 0b1000)
    spec1 = frames["f1"][0]
    for label, bits in (("box1", 0), ("box5", full), ("R", boxR), ("H", sink)):
        _require_label(report, spec1, label, bits)
    return report


def validate_zadeh(frames) -> VerificationReport:
    report = VerificationReport("validate_zadeh")
    box1, box12 = 0b000010, 0b100010  # {c2}, {c2,c6}
    boxB = 0b000111                   # {c1,c2,c3}
    circ1, circ12 = 0b111010, 0b111110  # {c2,c4,c5,c6}, {c2,c3,c4,c5,c6}
    a0_sink = circ12
    tie0 = tie_pattern_zadeh(0)
    # Base case A0: the tie-list walk visits box1..box21 in order and leaves
    # balance 1 on exactly -3,-4,-5,-6.
    spec0, a0 = frames["a0"]
    _structural(report, "a0", a0, a0_sink)
    st = ZadehState(tuple(tie0))
    trace = run_to_sink(a0, box1, "zadeh", st, bundle_size=6)
    boxes = [spec0.labels.get(f"box{i}") for i in range(1, 22)]
    ok = None not in boxes and trace.vertices() == boxes and len(trace) == 20
    report.add("a0_walk_boxes_1_to_21", ok,
               None if ok else {"visited": [vertex_text(v, 6) for v in trace.vertices()]})
    imbalanced = {d for d in st.tie_list if balance_of(st, d) == 1}
    expected_im = set(_dirs(0, "-3,-4,-5,-6", 6))
    other_zero = all(balance_of(st, d) == 0 for d in st.tie_list if d not in expected_im)
    report.add("a0_final_balances", imbalanced == expected_im and other_zero,
               None if imbalanced == expected_im else
               {"imbalanced": sorted(str(d) for d in imbalanced)})
    # box12 is saturated mid-run, and the sink lies at least two vertices
    # beyond the last saturated path vertex.
    st2 = ZadehState(tuple(tie0))
    sat_positions = [i for i, (v, d) in enumerate(replay(trace, st2))
                     if d is not None and is_saturated(a0, v, st2, 0b111111)]
    interior = [i for i in sat_positions if i > 0]
    ok = spec0.labels.get("box12") == trace.vertices()[11] and 11 in interior \
        and len(trace) - max(interior) >= 2
    report.add("a0_interior_saturation", ok, None if ok else {"saturated_at": sat_positions})
    for name in ("f1", "f2", "f3"):
        spec, oracle = frames[name]
        _structural(report, name, oracle, _zadeh_frame_sink(name))
        # Gadget face B keeps only forward incident edges: outmap {c4,c5,c6}.
        _outmap_is(report, f"{name}_B_outmap", oracle, boxB, 0b111000)
    # The dashed edges (backward in F1, forward in F2): box12->box1 on c6 and
    # circ12->circ1 on c3.
    _, f1 = frames["f1"]
    _, f2 = frames["f2"]
    _, f3 = frames["f3"]
    dash_ok = (_edge_backward(f1, box1, 5) and not _edge_backward(f2, box1, 5)
               and _edge_backward(f1, circ1, 2) and not _edge_backward(f2, circ1, 2))
    report.add("dashed_edges_f1_only", dash_ok)
    # Square walk of F2 (box1 -> box12, eleven distinct directions).
    spec2 = frames["f2"][0]
    sq = [spec2.labels[f"box{i}"] for i in range(1, 13)]
    ok = _path_oriented(f2, sq)
    report.add("f2_square_path", ok)
    # Circle walk: F3 shares the circ1 -> circ12 path edge set with F2.  (F1
    # reverses the circ12 -> circ1 closing edge instead, so it stays acyclic.)
    specs = {n: frames[n][0] for n in ("f1", "f2", "f3")}
    circ = [specs["f2"].labels[f"circ{i}"] for i in range(1, 13)]
    ok = all(_path_oriented(fr, circ) for fr in (f2, f3))
    report.add("circle_path_f2_f3", ok)
    # F3: only forward edges at box1; sink at circ12.
    ok = f3.evaluate(box1) == ((1 << 6) - 1) & ~0b000010
    report.add("f3_box1_all_forward", ok)
    report.add("f3_sink_at_circ12", specs["f3"].labels.get("circ12") == a0_sink)
    return report


def _zadeh_frame_sink(name: str) -> int:
    # F1 and F2 sink at the full vertex (every backward edge sits below it);
    # F3 pulls the sink down to circ12, where the global sink lands.
    full = (1 << 6) - 1
    return {"f1": full, "f2": full, "f3": 0b111110}[name]


def _path_oriented(oracle, path: list[int]) -> bool:
    """Each consecutive pair must be an edge oriented along the path."""
    for u, v in zip(path, path[1:]):
        diff = u ^ v
        if diff.bit_count() != 1 or not oracle.evaluate(u) & diff:
            return False
    return True


def johnson_tie_order(bundles: int, bundle_size: int = 4) -> list[Direction]:
    """Lexicographic order: per bundle positives then negatives, smaller
    index first, smaller bundle first."""
    order = []
    for j in range(bundles):
        for k in range(bundle_size):
            order.append(Direction(j * bundle_size + k, True))
        for k in range(bundle_size):
            order.append(Direction(j * bundle_size + k, False))
    return order


def tie_pattern_zadeh(bundle: int) -> list[Direction]:
    return _dirs(bundle, "+1,-2,+3,-1,+4,-3,+5,-4,+6,-5,+2,-6", 6)


def tie_pattern_cunningham(bundle: int) -> list[Direction]:
    return _dirs(bundle, "+1,-2,+3,-1,+4,-3,+2,-4", 4)


_VALIDATORS = {
    "cunningham": validate_cunningham,
    "johnson": validate_johnson,
    "zadeh": validate_zadeh,
}


def validate_family(family: str, frames_dir=None, frames=None) -> VerificationReport:
    """The family's checks on `frames`, a load_family result, or on the
    frames load_family reads from `frames_dir` when none are given."""
    if frames is None:
        frames = load_family(family, frames_dir)
    return _VALIDATORS[family](frames)


def validate_all(frames_dir=None) -> VerificationReport:
    report = VerificationReport("validate_frames")
    for family in FAMILIES:
        report = report.merge(validate_family(family, frames_dir))
    return report
