"""Recursive builders for the three lower-bound families.

Each level is a product of the previous level with per-vertex connecting
frames, followed by one face reorientation that installs the family's
gadget (a uniform balance orientation, or the reset orientation for the
least-recently-basic rule).  The frame chosen for each inner vertex is
decided adversarially while the pivot rule runs; assignments are memoized
and any revisit demanding a different frame aborts the build, so the result
is a fixed, replayable orientation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .cube_core import (
    CubeError,
    Direction,
    Face,
    OrientationOracle,
    TableOracle,
    UniformOracle,
    parse_vertex,
    vertex_text,
)
from .combinators import (
    FrameAssignmentMap,
    MemoOracle,
    ProductOracle,
    ReorientedOracle,
)
from .frame_store import (
    FAMILY_FRAMES,
    frame_file_sha256,
    johnson_tie_order,
    load_family,
    resolve_frames_dir,
    tie_pattern_cunningham,
    tie_pattern_zadeh,
)
from .pivot_engine import (
    CunninghamState,
    JohnsonState,
    Trace,
    ZadehState,
    is_saturated,
    run_to_sink,
)

BUNDLE_SIZE = {"cunningham": 4, "johnson": 4, "zadeh": 6}
BASE_FRAME = {"cunningham": "f3", "johnson": "f1", "zadeh": "a0"}
DEFAULT_FRAME = {"cunningham": "f3", "johnson": "f1", "zadeh": "f3"}
SINK_FRAME = {"cunningham": "f3", "johnson": "f1", "zadeh": "f3"}
# Local bundle coordinates (0-based) of the gadget face anchor and of its
# shared external outmap.
GADGET_ANCHOR = {"cunningham": (1, 2, 3), "johnson": (0, 1, 3), "zadeh": (0, 1, 2)}
GADGET_EXTERNAL = {"cunningham": (0,), "johnson": (1,), "zadeh": (3, 4, 5)}
# Positions (within the new bundle) at which the adversary keys its choice.
BOX1_POSITION = {"cunningham": 0b0010, "johnson": 0b0000, "zadeh": None}
BOX5_POSITION = {"cunningham": 0b0111, "johnson": 0b1111, "zadeh": None}
HYPERSINK_POSITION = {"cunningham": 0b1111, "johnson": 0b1001, "zadeh": None}


class ConstructionError(CubeError):
    pass


class FrameConflictError(ConstructionError):
    """The adversary demanded two different frames for one inner vertex."""


def tie_list(family: str, level: int) -> list[Direction]:
    """Concatenated per-bundle tie pattern, earlier bundles first."""
    if family == "cunningham":
        pattern = tie_pattern_cunningham
    elif family == "zadeh":
        pattern = tie_pattern_zadeh
    else:
        raise ConstructionError("johnson uses the lexicographic order, not a list")
    out: list[Direction] = []
    for j in range(level + 1):
        out.extend(pattern(j))
    return out


def starting_vertex(family: str, level: int) -> int:
    """{c_j^2 : j <= level} for cunningham/zadeh, empty for johnson."""
    if family == "johnson":
        return 0
    size = BUNDLE_SIZE[family]
    return sum(1 << (j * size + 1) for j in range(level + 1))


def rule_state(family: str, level: int):
    if family == "cunningham":
        return CunninghamState(tuple(tie_list(family, level)))
    if family == "zadeh":
        return ZadehState(tuple(tie_list(family, level)))
    return JohnsonState(tuple(johnson_tie_order(level + 1)))


@dataclass
class ResetLevel:
    level: int
    oracle: OrientationOracle


def build_reset(level: int, frames_dir=None, _r1=None) -> ResetLevel:
    """Reset orientation R_level of dimension 4*level.

    R_0 is a point; R_{i+1} takes 16 copies of R_i, connects the sink of R_i
    by another copy of R_1 and every other vertex by the uniform 4-cube with
    sink {c1, c4}.  The sink stays at the empty vertex throughout, and the
    reset path walks (-c_0^1, -c_0^4, ..., -c^1, -c^4) one outgoing edge at
    a time.
    """
    if _r1 is None:
        _r1 = load_family("johnson", frames_dir)["r1"][1]
    oracle: OrientationOracle = TableOracle(0, [0])
    for j in range(level):
        frames = FrameAssignmentMap(oracle.dimension, UniformOracle(4, 0b1001),
                                    overrides={0: _r1})
        oracle = MemoOracle(ProductOracle(oracle, frames))
    return ResetLevel(level, oracle)


@dataclass
class ConstructionLevel:
    family: str
    level: int
    dimension: int
    oracle: OrientationOracle
    start: int
    expected_sink: int
    path_length: int
    assignments: dict[int, str] = field(default_factory=dict)
    default_frame: str = ""
    gadget_anchor: int = 0  # absolute bits; 0 for the base level

    @property
    def bundle_size(self) -> int:
        return BUNDLE_SIZE[self.family]

    def rule_state(self):
        """A fresh state of the family's pivot rule at this level."""
        return rule_state(self.family, self.level)


def _bundle_bits(inner_dim: int, coords) -> int:
    """Absolute bits of the given local coordinates of the bundle above inner_dim."""
    return sum(1 << (inner_dim + k) for k in coords)


class _AdaptiveFrames:
    """Frame lookup that only serves memoized assignments; the run hooks fill
    it in, so an unexpected demand is an error, not a silent default."""

    def __init__(self, inner_dimension: int, outer_dimension: int,
                 frames: dict[str, OrientationOracle]):
        self.inner_dimension = inner_dimension
        self.outer_dimension = outer_dimension
        self.frames = frames
        self.assignments: dict[int, str] = {}

    def assign(self, inner_vertex: int, name: str) -> None:
        existing = self.assignments.get(inner_vertex)
        if existing is None:
            self.assignments[inner_vertex] = name
        elif existing != name:
            raise FrameConflictError(
                f"inner vertex {inner_vertex:b} demanded frame {name} but holds {existing}")

    def frame_for(self, inner_vertex: int) -> OrientationOracle:
        name = self.assignments.get(inner_vertex)
        if name is None:
            raise ConstructionError(
                f"frame demanded for unassigned inner vertex {inner_vertex:b}")
        return self.frames[name]


def _level_oracle(family: str, prev: ConstructionLevel, frames,
                  replacement: OrientationOracle) -> MemoOracle:
    """The previous level times one frame per inner vertex (a frame map),
    with the gadget face reoriented to `replacement`."""
    inner_dim = prev.dimension
    face = Face(_bundle_bits(inner_dim, GADGET_ANCHOR[family]), (1 << inner_dim) - 1)
    return MemoOracle(ReorientedOracle(
        ProductOracle(prev.oracle, frames), face, replacement,
        _bundle_bits(inner_dim, GADGET_EXTERNAL[family])))


def _realize_base(family: str, frame_oracles) -> tuple[ConstructionLevel, Trace]:
    oracle = MemoOracle(frame_oracles[BASE_FRAME[family]])
    start = starting_vertex(family, 0)
    trace = run_to_sink(oracle, start, family, rule_state(family, 0),
                        bundle_size=BUNDLE_SIZE[family])
    level = ConstructionLevel(family, 0, oracle.dimension, oracle, start,
                              trace.end, len(trace), {}, DEFAULT_FRAME[family])
    return level, trace


def _adaptive_run(family: str, level: int, prev: ConstructionLevel, frame_oracles,
                  replacement: OrientationOracle) -> tuple[dict[int, str], Trace]:
    """Run the rule while the adversary picks each inner vertex's frame on
    first demand; returns the assignments and the realizing trace."""
    size = BUNDLE_SIZE[family]
    inner_dim = prev.dimension
    inner_mask = (1 << inner_dim) - 1
    adaptive = _AdaptiveFrames(inner_dim, size, frame_oracles)
    oracle = _level_oracle(family, prev, adaptive, replacement)
    gadget_pos = _bundle_bits(0, GADGET_ANCHOR[family])
    start = starting_vertex(family, level)
    state = rule_state(family, level)
    in_dirs = [Direction(c, s) for c in range(inner_dim) for s in (True, False)]

    if family == "zadeh":
        def zadeh_frame(vi: int) -> str:
            if vi == prev.expected_sink:
                return SINK_FRAME[family]
            if is_saturated(prev.oracle, vi, state, in_dirs):
                return "f2"
            return "f1"

        adaptive.assign(start & inner_mask, zadeh_frame(start & inner_mask))

        def hook(t, v_before, d, v_after):
            if d.coord >= inner_dim:
                return
            pos = v_after >> inner_dim
            if pos == gadget_pos:
                return
            vi = v_after & inner_mask
            adaptive.assign(vi, zadeh_frame(vi))
    else:
        box1 = BOX1_POSITION[family]
        box5 = BOX5_POSITION[family]
        hyper = HYPERSINK_POSITION[family]
        adaptive.assign(prev.start if family == "cunningham" else 0, "f1")

        def hook(t, v_before, d, v_after):
            if d.coord >= inner_dim:
                return
            pos = v_after >> inner_dim
            if pos in (gadget_pos, hyper):
                return
            vi = v_after & inner_mask
            if vi == prev.expected_sink:
                adaptive.assign(vi, SINK_FRAME[family])
            elif pos == box1:
                adaptive.assign(vi, "f1")
            elif pos == box5:
                adaptive.assign(vi, "f2")
            else:
                raise ConstructionError(
                    f"inner move at unexpected position {pos:b} (step {t})")

    trace = run_to_sink(oracle, start, family, state, bundle_size=size,
                        record_history=False, after_step=hook)
    return adaptive.assignments, trace


def _realize_step(family: str, level: int, prev: ConstructionLevel, frame_oracles,
                  cached: dict | None = None) -> tuple[ConstructionLevel, Trace]:
    """Level `level` on top of `prev`, with the trace of a run on it.

    The frame assignments come from the cache record `cached` when given,
    else from the adversarial run.  Either way the level is the frozen
    product of those assignments, and a fresh run on it must reproduce the
    recorded length and sink, and the realizing run's full direction list.
    """
    if family == "johnson":
        replacement = build_reset(level, _r1=frame_oracles["r1"]).oracle
    else:
        replacement = UniformOracle(prev.dimension, prev.start)
    realizing = None
    if cached is None:
        assignments, realizing = _adaptive_run(family, level, prev, frame_oracles,
                                               replacement)
        start, sink, length = realizing.start, realizing.end, len(realizing)
    else:
        if cached["family"] != family or cached["level"] != level:
            raise ConstructionError("cache file does not match the requested level")
        assignments = {parse_vertex(bits): name
                       for bits, name in cached["assignments"].items()}
        start, sink = parse_vertex(cached["start"]), parse_vertex(cached["sink"])
        length = cached["path_length"]
    frames = FrameAssignmentMap(
        prev.dimension, frame_oracles[DEFAULT_FRAME[family]],
        overrides={v: frame_oracles[n] for v, n in assignments.items()})
    oracle = _level_oracle(family, prev, frames, replacement)
    built = ConstructionLevel(family, level, oracle.dimension, oracle, start, sink,
                              length, assignments, DEFAULT_FRAME[family],
                              _bundle_bits(prev.dimension, GADGET_ANCHOR[family]))
    trace = run_to_sink(oracle, start, family, built.rule_state(),
                        bundle_size=built.bundle_size)
    if len(trace) != length or trace.end != sink or (
            realizing is not None and trace.directions() != realizing.directions()):
        raise ConstructionError(
            f"{'cached' if realizing is None else 'frozen'} level {family} {level} "
            "does not replay its recorded run")
    return built, trace


def _cache_path(cache_dir: Path, family: str, level: int) -> Path:
    return cache_dir / f"{family}_level{level}.json"


def _level_to_cache(level: ConstructionLevel, frames_dir) -> dict:
    frames_dir = resolve_frames_dir(frames_dir)
    hashes = {stem: frame_file_sha256(frames_dir / f"{level.family}_{stem}.frame")
              for stem in FAMILY_FRAMES[level.family]}
    return {
        "family": level.family,
        "level": level.level,
        "dimension": level.dimension,
        "start": vertex_text(level.start, level.dimension),
        "sink": vertex_text(level.expected_sink, level.dimension),
        "path_length": level.path_length,
        "assignments": {vertex_text(v, level.dimension - BUNDLE_SIZE[level.family]): n
                        for v, n in sorted(level.assignments.items())},
        "default_frame": level.default_frame,
        "gadget_anchor": vertex_text(level.gadget_anchor, level.dimension),
        "frame_files": hashes,
    }


def _build_chain(family: str, max_level: int, frames_dir=None, cache_dir=None):
    """Levels 0..max_level with their traces, built strictly bottom-up.

    With a cache directory, assignment maps are persisted as JSON and
    reloaded instead of re-running the adversary; a reloaded level goes
    through the same frozen-level path and replay as a fresh build.
    Existing cache files are left untouched, so a rerun is a no-op.
    """
    if family not in BUNDLE_SIZE:
        raise ConstructionError(f"unknown family {family!r}")
    frame_oracles = {name: oracle
                     for name, (spec, oracle) in load_family(family, frames_dir).items()}
    chain: list[tuple[ConstructionLevel, Trace]] = []
    for i in range(max_level + 1):
        path = None if cache_dir is None else _cache_path(Path(cache_dir), family, i)
        if i == 0:
            built, trace = _realize_base(family, frame_oracles)
        else:
            cached = None
            if path is not None and path.exists():
                cached = json.loads(path.read_text(encoding="utf-8"))
            built, trace = _realize_step(family, i, chain[-1][0], frame_oracles, cached)
        if path is not None and not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(_level_to_cache(built, frames_dir),
                                       indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
        chain.append((built, trace))
    return chain


def realize_level(family: str, level: int, frames_dir=None,
                  cache_dir=None) -> tuple[ConstructionLevel, Trace]:
    """Build (or reload) the family's AUSO A_level and the realizing trace."""
    return _build_chain(family, level, frames_dir, cache_dir)[-1]


def realize_range(family: str, max_level: int, frames_dir=None, cache_dir=None):
    """All levels 0..max_level with their traces, built bottom-up."""
    return _build_chain(family, max_level, frames_dir, cache_dir)
