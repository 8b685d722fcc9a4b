"""Recursive builders for the three lower-bound families.

Each level is a product of the previous level with per-vertex connecting
frames, followed by one face reorientation that installs the family's
gadget (a uniform balance orientation, or the reset orientation for the
least-recently-basic rule).  The frame chosen for each inner vertex is
decided adversarially while the pivot rule runs, and assigned in the
level's own product; any revisit demanding a different frame aborts the
build, so the result is a fixed, replayable orientation.  Each level is run
once, by its adversary, and its trace is that run's.  A level's cache file
is a receipt, not a source: the level is built whether the file exists or
not, and the file must hold exactly the bytes the cache writer gives for
the built level.

A level is its path.  The next level's run reads it only along that path,
from its start to its sink and then again, and the adversary assigns a
frame to exactly the path's vertices.  So every level below the chain's top
records the outmaps of its run in its memo, in path order, and the product
above it holds one frame byte per path position (`combinators`).  The top
runs below its memo, which no level reads and which stays empty.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import or_, xor
from pathlib import Path

import numpy as np

from .cube_core import (
    MAX_DIMENSION,
    CubeError,
    OrientationOracle,
    TableOracle,
    UniformOracle,
    vertex_text,
)
from .combinators import (
    MemoOracle,
    ProductOracle,
    ReorientedOracle,
)
from .frame_store import (
    FAMILY,
    Family,
    load_family,
    validate_family,
)
from .pivot_engine import (
    Trace,
    is_saturated,
    run_to_sink,
)


class ConstructionError(CubeError):
    pass


class FrameConflictError(ConstructionError):
    """The adversary demanded two different frames for one inner vertex."""


class FrameValidationError(ConstructionError):
    """Frame files failed their family's validation `report`, so no level is
    built from them; the message names every failing check."""

    def __init__(self, report):
        super().__init__(", ".join(c.name for c in report.failures()))
        self.report = report


class CacheFileError(CubeError):
    """A level cache file is not a record the cache writer could have written
    (for example, a truncated write).  A configuration error, not a property
    violation."""


def rule_state(family: str, level: int):
    """A fresh state of the family's pivot rule at `level`."""
    return FAMILY[family].rule_state(level)


def build_reset(level: int, r1: OrientationOracle, hypersink: int) -> OrientationOracle:
    """Reset orientation R_level of dimension level * r1.dimension.

    R_0 is a point; R_{i+1} takes a copy of R_i per vertex of r1, connects
    the sink of R_i by another copy of R_1 and every other vertex by the
    uniform cube with sink `hypersink`.  The sink stays at the empty vertex
    throughout, and the reset path walks the hypersink's negatives of each
    bundle, lowest first, one outgoing edge at a time.  r1 is the
    transcribed reset frame R_1.
    """
    oracle: OrientationOracle = TableOracle(0, [0])
    for j in range(level):
        oracle = ProductOracle(oracle, UniformOracle(r1.dimension, hypersink), {0: r1})
    return oracle


@dataclass
class ConstructionLevel:
    family: str
    level: int
    dimension: int
    oracle: OrientationOracle
    start: int
    expected_sink: int
    path_length: int
    product: ProductOracle | None = None  # None at the base level
    frame_names: dict[OrientationOracle, str] = field(default_factory=dict)

    @property
    def spec(self) -> Family:
        """The family's record."""
        return FAMILY[self.family]

    @property
    def bundle_size(self) -> int:
        return self.spec.bundle_size

    @property
    def assignments(self) -> dict[int, str]:
        """Frame name of each inner vertex the level's product assigns, in
        vertex order (empty at the base level)."""
        if self.product is None:
            return {}
        return {v: self.frame_names[f] for v, f in self.product.items()}

    def rule_state(self):
        """A fresh state of the family's pivot rule at this level."""
        return self.spec.rule_state(self.level)


class _Unassigned(OrientationOracle):
    """Default of a level's product while its adversarial run assigns the
    frames: a frame the adversary never assigned cannot be read."""

    def __init__(self, dimension: int):
        self.dimension = dimension

    def evaluate(self, v):
        raise ConstructionError("frame demanded for an unassigned inner vertex")

    evaluate_many = evaluate


def _realize_base(spec: Family, frame_oracles) -> tuple[ConstructionLevel, Trace]:
    oracle = frame_oracles[spec.base]
    trace = run_to_sink(oracle, spec.start(0), spec.name, spec.rule_state(0),
                        bundle_size=spec.bundle_size)
    level = ConstructionLevel(spec.name, 0, oracle.dimension, oracle, spec.start(0),
                              trace.end, len(trace))
    return level, trace


def _realize_step(spec: Family, level: int, prev: ConstructionLevel, frame_oracles,
                  frame_names, top: bool) -> tuple[ConstructionLevel, Trace]:
    """Level `level` on top of `prev`, with the trace of its one run.

    The level has one product and one oracle chain.  The rule runs on it
    while the adversary picks each inner vertex's frame on first demand and
    assigns it in the product, under a default that refuses to be read
    until the run ends; the run's trace is the level's trace.  Unless the
    level is its chain's `top`, the run records its path's outmaps in the
    level's memo, which the next level reads along that path.
    """
    inner_dim = prev.dimension
    inner_mask = (1 << inner_dim) - 1
    anchor = spec.gadget_anchor << inner_dim
    skipped = (spec.gadget_anchor, spec.hypersink)
    state = spec.rule_state(level)
    if spec.reset:
        replacement = build_reset(level, frame_oracles[spec.reset], spec.hypersink)
    else:
        replacement = UniformOracle(inner_dim, prev.start)
    default = frame_oracles[spec.default]
    # The product of the previous level with one frame per inner vertex,
    # with the gadget face reoriented to `replacement`.
    product = ProductOracle(prev.oracle, _Unassigned(default.dimension))
    oracle = MemoOracle(ReorientedOracle(product, anchor, replacement,
                                         spec.gadget_external << inner_dim))

    def decide(vi: int, pos: int) -> str:
        """The frame of inner vertex vi, entered at bundle position pos."""
        if vi == prev.expected_sink:
            return spec.default
        if spec.box5 is None:
            return "f2" if is_saturated(prev.oracle, vi, state, inner_mask) else "f1"
        if pos == spec.box1:
            return "f1"
        if pos == spec.box5:
            return "f2"
        raise ConstructionError(
            f"inner vertex {vi:b} entered at unexpected position {pos:b}")

    def assign(v: int) -> None:
        vi = v & inner_mask
        frame = frame_oracles[decide(vi, v >> inner_dim)]
        held = product.assign(vi, frame)
        if held is not frame:
            raise FrameConflictError(f"inner vertex {vi:b} demanded frame "
                                     f"{frame_names[frame]} but holds {frame_names[held]}")

    def hook(b, v_after):
        if b & 63 < inner_dim and v_after >> inner_dim not in skipped:
            assign(v_after)

    # A run never revisits a vertex (the orientation is acyclic), so it
    # gains nothing from its own memo.  The next level's run reads this
    # level at exactly its path vertices, in path order: its inner moves
    # walk this path twice, and its gadget walk stays in the replaced face.
    # So a level below the top runs on its memo, which records its path's
    # |P| + 1 outmaps; the top runs below its memo, which no level reads.
    oracle.recording = not top
    start = spec.start(level)
    assign(start)
    trace = run_to_sink(oracle.base if top else oracle, start, spec.name, state,
                        bundle_size=spec.bundle_size, after_step=hook)
    product.frames[0] = default
    if not top:
        oracle.bind(trace)
    built = ConstructionLevel(spec.name, level, oracle.dimension, oracle, start, trace.end,
                              len(trace), product, frame_names)
    return built, trace


# Assignment lines per chunk of a streamed cache write and check.
CACHE_WRITE_BLOCK = 1 << 8
# The line that closes a record's assignments (and its frame_files), an
# assignment line (vertex text, frame name, comma) and a line of the rest
# (indent, key, a string or an integer value or none for "{", comma).
_CLOSE = b"  },\n"
_ASSIGNMENT = re.compile(rb'    "([01]*)": ("[^"\n]*")(,?)\n')
_ENTRY = re.compile(rb'( *)"([^"\n]*)": (?:("[^"\\\n]*")|(-?(?:0|[1-9][0-9]*))|\{)(,?)\n')


def cache_path(cache_dir: Path, family: str, level: int) -> Path:
    return cache_dir / f"{family}_level{level}.json"


def _check_cache(path: Path, level: ConstructionLevel, hashes: dict[str, str]) -> None:
    """Check that the cache file at `path` holds exactly the bytes that
    _cache_chunks(level, hashes) writes for the built `level`, a chunk at a
    time.  Only the first line that differs is classified, with the line
    before it (the writer's) and the line after it.  A file the writer could
    not have written raises CacheFileError naming the file: a head or an end
    other than the writer's, a line that differs from the writer's only by
    its comma, an assignment line outside `    "<inner bits>": "<family
    frame>"` or the text order of the lines around it, or a line of the
    rest with another key, comma or type of value.  Any other difference
    raises ConstructionError naming a frame file whose hash in the file
    differs from the frame in use, else the rest's key, else the inner
    vertex text of the first assignment that differs.
    """
    def refuse(what: str) -> CacheFileError:
        return CacheFileError(f"cache file {path} {what}; delete it to rebuild the level")

    def assignment(line: bytes):
        m = _ASSIGNMENT.fullmatch(line)
        return m if m and len(m[1]) == inner_dim and m[2] in names else None

    def shape(m):
        return m and (m[1], m[2], m[5], m[3] is None, m[4] is None)

    family, inner_dim = level.family, level.dimension - level.bundle_size
    names = {json.dumps(name).encode() for name in level.frame_names.values()}
    with open(path, "rb") as f:
        if all(f.read(len(data)) == data for data in
               map(str.encode, _cache_chunks(level, hashes))) and not f.read(1):
            return
        f.seek(0)
        lines, before = _lines(_cache_chunks(level, hashes)), b""
        for number, want in enumerate(chain(lines, [b""]), 1):
            if (got := f.readline()) != want:
                break
            before = want
        if number <= 2:
            raise refuse("does not open as a level record")
        if not (want and got.endswith(b"\n")):
            raise refuse("does not end where its record does")
        if got.rstrip(b",\n") == want.rstrip(b",\n"):
            raise refuse(f"line {number} differs from the writer's by its comma")
        if assignment(want) or (want == _CLOSE and assignment(before)):
            a, w, last, after = (assignment(got), assignment(want), assignment(before),
                                 f.readline())
            if not (a and w and (last is None or last[1] < a[1])
                    and (after == _CLOSE if not a[3] else
                         (b := assignment(after)) is not None and a[1] < b[1])):
                raise refuse(f"line {number} does not assign a {family} frame to the "
                             f"next inner vertex of dimension {inner_dim} in text order")
            what = f"assignment {min(a[1], w[1]).decode()}"
        else:
            w = _ENTRY.fullmatch(want)
            if not w or shape(_ENTRY.fullmatch(got)) != shape(w):
                raise refuse(f"line {number} does not hold the writer's key and type "
                             "of value")
            what = f'"{w[2].decode()}"'
        # A frame file that differs is named first, from the file's hashes.
        f.seek(0)
        lines, opener = _lines(_cache_chunks(level, hashes)), b'  "frame_files": {\n'
        if opener in lines and opener in f:
            for want in lines:
                if want == _CLOSE:
                    break
                if f.readline() != want:
                    stem = _ENTRY.fullmatch(want)[2].decode()
                    raise ConstructionError(f"cached level {family} {level.level} was built "
                                            f"from another {family}_{stem}.frame "
                                            "(sha256 differs)")
    raise ConstructionError(f"cached level {family} {level.level} in {path} differs "
                            f"from its rebuild at {what}")


def _lines(chunks):
    """The lines of the text the chunks spell, as bytes, newlines kept."""
    carry = b""
    for chunk in chunks:
        *lines, carry = (carry + chunk.encode()).split(b"\n")
        yield from (line + b"\n" for line in lines)


def _write_atomic(path: Path, chunks) -> None:
    """Write the text chunks to a temporary file beside `path`, then rename
    it into place, so `path` is either absent or complete."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _text_numbers(product: ProductOracle, shift: int):
    """The vertex text of each lower path position of the product, then of
    each key of its side dict, read as a binary number and shifted left by
    `shift` bits, one at a time: the numbers order the texts as the texts
    do."""
    n, lower = product.inner.dimension, product.lower
    flip = [1 << n - 1 - (b & 63) + shift if b & 63 < n else 0 for b in range(256)]
    path = () if lower.moves is None else accumulate(
        map(flip.__getitem__, lower.moves), xor,
        initial=int(vertex_text(lower.start, n), 2) << shift)
    return chain(path, (int(vertex_text(v, n), 2) << shift for v in product.side))


def _cache_chunks(level: ConstructionLevel, hashes: dict[str, str]):
    """The level's cache record as json.dumps(record, indent=2,
    sort_keys=True) + "\\n" spells it, chunk by chunk, from its product's
    columns.  "assignments" sorts before every other key, and its lines are
    streamed in vertex-text order, at most CACHE_WRITE_BLOCK to a chunk;
    json.dumps spells the rest of the record.

    The write holds one 8-byte key per lower path position and side key,
    and timsort up to 4 bytes more a key: the vertex text read as a number,
    shifted left 8 bits and ORed with the frame row, 0 where no frame is
    assigned.  So an inner dimension above 56 raises ConstructionError."""
    product = level.product
    inner_dim = level.dimension - level.bundle_size
    anchor = 0 if product is None else level.spec.gadget_anchor << inner_dim
    if product is not None and inner_dim > 56:
        raise ConstructionError(f"cannot key {inner_dim}-bit vertex texts in 56 bits")
    rest = json.dumps({
        "family": level.family,
        "level": level.level,
        "dimension": level.dimension,
        "start": vertex_text(level.start, level.dimension),
        "sink": vertex_text(level.expected_sink, level.dimension),
        "path_length": level.path_length,
        "default_frame": level.spec.default,
        "gadget_anchor": vertex_text(anchor, level.dimension),
        "frame_files": hashes,
    }, indent=2, sort_keys=True)
    yield '{\n  "assignments": {'
    close = "}"
    if product is not None:
        names = [json.dumps(level.frame_names[frame]) for frame in product.frames]
        keys = np.fromiter(map(or_, _text_numbers(product, 8),
                               chain(product.rows, product.side.values())),
                           np.uint64, len(product.rows) + len(product.side))
        # Timsort and Python shifts: the default sort maps 448 KB of numpy
        # library code into a command, a numpy shift 64 more, timsort 128.
        keys.sort(kind="stable")
        separator = "\n"
        for i in range(0, len(keys), CACHE_WRITE_BLOCK):
            lines = [f'    "{key >> 8:0{inner_dim}b}": {names[key & 255]}'
                     for key in keys[i:i + CACHE_WRITE_BLOCK].tolist() if key & 255]
            if lines:
                yield separator + ",\n".join(lines)
                separator, close = ",\n", "\n  }"
    yield close + "," + rest[1:] + "\n"


def realize_range(family: str, max_level: int, frames_dir=None, cache_dir=None,
                  write: bool = True):
    """Levels 0..max_level with their traces, built strictly bottom-up from
    frame files that pass validate_family, the frame gate; if it fails,
    FrameValidationError is raised before any level is built or file written.
    A max_level whose cube is wider than MAX_DIMENSION raises CubeError first.

    Each level is built by its one adversarial run.  A level with a cache
    file in `cache_dir` is then checked against it: the file must hold the
    bytes the writer gives for the built level, frame hashes included, or
    CacheFileError or ConstructionError is raised (see _check_cache).  Any
    other level is, if `write`, persisted as JSON, its lines streamed from
    the product's path bytes, so a rerun leaves existing files untouched.
    Every level below `max_level` ends with its memo bound to its path; the
    top's memo holds nothing.
    """
    if family not in FAMILY:
        raise ConstructionError(f"unknown family {family!r}")
    spec = FAMILY[family]
    n = spec.bundle_size * (max_level + 1)
    if n > MAX_DIMENSION:
        raise CubeError(f"{family} level {max_level} has n={n}, above the "
                        f"{MAX_DIMENSION}-dimension cube")
    frames = load_family(family, frames_dir)
    report = validate_family(family, frames)  # the frames built from
    if not report.passed:
        raise FrameValidationError(report)
    frame_oracles = {name: oracle for name, (_, oracle) in frames.items()}
    frame_names = {oracle: name for name, oracle in frame_oracles.items()}
    hashes = {name: spec.sha256 for name, (spec, _) in frames.items()}
    chain: list[tuple[ConstructionLevel, Trace]] = []
    for i in range(max_level + 1):
        if i == 0:
            built, trace = _realize_base(spec, frame_oracles)
        else:
            built, trace = _realize_step(spec, i, chain[-1][0], frame_oracles,
                                         frame_names, top=i == max_level)
        path = None if cache_dir is None else cache_path(Path(cache_dir), family, i)
        if path is not None and path.exists():
            _check_cache(path, built, hashes)
        elif path is not None and write:
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_atomic(path, _cache_chunks(built, hashes))
        chain.append((built, trace))
    return chain


def realize_level(family: str, level: int, frames_dir=None,
                  cache_dir=None) -> tuple[ConstructionLevel, Trace]:
    """Build the family's AUSO A_level, checked against its cache file if
    `cache_dir` holds one, and the realizing trace."""
    return realize_range(family, level, frames_dir, cache_dir)[-1]
