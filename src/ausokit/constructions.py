"""Recursive builders for the three lower-bound families.

Each level is a product of the previous level with per-vertex connecting
frames, followed by one face reorientation that installs the family's
gadget (a uniform balance orientation, or the reset orientation for the
least-recently-basic rule).  The frame chosen for each inner vertex is
decided adversarially while the pivot rule runs, and assigned in the
level's own product; any revisit demanding a different frame aborts the
build, so the result is a fixed, replayable orientation.  Each level is run
once: the trace of a built level is its adversarial run's, and a level
reloaded from a cache is run once on its frames as recorded.

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
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice
from operator import or_, xor
from pathlib import Path

import numpy as np

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
    MemoOracle,
    ProductOracle,
    ReorientedOracle,
)
from .frame_store import (
    johnson_tie_order,
    load_family,
    tie_pattern_cunningham,
    tie_pattern_zadeh,
    validate_family,
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


class FrameValidationError(ConstructionError):
    """Frame files failed their family's validation `report`, so no level is
    built from them; the message names every failing check."""

    def __init__(self, report):
        super().__init__(", ".join(c.name for c in report.failures()))
        self.report = report


class CacheFileError(CubeError):
    """A level cache file is not a readable cache record (for example, a
    truncated write).  A configuration error, not a property violation."""


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


def build_reset(level: int, r1: OrientationOracle) -> OrientationOracle:
    """Reset orientation R_level of dimension 4*level.

    R_0 is a point; R_{i+1} takes 16 copies of R_i, connects the sink of R_i
    by another copy of R_1 and every other vertex by the uniform 4-cube with
    sink {c1, c4}.  The sink stays at the empty vertex throughout, and the
    reset path walks (-c_0^1, -c_0^4, ..., -c^1, -c^4) one outgoing edge at
    a time.  r1 is the transcribed reset frame R_1.
    """
    oracle: OrientationOracle = TableOracle(0, [0])
    for j in range(level):
        oracle = ProductOracle(oracle, UniformOracle(4, 0b1001), {0: r1})
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
    default_frame: str = ""
    gadget_anchor: int = 0  # absolute bits; 0 for the base level

    @property
    def bundle_size(self) -> int:
        return BUNDLE_SIZE[self.family]

    @property
    def assignments(self) -> dict[int, str]:
        """Frame name of each inner vertex the level's product assigns, in
        vertex order (empty at the base level)."""
        if self.product is None:
            return {}
        return {v: self.frame_names[f] for v, f in self.product.items()}

    def rule_state(self):
        """A fresh state of the family's pivot rule at this level."""
        return rule_state(self.family, self.level)


def _bundle_bits(inner_dim: int, coords) -> int:
    """Absolute bits of the given local coordinates of the bundle above inner_dim."""
    return sum(1 << (inner_dim + k) for k in coords)


class _Unassigned(OrientationOracle):
    """Default of a level's product while its adversarial run assigns the
    frames: a frame the adversary never assigned cannot be read."""

    def __init__(self, dimension: int):
        self.dimension = dimension

    def evaluate(self, v):
        raise ConstructionError("frame demanded for an unassigned inner vertex")

    evaluate_many = evaluate


def _level_oracle(family: str, product: ProductOracle,
                  replacement: OrientationOracle) -> MemoOracle:
    """The product of the previous level with one frame per inner vertex,
    with the gadget face reoriented to `replacement`."""
    inner_dim = product.inner.dimension
    face = Face(_bundle_bits(inner_dim, GADGET_ANCHOR[family]), (1 << inner_dim) - 1)
    return MemoOracle(ReorientedOracle(
        product, face, replacement, _bundle_bits(inner_dim, GADGET_EXTERNAL[family])))


def _realize_base(family: str, frame_oracles) -> tuple[ConstructionLevel, Trace]:
    oracle = frame_oracles[BASE_FRAME[family]]
    start = starting_vertex(family, 0)
    trace = run_to_sink(oracle, start, family, rule_state(family, 0),
                        bundle_size=BUNDLE_SIZE[family])
    level = ConstructionLevel(family, 0, oracle.dimension, oracle, start,
                              trace.end, len(trace), default_frame=DEFAULT_FRAME[family])
    return level, trace


def _adaptive_run(family: str, level: int, prev: ConstructionLevel, frame_oracles,
                  frame_names, product: ProductOracle, oracle: OrientationOracle) -> Trace:
    """Run the rule on `oracle` while the adversary picks each inner vertex's
    frame on first demand and assigns it in `product`, the product below the
    oracle; returns the run's trace."""
    size = BUNDLE_SIZE[family]
    inner_dim = prev.dimension
    inner_mask = (1 << inner_dim) - 1
    skipped = (_bundle_bits(0, GADGET_ANCHOR[family]), HYPERSINK_POSITION[family])
    start = starting_vertex(family, level)
    state = rule_state(family, level)

    def decide(vi: int, pos: int) -> str:
        """The frame of inner vertex vi, entered at bundle position pos."""
        if vi == prev.expected_sink:
            return DEFAULT_FRAME[family]
        if family == "zadeh":
            return "f2" if is_saturated(prev.oracle, vi, state, inner_mask) else "f1"
        if pos == BOX1_POSITION[family]:
            return "f1"
        if pos == BOX5_POSITION[family]:
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

    def hook(d, v_after):
        if d.coord < inner_dim and v_after >> inner_dim not in skipped:
            assign(v_after)

    assign(start)
    return run_to_sink(oracle, start, family, state, bundle_size=size, after_step=hook)


def _realize_step(family: str, level: int, prev: ConstructionLevel, frame_oracles,
                  frame_names, frame_hashes: dict[str, str], cache_file: Path | None,
                  top: bool) -> tuple[ConstructionLevel, Trace]:
    """Level `level` on top of `prev`, with the trace of one run on it.

    The level has one product and one oracle chain.  Without a cache file
    the adversarial run assigns the product's frames, under a default that
    refuses to be read until the run ends, and its trace is the level's
    trace.  With the cache file `cache_file`, whose record must have been
    built from frame files with `frame_hashes` (stem -> sha256), the frames
    are assigned from the record, and one run on the level must reproduce
    the recorded length and sink.  Unless the level is its chain's `top`,
    the run records its path's outmaps in the level's memo, which the next
    level reads along that path.
    """
    if family == "johnson":
        replacement = build_reset(level, frame_oracles["r1"])
    else:
        replacement = UniformOracle(prev.dimension, prev.start)
    default = frame_oracles[DEFAULT_FRAME[family]]
    product = ProductOracle(
        prev.oracle, _Unassigned(default.dimension) if cache_file is None else default)
    oracle = _level_oracle(family, product, replacement)
    # A run never revisits a vertex (the orientation is acyclic), so it
    # gains nothing from its own memo.  The next level's run reads this
    # level at exactly its path vertices, in path order: its inner moves
    # walk this path twice, and its gadget walk stays in the replaced face.
    # So a level below the top runs on its memo, which records its path's
    # |P| + 1 outmaps; the top runs below its memo, which no level reads.
    oracle.recording = not top
    runs_on = oracle.base if top else oracle
    if cache_file is None:
        trace = _adaptive_run(family, level, prev, frame_oracles, frame_names,
                              product, runs_on)
        product.frames[0] = default
    else:
        start, sink, length = _read_cache(cache_file, family, level, frame_oracles,
                                          frame_hashes, product)
        trace = run_to_sink(runs_on, start, family, rule_state(family, level),
                            bundle_size=BUNDLE_SIZE[family])
        if len(trace) != length or trace.end != sink:
            raise ConstructionError(
                f"cached level {family} {level} does not replay its recorded run")
    if not top:
        oracle.bind(trace)
    built = ConstructionLevel(family, level, oracle.dimension, oracle, trace.start,
                              trace.end, len(trace), product, frame_names,
                              DEFAULT_FRAME[family],
                              _bundle_bits(prev.dimension, GADGET_ANCHOR[family]))
    return built, trace


# Keys the rest of a cache record, after its assignments, must hold to be
# reloaded.
CACHE_KEYS = ("family", "level", "start", "sink", "path_length", "frame_files")
# Assignment lines per chunk of a streamed cache write or read.
CACHE_WRITE_BLOCK = 1 << 8
# The head of a record with and without assignments, and the line that
# closes a nonempty assignments block.
_HEAD = b'{\n  "assignments": {\n'
_HEAD_EMPTY = b'{\n  "assignments": {},\n'
_CLOSE = b"  },\n"


def cache_path(cache_dir: Path, family: str, level: int) -> Path:
    return cache_dir / f"{family}_level{level}.json"


def _is_vertex_text(text, n: int) -> bool:
    """True iff `text` is the text of a vertex of an n-cube."""
    return isinstance(text, str) and len(text) == n and not text.strip("01")


def _read_cache(path: Path, family: str, level: int, frame_oracles,
                frame_hashes: dict[str, str], product: ProductOracle) -> tuple[int, int, int]:
    """Check the cache record at `path` and assign `product`'s frames from
    its assignments; returns the recorded start, sink and path length.

    The record must be laid out exactly as _cache_chunks writes it.  The
    assignment lines are parsed from the file's bytes, CACHE_WRITE_BLOCK
    lines at a time, and json.loads reads only the rest of the record,
    which must be json.dumps(rest, indent=2, sort_keys=True) of what it
    reads and hold no second "assignments".  Any other layout raises
    CacheFileError naming the file.  The checks then go in this order: the
    rest's keys, its integer level and path length and its start and sink
    texts (CacheFileError), its family and level, its frame hashes
    (ConstructionError), and last the assignment lines (CacheFileError):
    each a vertex text of the inner dimension, after the line before it in
    text order, and a frame name of the family.  The lines are merged with
    the lower path sorted by vertex text: a frame goes to its vertex's path
    position, or to the side dict if the vertex is off the path.
    """
    def refuse(what: str) -> CacheFileError:
        return CacheFileError(f"cache file {path} {what}; delete it to rebuild the level")

    inner_dim = product.inner.dimension
    frames = {json.dumps(name).encode(): frame for name, frame in frame_oracles.items()}
    # The lower path positions' text numbers, then one above them all, and
    # the positions in the order of their numbers.
    texts = array("Q", _text_numbers(product))
    texts.append(1 << inner_dim)
    order = sorted(range(len(texts)), key=texts.__getitem__)
    rows_of = {}  # the product's row of each frame name in the file
    end = 5 + inner_dim  # where a line's vertex text ends
    bad = None  # the number of the first line that breaks the assignments
    with open(path, "rb") as f:
        head = f.readline() + f.readline()
        if head == _HEAD_EMPTY:
            rest = f.read()
        elif head != _HEAD:
            raise refuse("does not open as a level record")
        else:
            # `last` is the previous line's number and `at` that of order[k],
            # the first position not below it; `after_comma` says whether a
            # comma ended the previous line (the head counts as one), so
            # that an assignment line may follow it and the close may not.
            rest, number, last, after_comma = None, 2, -1, True
            k, at = 0, texts[order[0]]
            while rest is None:
                block = list(islice(f, CACHE_WRITE_BLOCK))
                if not block:
                    raise refuse("ends inside its assignments")
                for j, line in enumerate(block, number + 1):
                    if line == _CLOSE:
                        if after_comma and bad is None:
                            bad = j
                        rest = b"".join(block[j - number:]) + f.read()
                        break
                    if bad is not None:
                        continue
                    comma = line.endswith(b",\n")
                    name = line[end + 3:-2 if comma else -1]
                    frame = frames.get(name)
                    bits = line[5:end]
                    if (not after_comma or frame is None or line[:5] != b'    "'
                            or line[end:end + 3] != b'": ' or bits.strip(b"01")
                            or (text := int(bits, 2)) <= last):
                        bad = j
                        continue
                    row = rows_of.get(name) or rows_of.setdefault(name, product.row(frame))
                    while at < text:
                        k += 1
                        at = texts[order[k]]
                    if at == text:
                        product.rows[order[k]] = row
                    else:  # off the lower path
                        product.side[int(bits[::-1], 2)] = row
                    last, after_comma = text, comma
                number += len(block)
    try:
        text = "{\n" + rest.decode("utf-8")
        record = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise refuse(f"is unreadable ({exc})") from exc
    if "assignments" in record or json.dumps(record, indent=2, sort_keys=True) + "\n" != text:
        raise refuse("is not laid out as the cache writer lays a record out")
    n = inner_dim + BUNDLE_SIZE[family]
    if not (all(key in record for key in CACHE_KEYS)
            and type(record["level"]) is int and type(record["path_length"]) is int
            and isinstance(record["frame_files"], dict)
            and _is_vertex_text(record["start"], n)
            and _is_vertex_text(record["sink"], n)):
        raise refuse("is not a level record")
    if record["family"] != family or record["level"] != level:
        raise ConstructionError("cache file does not match the requested level")
    for stem, digest in frame_hashes.items():
        if record["frame_files"].get(stem) != digest:
            raise ConstructionError(
                f"cached level {family} {level} was built from another "
                f"{family}_{stem}.frame (sha256 differs)")
    if bad is not None:
        raise refuse(f"line {bad} does not assign a {family} frame to the next inner "
                     f"vertex of dimension {inner_dim} in text order")
    return (parse_vertex(record["start"]), parse_vertex(record["sink"]),
            record["path_length"])


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


def _text_numbers(product: ProductOracle, shift: int = 0):
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
    sorted in place: the vertex text read as a number, shifted left 8 bits
    and ORed with the frame row, which is 0 where no frame is assigned.  So
    an inner dimension above 56 raises ConstructionError."""
    product = level.product
    inner_dim = level.dimension - level.bundle_size
    if product is not None and inner_dim > 56:
        raise ConstructionError(f"cannot key {inner_dim}-bit vertex texts in 56 bits")
    rest = json.dumps({
        "family": level.family,
        "level": level.level,
        "dimension": level.dimension,
        "start": vertex_text(level.start, level.dimension),
        "sink": vertex_text(level.expected_sink, level.dimension),
        "path_length": level.path_length,
        "default_frame": level.default_frame,
        "gadget_anchor": vertex_text(level.gadget_anchor, level.dimension),
        "frame_files": hashes,
    }, indent=2, sort_keys=True)
    yield '{\n  "assignments": {'
    close = "}"
    if product is not None:
        names = [json.dumps(level.frame_names[frame]) for frame in product.frames]
        keys = np.fromiter(map(or_, _text_numbers(product, 8),
                               chain(product.rows, product.side.values())),
                           np.uint64, len(product.rows) + len(product.side))
        keys.sort()
        separator = "\n"
        for i in range(0, len(keys), CACHE_WRITE_BLOCK):
            block = keys[i:i + CACHE_WRITE_BLOCK]
            lines = [f'    "{text:0{inner_dim}b}": {names[row]}'
                     for text, row in zip((block >> 8).tolist(), (block & 255).tolist())
                     if row]
            if lines:
                yield separator + ",\n".join(lines)
                separator, close = ",\n", "\n  }"
    yield close + "," + rest[1:] + "\n"


def realize_range(family: str, max_level: int, frames_dir=None, cache_dir=None,
                  write: bool = True):
    """Levels 0..max_level with their traces, built strictly bottom-up from
    frame files that pass validate_family, the frame gate; if it fails,
    FrameValidationError is raised before any level is built or file written.

    Each level is run once.  A level with a cache file in `cache_dir` is
    reloaded from it: the record must name the sha256 of the frame bytes
    built from, and one run must reproduce its length and sink.  Any other
    level is realized in memory and, if `write`, persisted as JSON, its
    lines streamed from the product's path bytes.  Existing cache files are
    left untouched, so a rerun is a no-op.  Every level below `max_level`
    ends with its memo bound to its path; the top's memo holds nothing.
    """
    if family not in BUNDLE_SIZE:
        raise ConstructionError(f"unknown family {family!r}")
    frames = load_family(family, frames_dir)
    report = validate_family(family, frames=frames)  # the frames built from
    if not report.passed:
        raise FrameValidationError(report)
    frame_oracles = {name: oracle for name, (_, oracle) in frames.items()}
    frame_names = {oracle: name for name, oracle in frame_oracles.items()}
    hashes = {name: spec.sha256 for name, (spec, _) in frames.items()}
    chain: list[tuple[ConstructionLevel, Trace]] = []
    for i in range(max_level + 1):
        path = None if cache_dir is None else cache_path(Path(cache_dir), family, i)
        cached = path is not None and path.exists()
        if i == 0:
            built, trace = _realize_base(family, frame_oracles)
        else:
            built, trace = _realize_step(family, i, chain[-1][0], frame_oracles,
                                         frame_names, hashes, path if cached else None,
                                         top=i == max_level)
        if write and path is not None and not cached:
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_atomic(path, _cache_chunks(built, hashes))
        chain.append((built, trace))
    return chain


def realize_level(family: str, level: int, frames_dir=None,
                  cache_dir=None) -> tuple[ConstructionLevel, Trace]:
    """Build (or reload) the family's AUSO A_level and the realizing trace."""
    return realize_range(family, level, frames_dir, cache_dir)[-1]
