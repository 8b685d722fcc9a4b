"""Oracle combinators: product composition and face reorientation.

Both are lazy: the returned oracles evaluate on demand and never
materialize the composed cube, so deeply nested compositions stay cheap.
The product places the inner cube on the low global ids and the frames on
the ids directly above it, which is how the recursive constructions stack
bundles.  For batches a product tabulates its few distinct frames once, one
row of 2^outer outmaps each, and answers a batch with one gather.

A level of a recursive construction is read along its path.  Its memo holds
the outmaps of the one run on it in path order, 8 bytes a vertex, and the
product above it one frame byte per position of that path; both are read
at the memo's cursor, which follows the run's moves.  A read off the cursor
searches the path's sorted column, built on first need, and a vertex off
the path goes to the base (the product's frame to a small side dict), so
no answer depends on the order of the reads.

Batches do not touch the path.  A memo of at most TABLE_MAX_DIM dimensions
fills one read-only table of its base's outmaps on its first batch and
answers every batch with one gather from it; a larger memo passes its
batches to its base.  Every level is such a memo, so a batch through a
chain recurses only through the levels above 2^TABLE_MAX_DIM vertices.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import cached_property
from itertools import accumulate
from operator import xor
from types import MappingProxyType

import numpy as np

from .cube_core import (
    CubeError,
    Face,
    OrientationOracle,
    TableOracle,
    tabulate,
)

DEFAULT_FACE_ENUM_CAP = 1 << 20
MATERIALIZE_MAX_DIM = 20
TABLE_MAX_DIM = 16  # a memo of at most this many dimensions answers batches from a table
_TABLE_BLOCK = 1 << 14  # vertices per base batch while a memo fills its table


class CombinatorError(CubeError):
    pass


class ReorientationError(CombinatorError):
    """The face's vertices disagree on their external outmap."""

    def __init__(self, face: Face, witness: tuple[int, int]):
        super().__init__(f"external outmap not uniform on face: vertices {witness}")
        self.face = face
        self.witness = witness


# The bit that a trace's move byte flips: 1 << its direction's coordinate.
_FLIP = tuple(1 << (b & 63) for b in range(256))


class MemoOracle(OrientationOracle):
    """Path-order memo over `base`.  While `recording`, every evaluation is
    the base's and is appended to `outmaps`: the run on the memo reads its
    path in order.  bind(trace) ties the column to that run's start and
    moves.  Then the cursor (vertex `at`, position `pos`) answers its
    vertex, the next one and the start, the sorted column (built on first
    need) any other path vertex, and the base a vertex off the path,
    without storing it.  A memo never bound stores nothing.  Batches go to
    the table of every vertex's outmap, 8 bytes a vertex, that the first
    batch fills from the base, if the cube has at most 2^TABLE_MAX_DIM
    vertices, and to the base otherwise."""

    def __init__(self, base: OrientationOracle):
        self.base = base
        self.dimension = base.dimension
        self.outmaps = array("Q")
        self.recording = False
        self.moves: bytes | None = None
        self.start = self.at = self._next = -1
        self.pos = 0

    def bind(self, trace) -> None:
        """End the recording run `trace` (its start and moves) on the memo."""
        if len(self.outmaps) != len(trace.moves) + 1:
            raise CombinatorError("the memo did not record exactly its run's path")
        self.recording = False
        self.start, self.moves = trace.start, bytes(trace.moves)
        self.seek(trace.start)

    def vertices(self) -> array:
        """The path's vertices in path order; none before bind."""
        return array("Q", () if self.moves is None else accumulate(
            map(_FLIP.__getitem__, self.moves), xor, initial=self.start))

    def entries(self) -> list[tuple[int, int]]:
        """The memoized (vertex, outmap) pairs, in path order."""
        return list(zip(self.vertices(), self.outmaps))

    @cached_property
    def _column(self) -> tuple[array, array]:
        """The path's vertices in ascending order, and the position of each."""
        vertices = self.vertices()
        where = sorted(range(len(vertices)), key=vertices.__getitem__)
        return array("Q", map(vertices.__getitem__, where)), array("I", where)

    def _position(self, v: int) -> int:
        """The position of v on the path, through the sorted column, or -1."""
        keys, where = self._column
        i = bisect_left(keys, v)
        return where[i] if i < len(keys) and keys[i] == v else -1

    def seek(self, v: int) -> bool:
        """Move the cursor to v if v is on the path."""
        if v == self._next:
            pos = self.pos + 1
        elif v == self.start:
            pos = 0
        elif self.moves is None or (pos := self._position(v)) < 0:
            return False
        self.pos, self.at = pos, v
        try:
            self._next = v ^ _FLIP[self.moves[pos]]
        except IndexError:  # v is the sink
            self._next = -1
        return True

    def evaluate(self, v: int) -> int:
        if v == self.at or self.moves is not None and self.seek(v):
            return self.outmaps[self.pos]
        out = self.base.evaluate(v)
        if self.recording:
            self.outmaps.append(out)
        return out

    def evaluate_many(self, vs: np.ndarray) -> np.ndarray:
        """One gather from the table, or straight to the base above
        TABLE_MAX_DIM; batch work neither reads nor fills the path."""
        if self.dimension > TABLE_MAX_DIM:
            return self.base.evaluate_many(vs)
        return self._table[vs]

    @cached_property
    def _table(self) -> np.ndarray:
        """The base's outmap of every vertex, read-only, filled _TABLE_BLOCK
        vertices at a time.  A fill that raises leaves no table."""
        table = tabulate(self.base, np.uint64, _TABLE_BLOCK)
        table.flags.writeable = False
        return table


class ProductOracle(OrientationOracle):
    """Product composition: inner USO on the low coords, one connecting frame
    per inner vertex orienting the outer coords.  `overrides` maps an inner
    vertex to its frame; every other inner vertex has `default`.

    s(v) = inner(v & low) | frame(v & low)(v >> k) << k.  USO and acyclicity
    are preserved when the inner oracle and every frame have them.  A frame
    is held as its row in `frames`, row 0 the default: one byte per
    position of the path of `lower`, the inner memo if it is bound (0: no
    frame assigned), in `rows`, and for any other inner vertex in the dict
    `side`.  assign() adds frames until the first batch tabulates them.
    """

    def __init__(self, inner: OrientationOracle, default: OrientationOracle,
                 overrides: dict[int, OrientationOracle] | None = None):
        self.inner = inner
        self.inner_mask = (1 << inner.dimension) - 1
        self.dimension = inner.dimension + default.dimension
        bound = isinstance(inner, MemoOracle) and inner.moves is not None
        self.lower = inner if bound else MemoOracle(inner)  # unbound: no path
        self.rows = bytearray(len(self.lower.outmaps))
        self.side: dict[int, int] = {}
        self.frames = [default]
        self._row_of: dict[int, int] = {}
        for vi, frame in (overrides or {}).items():
            self.assign(vi, frame)

    def row(self, frame: OrientationOracle) -> int:
        """The row of `frame` as an assigned frame, added on first use."""
        if id(frame) not in self._row_of:
            if frame.dimension != self.frames[0].dimension:
                raise CombinatorError("all frames must share the outer dimension")
            if len(self.frames) == 256:
                raise CombinatorError("more than 255 distinct frames")
            self._row_of[id(frame)] = len(self.frames)
            self.frames.append(frame)
        return self._row_of[id(frame)]

    def assign(self, vi: int, frame: OrientationOracle) -> OrientationOracle:
        """Give inner vertex vi `frame` unless it holds one; returns the
        frame it holds.  On the lower path, the byte at the lower cursor."""
        lower = self.lower
        if on_path := vi == lower.at or lower.seek(vi):
            held = self.rows[lower.pos]
        else:
            held = self.side.get(vi, 0)
        if not held:
            held = self._row_of.get(id(frame)) or self.row(frame)
            if on_path:
                self.rows[lower.pos] = held
            else:
                self.side[vi] = held
        return self.frames[held]

    def _columns(self) -> tuple[array, bytes]:
        """Every inner vertex with a byte, ascending, and its byte: the lower
        path's vertices (0 where none is assigned) and the side's."""
        keys, where = self.lower._column
        rows = bytes(map(self.rows.__getitem__, where))
        if self.side:
            pairs = sorted([*zip(keys, rows), *self.side.items()])
            keys, rows = array("Q", [k for k, _ in pairs]), bytes([r for _, r in pairs])
        return keys, rows

    def items(self) -> list[tuple[int, OrientationOracle]]:
        """(inner vertex, frame) of each assigned vertex, in vertex order."""
        return [(v, self.frames[row]) for v, row in zip(*self._columns()) if row]

    @cached_property
    def _tables(self):
        """The frames as an interval map over inner vertices, and one uint64
        row per distinct frame (row 0 the default) holding its outmap of
        every outer vertex.  Each inner vertex k with a byte is the interval
        [k, k + 1) and the gaps between them have row 0; adjacent intervals
        of one row are merged.  `bounds` holds every interval's start but
        the first (0), so searchsorted(bounds, v, "right") is the index of
        v's interval in `offsets`, which holds each interval's row times
        2^outer, its offset into the flattened table, in the narrowest
        unsigned type.  Assignment ends here: once the tables are built,
        `rows` and `side` become read-only; a batch that raises leaves them
        open."""
        outer_dim = self.dimension - self.inner.dimension
        if outer_dim > MATERIALIZE_MAX_DIM:
            raise CombinatorError(
                f"refusing to tabulate {outer_dim}-dimensional frames "
                f"(max {MATERIALIZE_MAX_DIM})")
        key_column, rows = self._columns()
        keys = np.frombuffer(key_column, dtype=np.uint64)
        distinct = list({id(frame): frame for frame in self.frames}.values())
        row_offsets = [distinct.index(frame) << outer_dim for frame in self.frames]
        # Intervals start at 0, and at k and k + 1 for each key k; their
        # offsets are 0, the key's and 0.  Kept are the nonempty ones whose
        # offset differs from the previous kept one's.
        starts = np.zeros(2 * len(keys) + 1, dtype=np.uint64)
        starts[1::2] = keys
        np.add(starts[1::2], np.uint64(1), out=starts[2::2])
        offsets = np.zeros(len(starts), np.min_scalar_type(len(distinct) - 1 << outer_dim))
        offsets[1::2] = list(map(row_offsets.__getitem__, rows))
        keep = np.append(starts[1:] != starts[:-1], True)
        kept = offsets[keep]
        keep[keep] = np.append(True, kept[1:] != kept[:-1])
        outer = np.arange(1 << outer_dim, dtype=np.uint64)
        table = np.stack([frame.evaluate_many(outer) for frame in distinct])
        self.rows, self.side = bytes(self.rows), MappingProxyType(self.side)
        return starts[keep][1:], offsets[keep], table

    def evaluate(self, v: int) -> int:
        """One cursor test: on the lower path, the inner outmap and the
        frame byte are both read at the cursor's position."""
        vi = v & self.inner_mask
        k = self.inner.dimension
        lower = self.lower
        if vi == lower.at or lower.seek(vi):
            out, row = lower.outmaps[lower.pos], self.rows[lower.pos]
        else:
            out, row = lower.base.evaluate(vi), self.side.get(vi, 0)
        return out | self.frames[row].evaluate(v >> k) << k

    def evaluate_many(self, vs: np.ndarray) -> np.ndarray:
        """The inner batch first, so no frame-side array is held while the
        inner chain recurses; then each vertex's frame row by one search of
        the interval map and its outmap by one gather from the table."""
        vi = vs & np.uint64(self.inner_mask)
        out = self.inner.evaluate_many(vi)
        bounds, offsets, table = self._tables
        k = np.uint64(self.inner.dimension)
        at = offsets[np.searchsorted(bounds, vi, "right")] + (vs >> k)
        out |= table.reshape(-1)[at] << k
        return out


def external_outmap_uniform(oracle: OrientationOracle, face: Face):
    """Check the reorientation precondition by enumerating the face.

    Returns (True, shared_external, None) or (False, None, (v, w)) with a
    witness pair of face vertices whose external outmaps differ.
    """
    if 1 << face.dimension > DEFAULT_FACE_ENUM_CAP:
        raise CombinatorError(f"face with 2^{face.dimension} vertices exceeds "
                              f"enumeration cap {DEFAULT_FACE_ENUM_CAP}")
    it = face.vertices()
    first = next(it)
    external = oracle.evaluate(first) & ~face.free
    for v in it:
        if oracle.evaluate(v) & ~face.free != external:
            return False, None, (first, v)
    return True, external, None


class _BitCompressor:
    """Maps between subsets of an arbitrary free mask and dense low bits.

    Works on an int or elementwise on a uint64 array alike.
    """

    def __init__(self, free: int):
        self.bits = [i for i in range(free.bit_length()) if (free >> i) & 1]

    def compress(self, v):
        out = 0
        for j, i in enumerate(self.bits):
            out |= ((v >> i) & 1) << j
        return out

    def expand(self, w):
        out = 0
        for j, i in enumerate(self.bits):
            out |= ((w >> j) & 1) << i
        return out


class ReorientedOracle(OrientationOracle):
    """Overlay oracle: inside the face the replacement orients the free
    coordinates and the shared external outmap is kept; outside, the base."""

    def __init__(self, base: OrientationOracle, face: Face,
                 replacement: OrientationOracle, shared_external: int):
        if replacement.dimension != face.dimension:
            raise CombinatorError("replacement dimension must equal the face dimension")
        self.base = base
        self.face = face
        self.replacement = replacement
        self.shared_external = shared_external
        self.dimension = base.dimension
        low = (1 << face.dimension) - 1
        self._identity = face.free == low
        self._comp = None if self._identity else _BitCompressor(face.free)
        # v is in the face iff v | free == anchor | free.
        self._free, self._closure = face.free, face.anchor | face.free

    def evaluate(self, v: int) -> int:
        if v | self._free != self._closure:
            return self.base.evaluate(v)
        if self._identity:
            inner = self.replacement.evaluate(v & self._free)
        else:
            inner = self._comp.expand(self.replacement.evaluate(self._comp.compress(v)))
        return inner | self.shared_external

    def evaluate_many(self, vs: np.ndarray) -> np.ndarray:
        """The base on the whole batch, then the face's rows overwritten."""
        out = self.base.evaluate_many(vs)
        inside = (vs | np.uint64(self._free)) == np.uint64(self._closure)
        if inside.any():
            w = vs[inside]
            if self._identity:
                inner = self.replacement.evaluate_many(w & np.uint64(self._free))
            else:
                inner = self._comp.expand(
                    self.replacement.evaluate_many(self._comp.compress(w)))
            out[inside] = inner | np.uint64(self.shared_external)
        return out


def reorient_face(base: OrientationOracle, face: Face,
                  replacement: OrientationOracle) -> ReorientedOracle:
    """Install `replacement` on the face, keeping the shared external outmap.

    The precondition is verified over the whole face; a failure raises
    ReorientationError with a witness pair.  (The recursive builders build
    ReorientedOracle directly: they justify the precondition frame by frame
    instead of enumerating exponentially large faces.)
    """
    ok, external, witness = external_outmap_uniform(base, face)
    if not ok:
        raise ReorientationError(face, witness)
    return ReorientedOracle(base, face, replacement, external)


def materialize(oracle: OrientationOracle) -> TableOracle:
    """Eager table of the oracle; refused above MATERIALIZE_MAX_DIM to
    protect memory."""
    n = oracle.dimension
    if n > MATERIALIZE_MAX_DIM:
        raise CombinatorError(
            f"refusing to materialize a {n}-cube (max {MATERIALIZE_MAX_DIM})")
    return TableOracle(n, [oracle.evaluate(v) for v in range(1 << n)])
