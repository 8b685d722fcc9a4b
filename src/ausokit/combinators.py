"""Oracle combinators: product composition and face reorientation.

Both are lazy: the returned oracles evaluate on demand and never
materialize the composed cube, so deeply nested compositions stay cheap.
The product places the inner cube on the low global ids and the frames on
the ids directly above it, which is how the recursive constructions stack
bundles.  A product holds its own connecting frames: a default plus sparse
per-inner-vertex overrides.  For batches it tabulates its few distinct
frames once, one row of 2^outer outmaps each, and answers a batch with one
gather.

A product and a memo start as dicts and can be frozen once nothing writes
to them any more: sorted uint64 keys in an `array`, with a uint8 frame row
(product) or a uint64 outmap (memo) per key, 9 and 16 bytes an entry
against some 80 and 112 for the dicts.  A frozen lookup bisects the keys.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import cached_property

import numpy as np

from .cube_core import (
    CubeError,
    Face,
    OrientationOracle,
    TableOracle,
)

DEFAULT_FACE_ENUM_CAP = 1 << 20
MATERIALIZE_MAX_DIM = 20


class CombinatorError(CubeError):
    pass


class ReorientationError(CombinatorError):
    """The face's vertices disagree on their external outmap."""

    def __init__(self, face: Face, witness: tuple[int, int]):
        super().__init__(f"external outmap not uniform on face: vertices {witness}")
        self.face = face
        self.witness = witness


def _index(keys: array, v: int) -> int:
    """The position of v in the sorted keys, or -1."""
    i = bisect_left(keys, v)
    return i if i < len(keys) and keys[i] == v else -1


class ProductOracle(OrientationOracle):
    """Product composition: inner USO on the low coords, one connecting frame
    per inner vertex orienting the outer coords.  `overrides` maps an inner
    vertex to its frame; every other inner vertex has `default`.

    s(v) = inner(v & low) | frame(v & low)(v >> k) << k.  USO and acyclicity
    are preserved when the inner oracle and every frame have them.
    `default` and `overrides` may be filled in until the product is frozen,
    by freeze() or by the first evaluate_many, which tabulates the frames.
    Frozen, it holds `keys`, the overridden inner vertices in ascending
    order, `rows`, each key's index into `frames` as one byte, and
    `frames`, the distinct frames with the default first; `overrides` is
    then None.
    """

    def __init__(self, inner: OrientationOracle, default: OrientationOracle,
                 overrides: dict[int, OrientationOracle] | None = None):
        self.inner = inner
        self.default = default
        self.overrides = dict(overrides or {})
        for frame in self.overrides.values():
            if frame.dimension != default.dimension:
                raise CombinatorError("all frames must share the outer dimension")
        self.inner_mask = (1 << inner.dimension) - 1
        self.dimension = inner.dimension + default.dimension
        self.keys = self.rows = self.frames = None

    @property
    def frozen(self) -> bool:
        return self.overrides is None

    def freeze(self) -> None:
        """Replace the overrides dict by the sorted key and row columns; a
        no-op once frozen."""
        if self.overrides is None:
            return
        keys = sorted(self.overrides)
        frames = [self.default]
        row_of = {id(self.default): 0}
        rows = bytearray(len(keys))
        for i, key in enumerate(keys):
            frame = self.overrides[key]
            row = row_of.get(id(frame))
            if row is None:
                if len(frames) == 256:
                    raise CombinatorError("more than 256 distinct frames")
                row = row_of[id(frame)] = len(frames)
                frames.append(frame)
            rows[i] = row
        self.keys, self.rows, self.frames = array("Q", keys), bytes(rows), tuple(frames)
        self.overrides = None

    def items(self) -> list[tuple[int, OrientationOracle]]:
        """(inner vertex, frame) of each override, in vertex order."""
        if self.overrides is not None:
            return sorted(self.overrides.items())
        return list(zip(self.keys, map(self.frames.__getitem__, self.rows)))

    @cached_property
    def _tables(self):
        """The frozen overrides as an interval map over inner vertices, and
        one uint64 row per frame of `frames` (row 0 the default) holding
        its outmap of every outer vertex.  Each key k is the interval
        [k, k + 1) and the gaps between them have row 0; adjacent intervals
        of one row are merged.  `bounds` holds every interval's start but
        the first (0), so searchsorted(bounds, v, "right") is the index of
        v's interval in `offsets`, which holds each interval's row times
        2^outer, its offset into the flattened table, in the narrowest
        unsigned type."""
        outer_dim = self.dimension - self.inner.dimension
        if outer_dim > MATERIALIZE_MAX_DIM:
            raise CombinatorError(
                f"refusing to tabulate {outer_dim}-dimensional frames "
                f"(max {MATERIALIZE_MAX_DIM})")
        self.freeze()
        keys = np.frombuffer(self.keys, dtype=np.uint64)
        row_offsets = [row << outer_dim for row in range(len(self.frames))]
        # Intervals start at 0, and at k and k + 1 for each key k; their
        # offsets are 0, the key's and 0.  Kept are the nonempty ones whose
        # offset differs from the previous kept one's.
        starts = np.zeros(2 * len(keys) + 1, dtype=np.uint64)
        starts[1::2] = keys
        np.add(starts[1::2], np.uint64(1), out=starts[2::2])
        offsets = np.zeros(len(starts), np.min_scalar_type(row_offsets[-1]))
        offsets[1::2] = list(map(row_offsets.__getitem__, self.rows))
        keep = np.append(starts[1:] != starts[:-1], True)
        kept = offsets[keep]
        keep[keep] = np.append(True, kept[1:] != kept[:-1])
        outer = np.arange(1 << outer_dim, dtype=np.uint64)
        table = np.stack([frame.evaluate_many(outer) for frame in self.frames])
        return starts[keep][1:], offsets[keep], table

    def evaluate(self, v: int) -> int:
        vi = v & self.inner_mask
        k = self.inner.dimension
        if self.overrides is not None:
            frame = self.overrides.get(vi, self.default)
        else:
            i = _index(self.keys, vi)
            frame = self.frames[self.rows[i]] if i >= 0 else self.default
        return self.inner.evaluate(vi) | (frame.evaluate(v >> k) << k)

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


class MemoOracle(OrientationOracle):
    """Deterministic caching wrapper; useful over deep lazy compositions.
    Frozen (freeze()), it holds `keys`, the memoized vertices in ascending
    order, and their `outmaps`, and answers any other vertex from its base
    without storing it."""

    def __init__(self, base: OrientationOracle):
        self.base = base
        self.dimension = base.dimension
        self._cache: dict[int, int] | None = {}
        self.keys = self.outmaps = None

    @property
    def frozen(self) -> bool:
        return self._cache is None

    def freeze(self) -> None:
        """Replace the memo dict by the sorted key and outmap columns; a
        no-op once frozen."""
        if self._cache is None:
            return
        keys = sorted(self._cache)
        self.keys = array("Q", keys)
        self.outmaps = array("Q", map(self._cache.__getitem__, keys))
        self._cache = None

    def entries(self) -> list[tuple[int, int]]:
        """The memoized (vertex, outmap) pairs, in vertex order once frozen."""
        if self._cache is None:
            return list(zip(self.keys, self.outmaps))
        return list(self._cache.items())

    def evaluate(self, v: int) -> int:
        cache = self._cache
        if cache is None:
            i = _index(self.keys, v)
            return self.outmaps[i] if i >= 0 else self.base.evaluate(v)
        out = cache.get(v)
        if out is None:
            out = cache[v] = self.base.evaluate(v)
        return out

    def evaluate_many(self, vs: np.ndarray) -> np.ndarray:
        """Straight to the base: batch work neither reads nor fills the memo."""
        return self.base.evaluate_many(vs)
