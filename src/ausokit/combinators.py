"""Oracle combinators: product composition and face reorientation.

Both are lazy: the returned oracles evaluate on demand and never
materialize tables, so deeply nested compositions stay cheap.  The product
places the inner cube on the low global ids and the frames on the ids
directly above it, which is how the recursive constructions stack bundles.
"""

from __future__ import annotations

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


class FrameAssignmentMap:
    """Connecting frame per inner vertex: a default plus sparse overrides."""

    def __init__(self, inner_dimension: int, default: OrientationOracle,
                 overrides: dict[int, OrientationOracle] | None = None):
        self.inner_dimension = inner_dimension
        self.default = default
        self.overrides = dict(overrides or {})
        self.outer_dimension = default.dimension
        for frame in self.overrides.values():
            if frame.dimension != self.outer_dimension:
                raise CombinatorError("all frames must share the outer dimension")

    def frame_for(self, inner_vertex: int) -> OrientationOracle:
        return self.overrides.get(inner_vertex, self.default)


class ProductOracle(OrientationOracle):
    """Product composition: inner USO on the low coords, one connecting frame
    per inner vertex orienting the outer coords.

    s(v) = inner(v & low) | frame(v & low)(v >> k) << k.  USO and acyclicity
    are preserved when the inner oracle and every frame have them.
    """

    def __init__(self, inner: OrientationOracle, frames: FrameAssignmentMap):
        if frames.inner_dimension != inner.dimension:
            raise CombinatorError(
                f"frame map keyed on {frames.inner_dimension}-cube but inner has "
                f"dimension {inner.dimension}")
        self.inner = inner
        self.frames = frames
        self.inner_mask = (1 << inner.dimension) - 1
        self.dimension = inner.dimension + frames.outer_dimension

    def evaluate(self, v: int) -> int:
        vi = v & self.inner_mask
        vo = v >> self.inner.dimension
        return self.inner.evaluate(vi) | (
            self.frames.frame_for(vi).evaluate(vo) << self.inner.dimension)


def product(inner: OrientationOracle, frames: FrameAssignmentMap) -> ProductOracle:
    return ProductOracle(inner, frames)


def external_outmap_uniform(oracle: OrientationOracle, face: Face,
                            cap: int = DEFAULT_FACE_ENUM_CAP):
    """Check the reorientation precondition by enumerating the face.

    Returns (True, shared_external, None) or (False, None, (v, w)) with a
    witness pair of face vertices whose external outmaps differ.
    """
    if 1 << face.dimension > cap:
        raise CombinatorError(
            f"face with 2^{face.dimension} vertices exceeds enumeration cap {cap}")
    it = face.vertices()
    first = next(it)
    external = oracle.evaluate(first) & ~face.free
    for v in it:
        if oracle.evaluate(v) & ~face.free != external:
            return False, None, (first, v)
    return True, external, None


class _BitCompressor:
    """Maps between subsets of an arbitrary free mask and dense low bits."""

    def __init__(self, free: int):
        self.bits = [i for i in range(free.bit_length()) if (free >> i) & 1]

    def compress(self, v: int) -> int:
        out = 0
        for j, i in enumerate(self.bits):
            if (v >> i) & 1:
                out |= 1 << j
        return out

    def expand(self, w: int) -> int:
        out = 0
        for j, i in enumerate(self.bits):
            if (w >> j) & 1:
                out |= 1 << i
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

    def evaluate(self, v: int) -> int:
        face = self.face
        if (v & ~face.free) != face.anchor:
            return self.base.evaluate(v)
        if self._identity:
            inner = self.replacement.evaluate(v & face.free)
        else:
            inner = self._comp.expand(self.replacement.evaluate(self._comp.compress(v)))
        return inner | self.shared_external


def reorient_face(base: OrientationOracle, face: Face,
                  replacement: OrientationOracle,
                  cap: int = DEFAULT_FACE_ENUM_CAP) -> ReorientedOracle:
    """Install `replacement` on the face, keeping the shared external outmap.

    The precondition is verified over the whole face; a failure raises
    ReorientationError with a witness pair.  (The recursive builders build
    ReorientedOracle directly: they justify the precondition frame by frame
    instead of enumerating exponentially large faces.)
    """
    ok, external, witness = external_outmap_uniform(base, face, cap)
    if not ok:
        raise ReorientationError(face, witness)
    return ReorientedOracle(base, face, replacement, external)


def materialize(oracle: OrientationOracle, max_dim: int = MATERIALIZE_MAX_DIM) -> TableOracle:
    """Eager table of the oracle; refused above max_dim to protect memory."""
    n = oracle.dimension
    if n > max_dim:
        raise CombinatorError(f"refusing to materialize a {n}-cube (max {max_dim})")
    return TableOracle(n, [oracle.evaluate(v) for v in range(1 << n)])


class MemoOracle(OrientationOracle):
    """Deterministic caching wrapper; useful over deep lazy compositions."""

    def __init__(self, base: OrientationOracle):
        self.base = base
        self.dimension = base.dimension
        self._cache: dict[int, int] = {}

    def evaluate(self, v: int) -> int:
        out = self._cache.get(v)
        if out is None:
            out = self._cache[v] = self.base.evaluate(v)
        return out
