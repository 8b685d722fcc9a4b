"""Vertices, directions, faces and orientation oracles on the n-cube.

Vertices are plain ints used as bit sets: bit i set means coordinate with
global id i is present.  Global id 0 is the leftmost character of the text
form.  Everything downstream (oracles, pivot rules, verifiers) works on
these ints directly.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_DIMENSION = 63


class CubeError(Exception):
    pass


class IllegalMoveError(CubeError):
    """Raised when a direction is applied at a vertex that lacks/has the coordinate."""


class FaceSinkError(CubeError):
    """A face of a supposed USO has no sink or more than one.

    kind is "no sink" or "multiple sinks"; witnesses lists the offending
    vertices (empty for "no sink").
    """

    def __init__(self, kind: str, face: "Face", witnesses: list[int]):
        super().__init__(f"{kind} in face anchor={face.anchor:b} free={face.free:b}: {witnesses}")
        self.kind = kind
        self.face = face
        self.witnesses = witnesses


@dataclass(frozen=True, order=True)
class Direction:
    """A signed coordinate; `coord` is the global id, `positive` the sign."""

    coord: int
    positive: bool


def direction_text(d: Direction, bundle_size: int) -> str:
    sign = "+" if d.positive else "-"
    return f"{sign}{d.coord // bundle_size}.{d.coord % bundle_size + 1}"


def parse_direction(text: str, bundle_size: int) -> Direction:
    if not text or text[0] not in "+-":
        raise CubeError(f"bad direction text {text!r}")
    bundle, _, index = text[1:].partition(".")
    coord = int(bundle) * bundle_size + int(index) - 1
    return Direction(coord, text[0] == "+")


def vertex_text(v: int, n: int) -> str:
    # Binary with the lowest id first: the low n bits, reversed.
    return format(v & ((1 << n) - 1), f"0{n}b")[::-1] if n > 0 else ""


def parse_vertex(text: str) -> int:
    if text.strip("01"):
        raise CubeError(f"bad vertex text {text!r}")
    return int(text[::-1], 2) if text else 0


@dataclass(frozen=True)
class Face:
    """Face F(C, v): all vertices agreeing with anchor outside the free set."""

    anchor: int
    free: int

    def __post_init__(self):
        object.__setattr__(self, "anchor", self.anchor & ~self.free)

    @property
    def dimension(self) -> int:
        return self.free.bit_count()

    def __contains__(self, v: int) -> bool:
        return (v & ~self.free) == self.anchor

    def vertices(self):
        """Iterate the 2^dim vertices of the face."""
        free = self.free
        sub = 0
        while True:
            yield self.anchor | sub
            if sub == free:
                return
            sub = (sub - free) & free  # next subset of free


class OrientationOracle:
    """Vertex-evaluation interface: evaluate(v) returns the outmap bit set.

    Implementations must be deterministic and are treated as immutable after
    construction; memoizing internally is fine.
    """

    dimension: int

    def evaluate(self, v: int) -> int:
        raise NotImplementedError


class UniformOracle(OrientationOracle):
    """Every edge oriented toward a fixed global sink: s(v) = v xor sink."""

    def __init__(self, n: int, sink: int):
        if n > MAX_DIMENSION:
            raise CubeError(f"dimension {n} exceeds {MAX_DIMENSION}")
        if sink >> n:
            raise CubeError("sink outside the cube")
        self.dimension = n
        self.sink = sink

    def evaluate(self, v: int) -> int:
        return v ^ self.sink


class TableOracle(OrientationOracle):
    """Outmaps stored eagerly, one entry per vertex."""

    def __init__(self, n: int, table):
        if len(table) != 1 << n:
            raise CubeError("table length must be 2^n")
        self.dimension = n
        self.table = list(table)

    def evaluate(self, v: int) -> int:
        return self.table[v]


def uniform_oracle(n: int, sink: int) -> UniformOracle:
    return UniformOracle(n, sink)


def is_available(oracle: OrientationOracle, v: int, d: Direction) -> bool:
    """True iff d's edge at v is outgoing (forward edge for +c, backward for -c)."""
    bit = 1 << d.coord
    if d.positive:
        if v & bit:
            return False
    elif not v & bit:
        return False
    return bool(oracle.evaluate(v) & bit)


def apply_direction(v: int, d: Direction) -> int:
    bit = 1 << d.coord
    if d.positive:
        if v & bit:
            raise IllegalMoveError(f"+{d.coord} at vertex already containing coordinate")
    elif not v & bit:
        raise IllegalMoveError(f"-{d.coord} at vertex missing coordinate")
    return v ^ bit


def face_sink(oracle: OrientationOracle, face: Face) -> int:
    """The unique vertex of the face with no outgoing edge inside it.

    Raises FaceSinkError when the face has no sink or several; the witness
    list makes the violation reproducible.
    """
    sinks = [v for v in face.vertices() if not oracle.evaluate(v) & face.free]
    if len(sinks) == 1:
        return sinks[0]
    if not sinks:
        raise FaceSinkError("no sink", face, [])
    raise FaceSinkError("multiple sinks", face, sinks)


def edge_consistent(oracle: OrientationOracle, v: int, coord: int) -> bool:
    """Exactly one endpoint of the edge {v, v^coord} lists it as outgoing."""
    bit = 1 << coord
    return bool(oracle.evaluate(v) & bit) != bool(oracle.evaluate(v ^ bit) & bit)
