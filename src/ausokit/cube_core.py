"""Vertices, directions and orientation oracles on the n-cube.

Vertices are plain ints used as bit sets: bit i set means coordinate with
global id i is present.  Global id 0 is the leftmost character of the text
form.  Everything downstream (oracles, pivot rules, verifiers) works on
these ints directly; batch evaluation takes the same bit sets as a numpy
uint64 array.  A direction is its move bit, c for +c and 64 + c for -c (its
place in the packed set (out & ~v) | (out & v) << 64 of the directions
available at v), or its text.
"""

from __future__ import annotations

import numpy as np

MAX_DIMENSION = 63


class CubeError(Exception):
    pass


class IllegalMoveError(CubeError):
    """Raised when a move is taken at a vertex that lacks/has its coordinate."""


def direction_text(b: int, bundle_size: int) -> str:
    """The text of move bit b (c for +c, 64 + c for -c): its sign, then
    bundle.index with the index 1-based, as +0.1 for +c0."""
    c = b & 63
    return f"{'-' if b >> 6 else '+'}{c // bundle_size}.{c % bundle_size + 1}"


def parse_direction(text: str, bundle_size: int) -> int:
    """The move bit of a direction's text; a coordinate outside 0..63 has none."""
    if not text or text[0] not in "+-":
        raise CubeError(f"bad direction text {text!r}")
    bundle, _, index = text[1:].partition(".")
    coord = int(bundle) * bundle_size + int(index) - 1
    if not 0 <= coord < 64:
        raise CubeError(f"direction text {text!r} names coordinate {coord}, outside 0..63")
    return coord if text[0] == "+" else 64 + coord


def vertex_text(v: int, n: int) -> str:
    # Binary with the lowest id first: the low n bits, reversed.
    return format(v & ((1 << n) - 1), f"0{n}b")[::-1] if n > 0 else ""


def parse_vertex(text: str) -> int:
    if text.strip("01"):
        raise CubeError(f"bad vertex text {text!r}")
    return int(text[::-1], 2) if text else 0


class OrientationOracle:
    """Vertex-evaluation interface: evaluate(v) returns the outmap bit set.

    Implementations must be deterministic and are treated as immutable after
    construction; memoizing internally is fine.
    """

    dimension: int

    def evaluate(self, v: int) -> int:
        raise NotImplementedError

    def evaluate_many(self, vs: np.ndarray) -> np.ndarray:
        """Outmaps of a uint64 vertex array, as uint64: evaluate(v) for each v.
        The result is a new array, which the caller may overwrite.

        This fallback loops over evaluate; oracles that can do better
        override it with the same results.
        """
        return np.fromiter((self.evaluate(v) for v in vs.tolist()),
                           dtype=np.uint64, count=len(vs))


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

    def evaluate_many(self, vs: np.ndarray) -> np.ndarray:
        return vs ^ np.uint64(self.sink)


class TableOracle(OrientationOracle):
    """Outmaps stored eagerly, one entry per vertex."""

    def __init__(self, n: int, table):
        if len(table) != 1 << n:
            raise CubeError("table length must be 2^n")
        self.dimension = n
        self.table = list(table)
        self._array = None  # built on the first batch

    def evaluate(self, v: int) -> int:
        return self.table[v]

    def evaluate_many(self, vs: np.ndarray) -> np.ndarray:
        if self._array is None:
            self._array = np.array(self.table, dtype=np.uint64)
        return self._array[vs]


def tabulate(oracle: OrientationOracle, dtype, block: int) -> np.ndarray:
    """The outmap of every vertex, indexed by vertex, in `dtype`.  The
    oracle sees `block` vertices at a time, so the temporaries of its
    chain stay small beside the table."""
    size = 1 << oracle.dimension
    table = np.empty(size, dtype=dtype)
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        table[lo:hi] = oracle.evaluate_many(np.arange(lo, hi, dtype=np.uint64))
    return table
