"""The per-direction form of a move, kept in the tests as an encoding of
its own: a `Direction` is (coord, positive), where `ausokit` speaks the
move bit, coord for +c and 64 + coord for -c.  The references state the
rules on `Direction`s, so they do not share the bit arithmetic they check.
"""

from typing import NamedTuple

from ausokit.cube_core import IllegalMoveError


class Direction(NamedTuple):
    """A signed coordinate: `coord` the global id, `positive` the sign."""

    coord: int
    positive: bool


def direction_bit(d: Direction) -> int:
    """d's move bit: coord for +c, 64 + coord for -c."""
    return d.coord if d.positive else 64 + d.coord


# The Direction of each bit: DIRECTIONS[direction_bit(d)] == d.
DIRECTIONS = tuple(Direction(b & 63, b < 64) for b in range(128))


def bits(dirs) -> bytes:
    """The move bits of a sequence of Directions: an order for the states."""
    return bytes(map(direction_bit, dirs))


def keyed(view: dict) -> dict:
    """A bit-keyed view of a state (usage, stamp, table()) keyed by Direction."""
    return {DIRECTIONS[b]: c for b, c in view.items()}


def directions(trace) -> list[Direction]:
    """The Direction of each move of a trace."""
    return [DIRECTIONS[b] for b in trace.moves]


def is_available(oracle, v: int, d: Direction) -> bool:
    """True iff d leaves v (+c where v lacks c, -c where v has it) and the
    outmap of v lists its edge."""
    bit = 1 << d.coord
    return bool(oracle.evaluate(v) & bit) and bool(v & bit) != d.positive


def apply_direction(v: int, d: Direction) -> int:
    bit = 1 << d.coord
    if d.positive:
        if v & bit:
            raise IllegalMoveError(f"+{d.coord} at vertex already containing coordinate")
    elif not v & bit:
        raise IllegalMoveError(f"-{d.coord} at vertex missing coordinate")
    return v ^ bit
