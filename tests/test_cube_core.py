import random

import pytest

from ausokit.cube_core import (
    CubeError,
    IllegalMoveError,
    UniformOracle,
    direction_text,
    parse_direction,
    parse_vertex,
    vertex_text,
)
from ausokit.verifier import check_acyclic, check_uso_exhaustive
from directions import DIRECTIONS, Direction, apply_direction, direction_bit, is_available

# The apply_direction, is_available and direction_bit tests check the tests'
# own per-direction encoding (tests/directions.py), on which the references
# state the rules.


def test_apply_direction_basics():
    assert apply_direction(0b00, Direction(0, True)) == 0b01
    assert apply_direction(0b11, Direction(1, False)) == 0b01
    # bundle notation: adding c_0^1 to {c_0^2}
    assert apply_direction(0b0010, Direction(0, True)) == 0b0011


def test_apply_direction_illegal():
    with pytest.raises(IllegalMoveError):
        apply_direction(0b01, Direction(0, True))
    with pytest.raises(IllegalMoveError):
        apply_direction(0b00, Direction(0, False))


def test_uniform_oracle_outmaps():
    o = UniformOracle(2, 0)
    assert o.evaluate(0b11) == 0b11
    assert UniformOracle(2, 0b11).evaluate(0) == 0b11
    # unique vertex with empty outmap is the sink
    sinks = [v for v in range(4) if o.evaluate(v) == 0]
    assert sinks == [0]


def test_uniform_4cube_with_offset_sink_is_auso():
    # sink {c^1, c^4}
    o = UniformOracle(4, 0b1001)
    assert check_uso_exhaustive(o).passed
    assert check_acyclic(o).passed


def test_is_available_uniform():
    o = UniformOracle(2, 0)
    assert is_available(o, 0b01, Direction(0, False))
    assert not is_available(o, 0b01, Direction(0, True))
    assert not is_available(o, 0b01, Direction(1, False))


def test_is_available_johnson_frame_start(johnson_frames):
    f1 = johnson_frames["f1"]
    assert is_available(f1, 0, Direction(0, True))


def test_exactly_one_sign_available():
    rng = random.Random(5)
    o = UniformOracle(6, rng.getrandbits(6))
    for _ in range(200):
        v = rng.getrandbits(6)
        out = o.evaluate(v)
        for c in range(6):
            plus = is_available(o, v, Direction(c, True))
            minus = is_available(o, v, Direction(c, False))
            if out & (1 << c):
                assert plus != minus
            else:
                assert not plus and not minus
            # The packed availability the rules test holds the same two bits.
            available = (out & ~v) | (out & v) << 64
            assert (available >> c & 1, available >> (64 + c) & 1) == (plus, minus)


def test_available_moves_change_one_coordinate():
    rng = random.Random(11)
    o = UniformOracle(5, 0b10101)
    for _ in range(200):
        v = rng.getrandbits(5)
        for c in range(5):
            for positive in (True, False):
                d = Direction(c, positive)
                if is_available(o, v, d):
                    u = apply_direction(v, d)
                    assert bin(u ^ v).count("1") == 1


def test_vertex_text_roundtrip():
    assert vertex_text(0b0010, 4) == "0100"
    assert parse_vertex("0100") == 0b0010
    with pytest.raises(CubeError):
        parse_vertex("01x0")
    rng = random.Random(2)
    for _ in range(100):
        v = rng.getrandbits(9)
        assert parse_vertex(vertex_text(v, 9)) == v
    # Bits at or above n are not part of the text; n = 0 is the empty vertex.
    assert vertex_text(0b110010, 4) == "0100"
    assert vertex_text(0b1, 0) == ""
    assert parse_vertex("") == 0
    for bad in ("0 1", "0_1", "+01", "012", "01\n"):
        with pytest.raises(CubeError):
            parse_vertex(bad)


def test_direction_text_roundtrip():
    assert direction_text(4, 4) == "+1.1"  # +c_1^1 with bundle size 4
    assert parse_direction("+1.1", 4) == 4
    assert parse_direction("-0.3", 6) == 64 + 2
    for size in (1, 4, 6, 64):
        for b in range(128):
            assert parse_direction(direction_text(b, size), size) == b
    # A coordinate outside 0..63 has no move bit.
    for bad, size in (("0.3", 4), ("+16.1", 4), ("-0.0", 4), ("+0.65", 64)):
        with pytest.raises(CubeError):
            parse_direction(bad, size)


def test_direction_bit_roundtrip():
    """A direction's bit is its place in the packed set (out & ~v) | (out &
    v) << 64, and DIRECTIONS maps it back."""
    for c in range(64):
        for positive, bit in ((True, c), (False, 64 + c)):
            d = Direction(c, positive)
            assert direction_bit(d) == bit
            assert DIRECTIONS[direction_bit(d)] == d
    assert len(DIRECTIONS) == 128
