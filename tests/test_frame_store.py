import hashlib
import shutil
from dataclasses import replace

import pytest

from ausokit.cube_core import CubeError, Face, TableOracle, face_sink, vertex_text
from ausokit.frame_store import (
    FAMILY,
    FrameParseError,
    frame_file_sha256,
    load_family,
    oracle_from_spec,
    packaged_frames_dir,
    parse_frame,
    validate_all,
    validate_family,
)


def test_parse_all_forward_is_uniform_to_full():
    spec = parse_frame("dim 2\n")
    oracle = oracle_from_spec(spec)
    # every edge forward: sink at the full vertex
    assert oracle.evaluate(0b11) == 0
    assert oracle.evaluate(0) == 0b11
    assert face_sink(oracle, Face(0, 0b11)) == 0b11


def test_parse_comments_and_labels():
    spec = parse_frame("# hello\n\ndim 3\nback 010 1\nlabel start 010\n")
    assert spec.dim == 3
    assert spec.backward_edges == [(0b010, 1)]
    assert spec.labels["start"] == 0b010


def test_parse_error_line_numbers():
    with pytest.raises(FrameParseError) as exc:
        parse_frame("dim 4\nback 0000 1\nback 0000 1\n")
    assert exc.value.line == 3  # duplicate edge
    with pytest.raises(FrameParseError) as exc:
        parse_frame("dim 4\nback 000 1\n")
    assert exc.value.line == 2  # width mismatch
    with pytest.raises(FrameParseError) as exc:
        parse_frame("dim 4\nback 1000 1\n")
    assert exc.value.line == 2  # bit k must be 0
    with pytest.raises(FrameParseError) as exc:
        parse_frame("size 4\n")
    assert exc.value.line == 1
    with pytest.raises(FrameParseError):
        parse_frame("# only comments\n")


@pytest.mark.parametrize("text, line", [
    ("dim \u00b2\n", 1), ("dim 4\nback 0000 1_0\n", 2), ("dim 4\nback 0000 +1\n", 2),
    ("dim 4\nback 0000 \u0661\n", 2), ("dim +4\n", 1), ("dim 4_0\n", 1)],
    ids=["dim-superscript", "back-underscore", "back-plus", "back-arabic-indic", "dim-plus",
         "dim-underscore"])
def test_numbers_are_ascii_decimal_digits(text, line):
    """`dim` and the `back` coordinate are ASCII decimal digits: a digit int()
    also reads ('\u00b2', an Arabic-Indic one, '1_0', '+1') is refused by line."""
    with pytest.raises(FrameParseError, match=f"^line {line}: ") as exc:
        parse_frame(text)
    assert exc.value.line == line


@pytest.mark.parametrize("text", ["dim 4\nback 0000 1_0\n", "dim 4\nback 0000 1\n\xff"],
                         ids=["parse-error", "not-utf8"])
def test_load_family_names_the_file_of_a_parse_error(tmp_path, text):
    shutil.copytree(packaged_frames_dir(), tmp_path, dirs_exist_ok=True)
    path = tmp_path / "johnson_f2.frame"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(CubeError, match=f"^frame file {path}: ") as exc:
        load_family("johnson", tmp_path)
    assert ("line 2: " in str(exc.value)) == text.endswith("1_0\n")


def test_label_with_a_bad_vertex_names_its_line():
    with pytest.raises(FrameParseError, match="^line 2: bad vertex text '0x'$") as exc:
        parse_frame("dim 2\nlabel a 0x\n")
    assert exc.value.line == 2


def test_repeated_label_is_refused():
    """A label named twice is refused at its second line, as a repeated
    backward edge is, rather than overwritten."""
    with pytest.raises(FrameParseError, match="^line 3: duplicate label a$") as exc:
        parse_frame("dim 2\nlabel a 01\nlabel a 10\n")
    assert exc.value.line == 3


def test_johnson_f1_sink_position(johnson_frames):
    _, f1 = johnson_frames["f1"]
    # inactive exactly at {c^1, c^4}
    assert face_sink(f1, Face(0, 0b1111)) == 0b1001


def test_zadeh_f3_sink_at_circ12(zadeh_frames):
    spec, f3 = zadeh_frames["f3"]
    assert face_sink(f3, Face(0, 0b111111)) == spec.labels["circ12"]


def test_all_transcriptions_validate():
    report = validate_all()
    assert report.passed, [c.name for c in report.failures()]


def test_fake_frame_fails_b_outmap(cunningham_frames):
    # negative control: a uniform 4-cube sunk at the empty vertex passed off
    # as F1 must trip the balance-face constraint
    lines = ["dim 4"]
    for v in range(16):
        for k in range(4):
            if not v >> k & 1:
                bits = "".join("1" if v >> i & 1 else "0" for i in range(4))
                lines.append(f"back {bits} {k + 1}")
    fake_spec = parse_frame("\n".join(lines))
    fake = {"f1": (fake_spec, oracle_from_spec(fake_spec)),
            "f2": cunningham_frames["f2"],
            "f3": cunningham_frames["f3"]}
    report = validate_family("cunningham", frames=fake)
    assert not report.passed
    assert any(c.name == "f1_B_outmap" for c in report.failures())


def test_r1_single_outgoing_reset_path(johnson_frames):
    _, r1 = johnson_frames["r1"]
    v = 0b1001  # {c^1, c^4}
    dirs = []
    while v:
        out = r1.evaluate(v)
        assert bin(out).count("1") == 1
        c = out.bit_length() - 1
        assert v & out  # a negative direction
        dirs.append(c)
        v ^= out
    assert dirs == [0, 3]  # -c^1 then -c^4


def test_johnson_frames_share_sink(johnson_frames):
    for name in ("f1", "f2"):
        _, oracle = johnson_frames[name]
        assert face_sink(oracle, Face(0, 0b1111)) == 0b1001


def test_johnson_frames_with_other_sinks_fail_same_sink(johnson_frames):
    """f1_f2_same_sink compares the two frames' sinks: it passes on the
    packaged frames and fails, naming both sinks, when f2's edge (1001, c2)
    is reversed and its sink moves to {c1, c2, c4}."""
    def same_sink(frames):
        report = validate_family("johnson", frames=frames)
        return next(c for c in report.checks if c.name == "f1_f2_same_sink")

    check = same_sink(johnson_frames)
    assert check.passed and check.details == "both sinks asserted at {c1,c4}"
    spec, _ = johnson_frames["f2"]
    flipped = replace(spec, backward_edges=sorted(set(spec.backward_edges) ^ {(0b1001, 2)}))
    check = same_sink({**johnson_frames, "f2": (flipped, oracle_from_spec(flipped))})
    assert not check.passed and check.witness == {"f1": "1001", "f2": "1101"}


@pytest.mark.parametrize("family, stem, sink, check, witness", [
    ("cunningham", "f3", 0b1111, "f3_base_case_run", {"dirs": ["+0.1", "+0.3", "+0.4"]}),
    ("johnson", "f1", 0b1001, "f1_example_run", {"dirs": ["+0.1", "+0.4"]}),
    ("zadeh", "a0", 0b111110, "a0_final_balances",
     {"imbalanced": ["+0.1", "+0.2", "-0.1", "-0.2", "-0.3", "-0.4", "-0.5", "-0.6"]}),
])
def test_scripted_runs_name_their_directions_by_text(family, stem, sink, check, witness):
    """With the run's frame replaced by a uniform cube, the scripted run
    goes astray, and its witness names the directions by their text."""
    frames = dict(load_family(family))
    spec, oracle = frames[stem]
    n = oracle.dimension
    frames[stem] = (spec, TableOracle(n, [v ^ sink for v in range(1 << n)]))
    report = validate_family(family, frames=frames)
    assert [c.witness for c in report.failures() if c.name == check] == [witness]


def test_validate_family_via_dir(tmp_path):
    # copies validate the same as the packaged set
    from ausokit.frame_store import packaged_frames_dir
    for path in packaged_frames_dir().glob("*.frame"):
        (tmp_path / path.name).write_text(path.read_text())
    assert validate_family("zadeh", load_family("zadeh", tmp_path)).passed


def test_frames_dir_env_override(tmp_path, monkeypatch):
    from ausokit.frame_store import packaged_frames_dir, resolve_frames_dir
    for path in packaged_frames_dir().glob("*.frame"):
        (tmp_path / path.name).write_text(path.read_text())
    monkeypatch.setenv("AUSOKIT_FRAMES_DIR", str(tmp_path))
    assert resolve_frames_dir() == tmp_path
    assert validate_family("cunningham", load_family("cunningham")).passed


def test_frame_hashes_equal_hashlib_sha256():
    """The built-in SHA-256 gives hashlib's digests, so the frame hashes
    recorded in caches are unchanged."""
    paths = sorted(packaged_frames_dir().glob("*.frame"))
    assert paths
    for path in paths:
        assert frame_file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()
    for family in FAMILY:
        for stem, (spec, _) in load_family(family).items():
            data = (packaged_frames_dir() / f"{family}_{stem}.frame").read_bytes()
            assert spec.sha256 == hashlib.sha256(data).hexdigest()


# The one-edge flips of the packaged frames on which the suites raised
# instead of reporting: a cyclic frame's example run hit the step limit, or
# a short zadeh a0 walk was indexed at its twelfth vertex.
RAISED_ON = {
    ("cunningham", "f3", "1110", 4), ("johnson", "f1", "1000", 4),
    ("johnson", "f1", "0001", 1), ("johnson", "f1", "1001", 3),
    *(("zadeh", "a0", bits, k) for bits, k in (
        ("100000", 2), ("100000", 3), ("100000", 6), ("010000", 1), ("010000", 6),
        ("110000", 6), ("001000", 1), ("001000", 4), ("001000", 6), ("101000", 6),
        ("000100", 3), ("001100", 6), ("000110", 3), ("011110", 6), ("011101", 5),
        ("011011", 4), ("010111", 3), ("001111", 2))),
}


def test_suites_report_on_every_one_edge_flip():
    """Each edge of each packaged frame reversed, one at a time (960
    variants): the family's suite reports on every variant and fails each
    one it once raised on; it accepts the same 532 variants as before."""
    failed = set()
    for family in FAMILY:
        frames = load_family(family)
        for stem, (spec, _) in frames.items():
            n = spec.dim
            for v in range(1 << n):
                for k in range(1, n + 1):
                    if v >> (k - 1) & 1:
                        continue
                    edges = set(spec.backward_edges) ^ {(v, k)}
                    flipped = replace(spec, backward_edges=sorted(edges))
                    variant = {**frames, stem: (flipped, oracle_from_spec(flipped))}
                    if not validate_family(family, frames=variant).passed:
                        failed.add((family, stem, vertex_text(v, n), k))
    assert RAISED_ON <= failed
    assert len(failed) == 960 - 532
