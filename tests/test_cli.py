import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ausokit
from ausokit import cli, constructions, frame_store
from ausokit.cli import main
from ausokit.constructions import realize_range
from ausokit.cube_core import CubeError
from ausokit.frame_store import oracle_from_spec


def test_build_run_report_verify_flow(tmp_path, capsys):
    cache = str(tmp_path / "caches")
    assert main(["build", "--family", "johnson", "--levels", "0..1",
                 "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "level 0: n=4 path_length=6" in out
    assert "level 1: n=8 path_length=20" in out

    trace_path = tmp_path / "j0.jsonl"
    assert main(["run", "--family", "johnson", "--level", "0",
                 "--cache-dir", cache, "--trace", str(trace_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["path_length"] == 6
    assert trace_path.exists()

    report_path = tmp_path / "growth.csv"
    assert main(["report", "--family", "johnson", "--levels", "0..1",
                 "--cache-dir", cache, "--out", str(report_path)]) == 0
    capsys.readouterr()
    rows = report_path.read_text().strip().splitlines()
    assert rows[0] == "level,n,path_length,bound,ratio,ratio_ok"
    assert rows[1].startswith("0,4,6,2,")
    assert rows[2].startswith("1,8,20,4,")
    assert rows[2].endswith("true")

    assert main(["verify", "--family", "johnson", "--level", "1",
                 "--mode", "exhaustive", "--cache-dir", cache]) == 0
    assert main(["verify", "--family", "johnson", "--level", "1",
                 "--mode", "traces", "--cache-dir", cache]) == 0
    capsys.readouterr()


def test_verify_all_frames(tmp_path, capsys):
    assert main(["verify", "--all-frames",
                 "--report", str(tmp_path / "frames.json")]) == 0
    payload = json.loads((tmp_path / "frames.json").read_text())
    assert payload["passed"] is True
    capsys.readouterr()


def test_run_into_an_empty_cache_dir_realizes_in_memory(tmp_path, capsys):
    """run needs no cache: into an empty cache dir it builds the level in
    memory, writes the trace and writes no cache file."""
    cache, trace = tmp_path / "caches", tmp_path / "z1.jsonl"
    cache.mkdir()
    assert main(["run", "--family", "zadeh", "--level", "1",
                 "--cache-dir", str(cache), "--trace", str(trace)]) == 0
    assert json.loads(capsys.readouterr().out)["path_length"] == 88
    assert len(trace.read_text().splitlines()) == 89
    assert list(cache.iterdir()) == []


def test_build_exits_1_on_a_chain_that_fails_growth(tmp_path, capsys):
    """With zadeh f3's edge (100000, c2) flipped, the frames pass their
    checks but the paths only add 20 a level: build prints the levels it
    built and exits 1 with `growth recursion violated`, as report does."""
    frames = tmp_path / "frames"
    shutil.copytree(Path(ausokit.__file__).parent / "frames", frames)
    with open(frames / "zadeh_f3.frame", "a", encoding="utf-8") as f:
        f.write("back 100000 2\n")
    common = ["--family", "zadeh", "--levels", "0..3", "--frames-dir", str(frames),
              "--cache-dir", str(tmp_path / "c")]
    assert main(["build", *common]) == 1
    out, err = capsys.readouterr()
    assert [line.split("path_length=")[1] for line in out.splitlines()] == \
        ["20", "40", "60", "80"]
    assert err == "growth recursion violated\n"
    assert main(["report", *common]) == 1
    assert capsys.readouterr().err == "growth recursion violated\n"


def test_bad_level_range_is_usage_error(tmp_path, capsys):
    """A level is ASCII decimal digits: int() would read 0..1_0 as 0..10."""
    for command in ("build", "report"):
        for levels in ("3..1", "oops", "0..1_0", "٣", "+1", "1..", "0..1..2"):
            code = main([command, "--family", "zadeh", f"--levels={levels}",
                         "--cache-dir", str(tmp_path)])
            assert code == 2, (command, levels)
            assert "level" in capsys.readouterr().err
        assert main([command, "--family", "zadeh", "--levels=-1..1",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "negative level -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_level_above_the_cube_is_refused_before_any_build(tmp_path, monkeypatch, capsys):
    """A level whose cube has more than 63 dimensions exits 2 at once, in
    every command, naming the family, level, n and the cap: no level is
    built and no file written."""
    def no_build(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(constructions, "_realize_base", no_build)
    monkeypatch.setattr(constructions, "_realize_step", no_build)
    cache = ["--cache-dir", str(tmp_path / "c")]
    for argv, what in (
            (["build", "--family", "cunningham", "--levels", "15..15"],
             "cunningham level 15 has n=64"),
            (["run", "--family", "cunningham", "--level", "15",
              "--trace", str(tmp_path / "t.jsonl")], "cunningham level 15 has n=64"),
            (["verify", "--family", "zadeh", "--level", "10", "--mode", "sampled"],
             "zadeh level 10 has n=66"),
            (["verify", "--family", "zadeh", "--level", "10", "--mode", "traces"],
             "zadeh level 10 has n=66"),
            (["report", "--family", "zadeh", "--levels", "0..10"], "zadeh level 10 has n=66")):
        assert main([*argv, *cache]) == 2, argv
        assert capsys.readouterr().err == \
            f"configuration error: {what}, above the 63-dimension cube\n"
    assert list(tmp_path.iterdir()) == []


def test_unknown_family_is_usage_error(capsys):
    assert main(["build", "--family", "dantzig", "--levels", "0..1"]) == 2
    capsys.readouterr()


def test_report_json_deterministic(tmp_path, capsys):
    cache = str(tmp_path / "caches")
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["report", "--family", "cunningham", "--levels", "0..2",
                     "--format", "json", "--cache-dir", cache,
                     "--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    rows = json.loads(outputs[0])
    assert [r["path_length"] for r in rows] == [5, 20, 71]
    assert all(r["ratio_ok"] in ("", "true") for r in rows)


def test_sampled_verify_level(tmp_path, capsys):
    cache = str(tmp_path / "caches")
    assert main(["verify", "--family", "zadeh", "--level", "1",
                 "--mode", "sampled", "--samples", "500", "--max-face-dim", "6",
                 "--seed", "7", "--cache-dir", cache]) == 0
    capsys.readouterr()


def test_only_build_writes_caches(tmp_path, capsys):
    """run, verify and report realize the levels whose cache files are
    missing in memory and write none of them."""
    cache = tmp_path / "caches"
    assert main(["build", "--family", "johnson", "--levels", "0..2",
                 "--cache-dir", str(cache)]) == 0
    top = (cache / "johnson_level2.json").read_bytes()
    for level in (0, 1):
        (cache / f"johnson_level{level}.json").unlink()
    common = ["--family", "johnson", "--cache-dir", str(cache)]
    for argv in (["run", "--level", "2", "--trace", str(tmp_path / "j2.jsonl")],
                 ["verify", "--level", "2", "--mode", "sampled", "--samples", "500"],
                 ["verify", "--level", "2", "--mode", "traces"],
                 ["verify", "--level", "1", "--mode", "exhaustive"],
                 ["report", "--levels", "0..2", "--out", str(tmp_path / "g.csv")]):
        assert main([*argv, *common]) == 0, argv
        assert [p.name for p in cache.iterdir()] == ["johnson_level2.json"], argv
    assert (cache / "johnson_level2.json").read_bytes() == top
    # Without any cache the directory is not even made.
    assert main(["verify", "--family", "johnson", "--level", "2", "--mode", "traces",
                 "--cache-dir", str(tmp_path / "none")]) == 0
    assert not (tmp_path / "none").exists()
    capsys.readouterr()


# Runs one command in a fresh interpreter and reports whether the command
# loaded numpy.ma, a package of some 20 ms to import.  numpy 1.x imports it
# with numpy itself, so only what the command adds after that counts.
NUMPY_MA_PROBE = """
import contextlib, io, sys
import numpy
before = "numpy.ma" in sys.modules
from ausokit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules and not before)
"""


@pytest.mark.parametrize("argv", [
    ["build", "--levels", "0..2", "--cache-dir", "fresh"],
    ["run", "--level", "2", "--trace", "j2.jsonl"],
    ["report", "--levels", "0..2", "--format", "json"],
    ["verify", "--level", "2", "--mode", "exhaustive"],
    ["verify", "--level", "2", "--mode", "acyclic"],
    ["verify", "--level", "2", "--mode", "sampled", "--samples", "200"],
    ["verify", "--level", "2", "--mode", "traces"],
], ids=["build", "run", "report", "exhaustive", "acyclic", "sampled", "traces"])
def test_commands_do_not_import_numpy_ma(tmp_path, capsys, argv):
    assert main(["build", "--family", "johnson", "--levels", "0..2",
                 "--cache-dir", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    env = {**os.environ, "PYTHONPATH": str(Path(ausokit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, *argv, "--family", "johnson",
         *(["--cache-dir", "c"] if "--cache-dir" not in argv else [])],
        capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


@pytest.mark.parametrize("limits", [
    ["--samples", "0"],
    ["--samples", "-3"],
    ["--max-face-dim", "0"],
])
def test_empty_sample_is_usage_error(tmp_path, capsys, limits):
    code = main(["verify", "--family", "johnson", "--level", "0", "--mode", "sampled",
                 "--cache-dir", str(tmp_path / "caches"), *limits])
    assert code == 2
    out, err = capsys.readouterr()
    assert "pass" not in out and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["build", "--family", "johnson", "--levels", "0..1"],
    ["verify", "--family", "johnson", "--level", "1"],
    ["report", "--family", "johnson", "--levels", "0..1"],
])
def test_missing_frames_dir_is_usage_error(tmp_path, argv):
    env = {**os.environ, "PYTHONPATH": str(Path(ausokit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "ausokit.cli", *argv,
         "--frames-dir", str(tmp_path / "missing"), "--cache-dir", str(tmp_path / "c")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_commands_refuse_frames_that_fail_validation(tmp_path, capsys):
    """build, report, verify and run realize levels only from frames that
    pass their family's checks: with a cunningham frame missing one label,
    each exits 1 naming the failing check and writes no cache, report, or
    trace."""
    frames = tmp_path / "frames"
    shutil.copytree(Path(ausokit.__file__).parent / "frames", frames)
    f1 = frames / "cunningham_f1.frame"
    lines = f1.read_text().splitlines(keepends=True)
    f1.write_text("".join(line for line in lines if line.strip() != "label H 1111"))
    cache = tmp_path / "caches"
    common = ["--family", "cunningham", "--frames-dir", str(frames),
              "--cache-dir", str(cache)]

    def refused(argv):
        code = main([*argv, *common])
        err = capsys.readouterr().err
        return (code == 1 and "frame validation failed: label_H " in err
                and "Traceback" not in err)

    assert refused(["build", "--levels", "0..2"])
    assert refused(["report", "--levels", "0..2", "--out", str(tmp_path / "g.csv")])
    assert refused(["verify", "--level", "2", "--mode", "traces",
                    "--report", str(tmp_path / "r.json")])
    assert refused(["run", "--level", "2", "--trace", str(tmp_path / "c2.jsonl")])
    assert not cache.exists()
    assert not (tmp_path / "g.csv").exists() and not (tmp_path / "r.json").exists()
    assert not (tmp_path / "c2.jsonl").exists()


@pytest.mark.parametrize("frame, edge, check", [
    ("cunningham_f3", "back 1110 4", "f3_base_case_run"),  # cyclic: the run hits its limit
    ("zadeh_a0", "back 100000 2", "a0_walk_boxes_1_to_21"),  # a short a0 walk
], ids=["cunningham-f3", "zadeh-a0"])
def test_frames_on_which_a_suite_raised_exit_1(tmp_path, capsys, frame, edge, check):
    """One edge flipped, by adding or removing its `back` line, on which the
    frame suite once raised (exit 3, or a traceback): build and verify
    --mode traces exit 1 with `frame validation failed:` lines, and verify
    --all-frames exits 1 naming the check in its report's failure lines."""
    frames = tmp_path / "frames"
    shutil.copytree(Path(ausokit.__file__).parent / "frames", frames)
    path = frames / f"{frame}.frame"
    lines = path.read_text().splitlines()
    path.write_text("\n".join([x for x in lines if x != edge] if edge in lines
                              else [*lines, edge]) + "\n")
    family = frame.split("_")[0]
    common = ["--frames-dir", str(frames), "--cache-dir", str(tmp_path / "c")]
    for argv in (["build", "--family", family, "--levels", "0..1"],
                 ["verify", "--family", family, "--level", "1", "--mode", "traces"],
                 ["verify", "--all-frames"]):
        code = main([*argv, *common])
        err = capsys.readouterr().err
        want = f"  {check}: " if "--all-frames" in argv else f"frame validation failed: {check} "
        assert code == 1 and want in err and "Traceback" not in err, (argv, err)
    assert not (tmp_path / "c").exists()


def test_frame_of_another_dimension_is_refused_before_its_table(tmp_path, capsys,
                                                                monkeypatch):
    """A family frame file whose dim is not its family's frame dimension,
    here cunningham_f1.frame reduced to `dim 12`, is refused by name with
    exit 2 by build, verify (--all-frames or a level) and realize_range,
    before any table of its 2^12 vertices is built."""
    frames = tmp_path / "frames"
    shutil.copytree(Path(ausokit.__file__).parent / "frames", frames)
    f1 = frames / "cunningham_f1.frame"
    f1.write_text("dim 12\n")
    tabulated = []

    def tabulating(spec):
        tabulated.append(spec.dim)
        return oracle_from_spec(spec)

    monkeypatch.setattr(frame_store, "oracle_from_spec", tabulating)
    named = f"frame file {f1} has dim 12, not 4"
    for argv in (["build", "--family", "cunningham", "--levels", "0..1"],
                 ["verify", "--all-frames"],
                 ["verify", "--family", "cunningham", "--level", "1", "--mode", "traces"]):
        code = main([*argv, "--frames-dir", str(frames), "--cache-dir", str(tmp_path / "c")])
        err = capsys.readouterr().err
        assert code == 2 and named in err and "Traceback" not in err, (argv, err)
    with pytest.raises(CubeError, match=re.escape(named)):
        realize_range("cunningham", 1, frames)
    assert 12 not in tabulated and not (tmp_path / "c").exists()


def test_cached_level_with_other_frame_hash_fails(tmp_path, capsys):
    cache = tmp_path / "caches"
    assert main(["build", "--family", "johnson", "--levels", "0..1",
                 "--cache-dir", str(cache)]) == 0
    path = cache / "johnson_level1.json"
    record = json.loads(path.read_text())
    record["frame_files"]["f2"] = "0" * 64
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    capsys.readouterr()
    for argv in (["run", "--trace", str(tmp_path / "j1.jsonl")],
                 ["verify", "--mode", "traces"]):
        assert main([*argv, "--family", "johnson", "--level", "1",
                     "--cache-dir", str(cache)]) == 1
        err = capsys.readouterr().err
        assert "johnson_f2.frame" in err and "Traceback" not in err


def test_cached_level_with_wrong_length_fails(tmp_path, capsys):
    cache = tmp_path / "caches"
    assert main(["build", "--family", "johnson", "--levels", "0..2",
                 "--cache-dir", str(cache)]) == 0
    path = cache / "johnson_level2.json"
    record = json.loads(path.read_text())
    record["path_length"] += 1
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    capsys.readouterr()
    for argv in (["run", "--trace", str(tmp_path / "j2.jsonl")],
                 ["verify", "--mode", "traces"]):
        assert main([*argv, "--family", "johnson", "--level", "2",
                     "--cache-dir", str(cache)]) == 1
        err = capsys.readouterr().err
        assert '"path_length"' in err and "Traceback" not in err


def test_tampered_assignment_is_refused(tmp_path, capsys):
    """A cached level whose one assignment names another frame of the
    family is refused by every command that realizes it, naming the inner
    vertex, although its frames still replay to the recorded length."""
    cache = tmp_path / "caches"
    assert main(["build", "--family", "johnson", "--levels", "0..2",
                 "--cache-dir", str(cache)]) == 0
    path = cache / "johnson_level1.json"
    text = path.read_text()
    assert '    "0000": "f1",\n' in text
    path.write_text(text.replace('    "0000": "f1",\n', '    "0000": "f2",\n'))
    capsys.readouterr()
    for argv in (["run", "--level", "1", "--trace", str(tmp_path / "j1.jsonl")],
                 ["verify", "--level", "1", "--mode", "traces"],
                 ["verify", "--level", "1", "--mode", "exhaustive"],
                 ["report", "--levels", "0..2", "--out", str(tmp_path / "g.csv")]):
        assert main([*argv, "--family", "johnson", "--cache-dir", str(cache)]) == 1, argv
        err = capsys.readouterr().err
        assert "at assignment 0000" in err and "Traceback" not in err, argv
    assert not (tmp_path / "j1.jsonl").exists() and not (tmp_path / "g.csv").exists()


def _assign(value, key=None):
    """Damage that sets one assignment: `key` (the first one if None) to `value`."""
    def damage(text):
        record = json.loads(text)
        record["assignments"][key or next(iter(record["assignments"]))] = value
        return json.dumps(record)
    return damage


def _rewrite(**fields):
    """Damage that sets record fields and keeps the writer's layout."""
    def damage(text):
        return json.dumps({**json.loads(text), **fields}, indent=2, sort_keys=True) + "\n"
    return damage


def _swap(lines, i, j):
    lines[i], lines[j] = lines[j], lines[i]
    return lines


@pytest.mark.parametrize("damage", [
    lambda text: text[:len(text) // 2],  # a truncated write
    lambda text: "[]\n",
    lambda text: json.dumps({**json.loads(text), "frame_files": ["f1"]}),
    _assign("f9"),
    _assign(5),
    _assign(["f1"]),
    _assign("f1", key="00000"),  # the inner dimension is 6
    _assign("f1", key="0000x0"),
    lambda text: json.dumps({**json.loads(text), "start": 7}),
    lambda text: json.dumps({**json.loads(text), "sink": ["0"]}),
    lambda text: json.dumps(json.loads(text)),  # the same record, reformatted
    lambda text: text.replace('\n  "default_frame"',
                              '\n  "assignments": {},\n  "default_frame"'),
    lambda text: text.replace('\n    "0', '\n    "', 1),  # one character short
    lambda text: "\n".join(_swap(text.split("\n"), 2, 3)),  # out of text order
    lambda text: text.replace('",\n    "', '"\n    "', 1),
    lambda text: text.replace('"\n  },', '",\n  },', 1),
    _rewrite(path_length="88"),
    _rewrite(level="1"),
], ids=["truncated", "not-an-object", "frame-files-not-an-object", "unknown-frame",
        "frame-not-text", "frame-in-a-list", "short-vertex", "vertex-not-binary",
        "start-not-text", "sink-not-text", "reformatted", "second-assignments",
        "short-line", "out-of-order", "comma-missing", "comma-before-close",
        "length-not-a-number", "level-not-a-number"])
def test_unreadable_cache_is_configuration_error(tmp_path, capsys, damage):
    cache = tmp_path / "caches"
    assert main(["build", "--family", "zadeh", "--levels", "0..1",
                 "--cache-dir", str(cache)]) == 0
    path = cache / "zadeh_level1.json"
    path.write_text(damage(path.read_text()))
    capsys.readouterr()
    for argv in (["run", "--trace", str(tmp_path / "z1.jsonl")],
                 ["verify", "--mode", "traces"]):
        assert main([*argv, "--family", "zadeh", "--level", "1",
                     "--cache-dir", str(cache)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err



def _cli(tmp_path, argv):
    env = {**os.environ, "PYTHONPATH": str(Path(ausokit.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "ausokit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120,
                          cwd=tmp_path)


@pytest.mark.parametrize("command", ["verify", "run"])
def test_negative_level_is_usage_error(tmp_path, command):
    for level, error in (("-1", "negative level -1"), ("1_0", "bad level '1_0'"),
                         ("٣", "bad level '٣'"), ("+1", "bad level '+1'")):
        proc = _cli(tmp_path, [command, "--family", "johnson", "--level", level,
                               "--cache-dir", str(tmp_path / "c")])
        assert proc.returncode == 2, proc.stderr
        assert error in proc.stderr and "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,path", [
    (["report", "--family", "johnson", "--levels", "0..1", "--out", "missing/x.csv"],
     "missing/x.csv"),
    (["verify", "--family", "johnson", "--level", "0", "--mode", "traces",
      "--report", "missing/r.json"], "missing/r.json"),
    (["build", "--family", "johnson", "--levels", "0..1", "--cache-dir", "file/c"],
     "file/c"),
    (["run", "--family", "johnson", "--level", "0", "--trace", "file/t.jsonl"], "file"),
], ids=["report-out", "verify-report", "build-cache-dir", "run-trace"])
def test_unusable_path_is_usage_error(tmp_path, argv, path):
    (tmp_path / "file").write_text("")
    if "--cache-dir" not in argv:
        argv = [*argv, "--cache-dir", "c"]
    if argv[0] == "run":
        assert _cli(tmp_path, ["build", "--family", "johnson", "--levels", "0",
                               "--cache-dir", "c"]).returncode == 0
    proc = _cli(tmp_path, argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1 and f"'{path}'" in proc.stderr, proc.stderr


@pytest.mark.parametrize("argv,path", [
    (["report", "--family", "johnson", "--levels", "0..1", "--out", "missing/x.csv"],
     "missing/x.csv"),
    (["verify", "--family", "johnson", "--level", "0", "--mode", "traces",
      "--report", "missing/r.json"], "missing/r.json"),
    (["run", "--family", "johnson", "--level", "0", "--trace", "file/t.jsonl"], "file"),
], ids=["report-out", "verify-report", "run-trace"])
def test_unusable_path_fails_before_any_level_is_realized(tmp_path, monkeypatch, capsys,
                                                          argv, path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    assert main(["build", "--family", "johnson", "--levels", "0", "--cache-dir", "c"]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a level was realized before the path was checked")

    monkeypatch.setattr(cli, "realize_range", refuse)
    capsys.readouterr()
    assert main([*argv, "--cache-dir", "c"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"'{path}'" in err, err


@pytest.mark.parametrize("argv", [
    ["--family", "cunningham", "--level", "9", "--mode", "exhaustive"],
    ["--family", "johnson", "--level", "3", "--mode", "exhaustive"],
    ["--family", "cunningham", "--level", "9", "--mode", "acyclic"],
    ["--family", "zadeh", "--level", "3", "--mode", "acyclic"],
    ["--family", "johnson", "--level", "1", "--mode", "sampled", "--samples", "0"],
    ["--family", "johnson", "--level", "1", "--mode", "sampled", "--max-face-dim", "0"],
    ["--family", "zadeh", "--level", "1", "--mode", "sampled", "--max-face-dim", "11"],
], ids=["exhaustive-c9", "exhaustive-j3", "acyclic-c9", "acyclic-z3", "no-samples",
        "face-dim-0", "face-dim-11"])
def test_unverifiable_request_fails_before_any_level_is_realized(monkeypatch, capsys,
                                                                 built_levels, argv):
    """verify refuses a mode above its cap, or sampled options outside their
    range, from the dimension the level will have: bundle_size * (level + 1)."""
    for family, chain in built_levels.items():
        for level, _ in chain:
            assert level.dimension == cli.FAMILY[family].bundle_size * (level.level + 1)

    def refuse(*args, **kwargs):
        raise AssertionError("a level was realized before the request was checked")

    monkeypatch.setattr(cli, "realize_range", refuse)
    assert main(["verify", *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("usage error: "), err
    if "exhaustive" in argv:
        assert "above the exhaustive cap 14; use --mode sampled" in err
