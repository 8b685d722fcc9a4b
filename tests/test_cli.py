import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ausokit
from ausokit.cli import main


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


def test_run_without_cache_is_usage_error(tmp_path, capsys):
    code = main(["run", "--family", "zadeh", "--level", "0",
                 "--cache-dir", str(tmp_path / "none")])
    assert code == 2
    capsys.readouterr()


def test_bad_level_range_is_usage_error(tmp_path, capsys):
    code = main(["build", "--family", "zadeh", "--levels", "3..1",
                 "--cache-dir", str(tmp_path)])
    assert code == 2
    code = main(["report", "--family", "zadeh", "--levels", "oops",
                 "--cache-dir", str(tmp_path)])
    assert code == 2
    capsys.readouterr()


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
