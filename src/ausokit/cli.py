"""Command-line front end: build levels, run rules, verify, report.

Only `build` writes cache files; `run`, `verify` and `report` realize a
level whose cache file is missing in memory.

Exit codes: 0 success, 1 property violation (frame files that fail their
family's validation, a cached level that differs from its rebuild, or a
chain that `build` or `report` finds failing check_growth count as one), 2
usage or configuration error (a frame file that is missing, unparsable or
not of its family's dimension, a cache file the cache writer could not have
written, a negative level or one wider than the 63-dimension cube, a verify
mode or option the level cannot take, or a path that cannot be read or
written), 3 resource limit.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import sys
from pathlib import Path

from .constructions import (
    ConstructionError,
    FrameValidationError,
    realize_range,
)
from .cube_core import CubeError
from .frame_store import FAMILY, validate_all
from .pivot_engine import StepLimitExceeded, write_trace_jsonl
from .verifier import (
    ACYCLIC_CAP,
    SAMPLED_MAX_FACE_DIM,
    USO_EXHAUSTIVE_CAP,
    check_acyclic,
    check_growth,
    check_trace_properties,
    check_uso_exhaustive,
    check_uso_sampled,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _level(text: str) -> int:
    """A level: ASCII decimal digits only (int() also reads '1_0', '٣' and '+1')."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdecimal()):
        raise argparse.ArgumentTypeError(f"bad level {text!r}")
    level = int(text)
    if level < 0:
        raise argparse.ArgumentTypeError(f"negative level {level}")
    return level


def _levels(text: str) -> tuple[int, int]:
    """A level range like 0..5, or a single level, each end read by _level."""
    parts = text.split("..", 1)
    lo, hi = _level(parts[0]), _level(parts[-1])
    if hi < lo:
        raise argparse.ArgumentTypeError(f"bad level range {text!r}")
    return lo, hi


def _check_out_dir(path) -> None:
    """Refuse an output file whose directory does not exist before any level
    is realized, not after the work; None means standard output."""
    if path is not None and not Path(path).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "no such directory", str(path))


def cmd_build(args) -> int:
    lo, hi = args.levels
    report = validate_all(args.frames_dir)  # every family, not only the one built
    if not report.passed:
        raise FrameValidationError(report)
    chain = realize_range(args.family, hi, args.frames_dir, args.cache_dir)
    for level, _ in chain[lo:]:
        print(f"level {level.level}: n={level.dimension} path_length={level.path_length}")
    return _growth_exit(chain, args.family)


def _growth_exit(chain, family: str) -> int:
    """EXIT_VIOLATION, with one stderr line, when the chain's path lengths
    fail check_growth, else EXIT_OK."""
    lengths = [(level.level, level.dimension, level.path_length) for level, _ in chain]
    if not check_growth(lengths, FAMILY[family].bundle_size).passed:
        print("growth recursion violated", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_run(args) -> int:
    out = Path(args.trace) if args.trace else Path(f"{args.family}_level{args.level}.jsonl")
    _check_out_dir(out)
    chain = realize_range(args.family, args.level, args.frames_dir, args.cache_dir,
                          write=False)
    level, trace = chain[-1]
    write_trace_jsonl(trace, out)
    summary = {"family": args.family, "level": level.level, "n": level.dimension,
               "path_length": len(trace)}
    if trace.final_history is not None:
        summary["final_history"] = trace.final_history
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_out_dir(args.report)
    if args.all_frames:
        report = validate_all(args.frames_dir)
        _emit_report(report, args.report)
        return EXIT_OK if report.passed else EXIT_VIOLATION
    if args.family is None or args.level is None:
        print("verify needs --all-frames or --family/--level", file=sys.stderr)
        return EXIT_USAGE
    # What the verifier refuses at the level's dimension fails before any build.
    n = FAMILY[args.family].bundle_size * (args.level + 1)
    cap = {"exhaustive": USO_EXHAUSTIVE_CAP, "acyclic": ACYCLIC_CAP}.get(args.mode, n)
    if n > cap:
        raise ValueError(f"n={n} above the {args.mode} cap {cap}; use --mode sampled")
    if args.mode == "sampled" and not (args.samples >= 1 and
                                       1 <= args.max_face_dim <= SAMPLED_MAX_FACE_DIM):
        raise ValueError("--mode sampled needs --samples >= 1 and --max-face-dim "
                         f"in 1..{SAMPLED_MAX_FACE_DIM}")
    chain = realize_range(args.family, args.level, args.frames_dir, args.cache_dir,
                          write=False)
    level, trace = chain[-1]
    if args.mode == "exhaustive":
        report = check_uso_exhaustive(level.oracle).merge(check_acyclic(level.oracle))
    elif args.mode == "sampled":
        report = check_uso_sampled(level.oracle, args.samples, args.max_face_dim,
                                   args.seed)
    elif args.mode == "acyclic":
        report = check_acyclic(level.oracle)
    else:  # traces
        lower = chain[-2][1] if len(chain) > 1 else None
        report = check_trace_properties(level, trace, lower)
    _emit_report(report, args.report)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _emit_report(report, path) -> None:
    text = report.to_json()
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    print(f"{report.mode}: {'pass' if report.passed else 'FAIL'} "
          f"({len(report.checks)} checks)")
    for c in report.failures():
        print(f"  {c.name}: {c.witness}", file=sys.stderr)


def cmd_report(args) -> int:
    _check_out_dir(args.out)
    lo, hi = args.levels
    chain = realize_range(args.family, hi, args.frames_dir, args.cache_dir, write=False)
    size = FAMILY[args.family].bundle_size
    lengths = [(level.level, level.dimension, level.path_length) for level, _ in chain]
    rows = []
    for i, n, length in lengths[lo:]:
        prev_len = lengths[i - 1][2] if i else None
        rows.append({
            "level": i,
            "n": n,
            "path_length": length,
            "bound": 2 ** (n // size),
            "ratio": "" if prev_len is None else round(length / prev_len, 3),
            "ratio_ok": "" if prev_len is None else str(length > 2 * prev_len).lower(),
        })
    out = Path(args.out) if args.out else None
    if args.format == "json":
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
        (out.write_text(text, encoding="utf-8") if out else print(text, end=""))
    else:
        stream = out.open("w", newline="", encoding="utf-8") if out else sys.stdout
        writer = csv.DictWriter(stream, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        if out:
            stream.close()
    return _growth_exit(chain, args.family)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ausokit",
        description="History-based pivot rules on recursive AUSO families.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--frames-dir", default=None,
                        help="frame transcriptions directory (default: packaged)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common],
                       help="realize levels bottom-up and cache them")
    p.add_argument("--family", required=True, choices=sorted(FAMILY))
    p.add_argument("--levels", required=True, type=_levels,
                   help="like 0..5 or a single level")
    p.add_argument("--cache-dir", default="caches")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("run", parents=[common],
                       help="run the rule on a built level, write a trace")
    p.add_argument("--family", required=True, choices=sorted(FAMILY))
    p.add_argument("--level", required=True, type=_level)
    p.add_argument("--cache-dir", default="caches")
    p.add_argument("--trace", default=None, help="output JSONL path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", parents=[common],
                       help="structural / behavioral verification")
    p.add_argument("--all-frames", action="store_true",
                   help="validate every frame transcription")
    p.add_argument("--family", choices=sorted(FAMILY))
    p.add_argument("--level", type=_level)
    p.add_argument("--mode", choices=("exhaustive", "sampled", "acyclic", "traces"),
                   default="exhaustive")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--max-face-dim", type=int, default=8)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--cache-dir", default="caches")
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", parents=[common],
                       help="growth table (CSV or JSON)")
    p.add_argument("--family", required=True, choices=sorted(FAMILY))
    p.add_argument("--levels", required=True, type=_levels, help="like 0..5")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--cache-dir", default="caches")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FrameValidationError as exc:
        for c in exc.report.failures():
            print(f"frame validation failed: {c.name} {c.witness}", file=sys.stderr)
        return EXIT_VIOLATION
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except StepLimitExceeded as exc:
        print(f"step limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except CubeError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
