"""Command-line front end: build levels, run rules, verify, report.

Exit codes: 0 success, 1 property violation, 2 usage or configuration
error, 3 resource limit (step limit exceeded).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .constructions import BUNDLE_SIZE, ConstructionError, _cache_path, realize_range
from .cube_core import CubeError
from .frame_store import resolve_frames_dir, validate_all, validate_family
from .pivot_engine import StepLimitExceeded, write_trace_jsonl
from .verifier import (
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


def _parse_levels(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
    else:
        lo_i = hi_i = int(text)
    if lo_i < 0 or hi_i < lo_i:
        raise ValueError(f"bad level range {text!r}")
    return lo_i, hi_i


def _gate_frames(frames_dir) -> bool:
    """Frame transcription gate: every build starts from validated frames."""
    report = validate_all(frames_dir)
    if not report.passed:
        for c in report.failures():
            print(f"frame validation failed: {c.name} {c.witness}", file=sys.stderr)
    return report.passed


def cmd_build(args) -> int:
    lo, hi = _parse_levels(args.levels)
    frames_dir = resolve_frames_dir(args.frames_dir)
    if not _gate_frames(frames_dir):
        return EXIT_VIOLATION
    chain = realize_range(args.family, hi, frames_dir, Path(args.cache_dir))
    for level, _ in chain[lo:]:
        print(f"level {level.level}: n={level.dimension} path_length={level.path_length}")
    return EXIT_OK


def cmd_run(args) -> int:
    frames_dir = resolve_frames_dir(args.frames_dir)
    cache_dir = Path(args.cache_dir)
    if not _cache_path(cache_dir, args.family, args.level).exists():
        print(f"no cache for {args.family} level {args.level}; run build first",
              file=sys.stderr)
        return EXIT_USAGE
    chain = realize_range(args.family, args.level, frames_dir, cache_dir)
    level, trace = chain[-1]
    out = Path(args.trace) if args.trace else Path(f"{args.family}_level{args.level}.jsonl")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_trace_jsonl(trace, out)
    summary = {"family": args.family, "level": level.level, "n": level.dimension,
               "path_length": len(trace)}
    if trace.final_history is not None:
        summary["final_history"] = trace.final_history
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    frames_dir = resolve_frames_dir(args.frames_dir)
    if args.all_frames:
        report = validate_all(frames_dir)
        _emit_report(report, args.report)
        return EXIT_OK if report.passed else EXIT_VIOLATION
    if args.family is None or args.level is None:
        print("verify needs --all-frames or --family/--level", file=sys.stderr)
        return EXIT_USAGE
    frame_report = validate_family(args.family, frames_dir)
    if not frame_report.passed:
        _emit_report(frame_report, args.report)
        return EXIT_VIOLATION
    chain = realize_range(args.family, args.level, frames_dir, Path(args.cache_dir))
    level, trace = chain[-1]
    if args.mode == "exhaustive":
        if level.dimension > USO_EXHAUSTIVE_CAP:
            print(f"n={level.dimension} above the exhaustive cap "
                  f"{USO_EXHAUSTIVE_CAP}; use --mode sampled", file=sys.stderr)
            return EXIT_USAGE
        report = check_uso_exhaustive(level.oracle)
        report = report.merge(check_acyclic(level.oracle))
    elif args.mode == "sampled":
        report = check_uso_sampled(level.oracle, args.samples, args.max_face_dim,
                                   args.seed, args.workers)
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
    frames_dir = resolve_frames_dir(args.frames_dir)
    lo, hi = _parse_levels(args.levels)
    chain = realize_range(args.family, hi, frames_dir, Path(args.cache_dir))
    size = BUNDLE_SIZE[args.family]
    rows = []
    prev_len = None
    for level, _ in chain:
        if level.level < lo:
            prev_len = level.path_length
            continue
        ratio = "" if prev_len is None else round(level.path_length / prev_len, 3)
        ratio_ok = "" if prev_len is None else str(level.path_length > 2 * prev_len).lower()
        rows.append({
            "level": level.level,
            "n": level.dimension,
            "path_length": level.path_length,
            "bound": 2 ** (level.dimension // size),
            "ratio": ratio,
            "ratio_ok": ratio_ok,
        })
        prev_len = level.path_length
    violated = any(r["ratio_ok"] == "false" for r in rows)
    out = Path(args.out) if args.out else None
    if args.format == "json":
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
        (out.write_text(text, encoding="utf-8") if out else print(text, end=""))
    else:
        stream = out.open("w", newline="", encoding="utf-8") if out else sys.stdout
        writer = csv.DictWriter(stream, fieldnames=list(rows[0]) if rows else
                                ["level", "n", "path_length", "bound", "ratio", "ratio_ok"])
        writer.writeheader()
        writer.writerows(rows)
        if out:
            stream.close()
    lengths = [(r["level"], r["n"], r["path_length"]) for r in rows]
    growth = check_growth(lengths, size)
    if violated or not growth.passed:
        print("growth recursion violated", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ausokit",
        description="History-based pivot rules on recursive AUSO families.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--frames-dir", default=None,
                        help="frame transcriptions directory (default: packaged, "
                             "or AUSOKIT_FRAMES_DIR)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common],
                       help="realize levels bottom-up and cache them")
    p.add_argument("--family", required=True, choices=sorted(BUNDLE_SIZE))
    p.add_argument("--levels", required=True, help="like 0..5 or a single level")
    p.add_argument("--cache-dir", default="caches")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("run", parents=[common],
                       help="run the rule on a built level, write a trace")
    p.add_argument("--family", required=True, choices=sorted(BUNDLE_SIZE))
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--cache-dir", default="caches")
    p.add_argument("--trace", default=None, help="output JSONL path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", parents=[common],
                       help="structural / behavioral verification")
    p.add_argument("--all-frames", action="store_true",
                   help="validate every frame transcription")
    p.add_argument("--family", choices=sorted(BUNDLE_SIZE))
    p.add_argument("--level", type=int)
    p.add_argument("--mode", choices=("exhaustive", "sampled", "acyclic", "traces"),
                   default="exhaustive")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--max-face-dim", type=int, default=8)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-dir", default="caches")
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", parents=[common],
                       help="growth table (CSV or JSON)")
    p.add_argument("--family", required=True, choices=sorted(BUNDLE_SIZE))
    p.add_argument("--levels", required=True, help="like 0..5")
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
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except StepLimitExceeded as exc:
        print(f"step limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except CubeError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
