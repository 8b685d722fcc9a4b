"""Closed-loop, single-process benchmark of the ausokit command line.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 1 --seconds 30 --trace 0

One client calls `ausokit.cli.main(argv)`, one command after another, and
checks every command's output against pinned results.  Each command runs in
a child forked from this process after ausokit is imported, so no state
carries over from one command to the next and each command's memory peak is
its own.  The seed makes the inputs; the program only sees the generated
argv.  With `--trace 0` the last stdout line holds the end-to-end metrics.
With `--trace 1` the workload is measured untraced as before, then run once
more with spans around calls into each module's public functions, then the
top levels are probed directly; the last line holds the per-layer metrics
and the spans are written to `.perfbench/` at the repository root.  See
`perfbench/README.md` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import pickle
import platform
import random
import re
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

FAMILIES = ("cunningham", "johnson", "zadeh")
BUNDLE_SIZE = {"cunningham": 4, "johnson": 4, "zadeh": 6}
# Path length of levels 0, 1, ... of each family: the paper's growth results.
PINNED_LENGTHS = {
    "cunningham": [5, 20, 71, 206, 539, 1328, 3149, 7274, 16487, 36836],
    "johnson": [6, 20, 58, 152, 374, 884, 2034, 4592, 10222],
    "zadeh": [20, 88, 276, 752, 1900, 4584, 10724],
}
# The start and the sink of level L repeat one bundle pattern L + 1 times.
START_BUNDLE = {"cunningham": "0100", "johnson": "0000", "zadeh": "010000"}
SINK_BUNDLE = {"cunningham": "1111", "johnson": "1001", "zadeh": "011111"}

# Top level of each family's chain, per workload.  `verify` checks the
# acceptance chains.  `replay` stops johnson one level below `build`: the
# level-8 trace suite alone (quadratic in the path length) takes 4-6 s and
# would leave room for only one to three passes per run.
TOPS = {
    "build": {"cunningham": 9, "johnson": 8, "zadeh": 6},
    "verify": {"cunningham": 5, "johnson": 5, "zadeh": 3},
    "replay": {"cunningham": 9, "johnson": 7, "zadeh": 6},
}
SAMPLES = 10000
WORKLOADS = ("build", "verify", "replay")
MAX_FACE_DIM = 8
EXHAUSTIVE_MAX_N = 12
# Acceptance criterion 5 also runs the acyclicity DFS at n=20, but those two
# checks take 17 s, which leaves room for only one noisy pass per run; n=18
# exercises the same code on 2^18 vertices.
ACYCLIC_MIN_N, ACYCLIC_MAX_N = 16, 18
# Set-up repeats at least this often and for at least this long; a set-up
# of a few milliseconds needs many repeats for a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
STEP_PROBE_REPEATS = 3
PROBE_VERTICES = 2000

MODULES = ("cli", "combinators", "constructions", "cube_core", "frame_store",
           "pivot_engine", "verifier")
COMMAND_KINDS = ("build", "verify_exact", "verify_sampled", "run",
                 "verify_traces", "report")


def declared_units(trace: bool) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# Loading the program under test


def load_ausokit() -> SimpleNamespace | None:
    """Import ausokit from this checkout's source tree, never from elsewhere."""
    if not (SRC / "ausokit" / "__init__.py").is_file():
        print(f"no ausokit sources under {SRC}", file=sys.stderr)
        return None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("AUSOKIT_FRAMES_DIR", None)  # always the packaged frames
    # numpy then starts no BLAS threads, so forking a child per command is
    # safe; ausokit does no BLAS work.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    api = SimpleNamespace(package=importlib.import_module("ausokit"))
    if not Path(api.package.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"ausokit imported from {api.package.__file__}, not {SRC}",
              file=sys.stderr)
        return None
    for name in MODULES:
        setattr(api, name, importlib.import_module(f"ausokit.{name}"))
    return api


def git_commit() -> str:
    """Commit of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(api, workload: str, seed: int) -> dict:
    import numpy
    frames_dir = api.frame_store.packaged_frames_dir()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ausokit": api.package.__version__,
        "commit": git_commit(),
        "frames_sha256": {p.name: api.frame_store.frame_file_sha256(p)
                          for p in sorted(frames_dir.glob("*.frame"))},
    }


# ---------------------------------------------------------------------------
# Commands and their output checks


@dataclass
class Command:
    kind: str  # groups commands for the per-kind timings
    argv: list[str]
    check: Callable[[str], str | None]  # stdout -> problem, or None if correct


class ChildFailed(Exception):
    pass


def in_child(fn: Callable[[], object]) -> tuple[object, float]:
    """Run `fn` in a forked child and wait for it.  Returns what `fn`
    returned and the child's peak resident set in MB.  Whatever `fn`
    changes in memory ends with the child."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child must never return into the caller's code, whatever
        # happens, so it catches everything and always ends in os._exit.
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(fn()))
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            payload = pipe.read()
    finally:
        _, status, usage = os.wait4(pid, 0)
    if status != 0:
        raise ChildFailed(f"child ended with wait status {status}")
    return pickle.loads(payload), usage.ru_maxrss / 1024


@dataclass
class Timing:
    kind: str
    seconds: float
    peak_rss_mb: float


class Session:
    """One client issuing commands back to back; counts ops and failures."""

    def __init__(self, api):
        self.api = api
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"FAILED {what}: {problem}", file=sys.stderr)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _call(self, argv: list[str]):
        """In the child: one CLI call, timed, with its output captured."""
        first = len(self.tracer.spans) if self.tracer else 0
        out, err = io.StringIO(), io.StringIO()
        problem = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            try:
                with self.span("cli.main"):
                    code = self.api.cli.main(argv)
            except Exception:
                code, problem = None, traceback.format_exc()
            elapsed = time.perf_counter() - started
        spans = self.tracer.spans[first:] if self.tracer else []
        return code, problem, out.getvalue(), err.getvalue()[-500:], elapsed, spans

    def run(self, cmd: Command) -> Timing:
        """Run one command in a forked child.  Its output is checked here,
        after the child has ended."""
        gc.collect()  # every command starts from a collected heap
        try:
            (code, problem, stdout, stderr, elapsed, spans), rss = in_child(
                lambda: self._call(cmd.argv))
        except ChildFailed as exc:
            self.record(" ".join(cmd.argv), str(exc))
            return Timing(cmd.kind, 0.0, 0.0)
        if self.tracer:
            self.tracer.spans.extend(spans)
        if problem is None and code != 0:
            problem = f"exit code {code}: {stderr.strip()}"
        if problem is None:
            try:
                problem = cmd.check(stdout)
            except Exception:
                problem = traceback.format_exc()
        self.record(" ".join(cmd.argv), problem)
        return Timing(cmd.kind, elapsed, rss)


def expected_text(table: dict, family: str, level: int) -> str:
    return table[family] * (level + 1)


def check_pass(stdout: str) -> str | None:
    if re.fullmatch(r"\S+: pass \(\d+ checks\)", stdout.strip()):
        return None
    return f"report did not pass: {stdout.strip()[:200]!r}"


def check_build(family: str, top: int):
    size = BUNDLE_SIZE[family]
    want = [f"level {i}: n={size * (i + 1)} path_length={PINNED_LENGTHS[family][i]}"
            for i in range(top + 1)]

    def check(stdout: str) -> str | None:
        got = stdout.splitlines()
        if got == want:
            return None
        bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                   min(len(got), len(want)))
        return f"line {bad}: got {got[bad:bad + 1]}, want {want[bad:bad + 1]}"
    return check


def check_run(session: Session, family: str, level: int, trace_path: Path):
    length = PINNED_LENGTHS[family][level]
    n = BUNDLE_SIZE[family] * (level + 1)
    vertex_text = session.api.cube_core.vertex_text
    read_trace = session.api.pivot_engine.read_trace_jsonl

    def check(stdout: str) -> str | None:
        summary = json.loads(stdout)
        if summary["path_length"] != length:
            return f"run printed path_length {summary['path_length']}, want {length}"
        with session.span("pivot_engine.read_trace_jsonl"):
            trace = read_trace(trace_path, BUNDLE_SIZE[family])
        if len(trace) != length:
            return f"trace has {len(trace)} steps, want {length}"
        if vertex_text(trace.end, n) != expected_text(SINK_BUNDLE, family, level):
            return f"trace sink {vertex_text(trace.end, n)}"
        if vertex_text(trace.start, n) != expected_text(START_BUNDLE, family, level):
            return f"trace start {vertex_text(trace.start, n)}"
        return None
    return check


def check_report(family: str, top: int):
    size = BUNDLE_SIZE[family]

    def check(stdout: str) -> str | None:
        rows = json.loads(stdout)
        lengths = [r["path_length"] for r in rows]
        if lengths != PINNED_LENGTHS[family][:top + 1]:
            return f"report path lengths {lengths}"
        for r in rows:
            if r["bound"] != 2 ** (r["n"] // size) or r["ratio_ok"] not in ("", "true"):
                return f"report row {r}"
        return None
    return check


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Argv generation for one workload; `cache` is the cache directory the
    measured commands use."""

    def __init__(self, name: str, session: Session, work: Path, seed: int):
        self.name = name
        self.session = session
        self.work = work
        self.seed = seed
        self.cache = work / "cache"

    def fresh_dir(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir()

    def build_command(self, family: str, top: int, kind: str) -> Command:
        return Command(kind, ["build", "--family", family, "--levels", f"0..{top}",
                              "--cache-dir", str(self.cache)],
                       check_build(family, top))

    def setup(self) -> float:
        """Fresh cache directory, the frame gate, and the caches the measured
        commands read.  Returns the summed time of the set-up commands."""
        self.fresh_dir()
        cmds = [Command("setup", ["verify", "--all-frames"], check_pass)]
        if self.name != "build":
            cmds += [self.build_command(f, top, "setup")
                     for f, top in TOPS[self.name].items()]
        return sum(self.session.run(cmd).seconds for cmd in cmds)

    def commands(self) -> list[Command]:
        passes = {"build": self._build_pass, "verify": self._verify_pass,
                  "replay": self._replay_pass}
        return passes[self.name]()

    def _build_pass(self) -> list[Command]:
        self.fresh_dir()  # every pass builds from an empty cache directory
        return [self.build_command(f, top, "build") for f, top in TOPS["build"].items()]

    def _verify_pass(self) -> list[Command]:
        cmds = []
        for family, top in TOPS["verify"].items():
            for level in range(top + 1):
                n = BUNDLE_SIZE[family] * (level + 1)
                base = ["verify", "--family", family, "--level", str(level),
                        "--cache-dir", str(self.cache)]
                if n <= EXHAUSTIVE_MAX_N:
                    cmds.append(Command("verify_exact", base + ["--mode", "exhaustive"],
                                        check_pass))
                elif ACYCLIC_MIN_N <= n <= ACYCLIC_MAX_N:
                    cmds.append(Command("verify_exact", base + ["--mode", "acyclic"],
                                        check_pass))
                cmds.append(Command(
                    "verify_sampled",
                    base + ["--mode", "sampled", "--samples", str(SAMPLES),
                            "--max-face-dim", str(MAX_FACE_DIM), "--seed", str(self.seed)],
                    check_pass))
        return cmds

    def _replay_pass(self) -> list[Command]:
        cmds = []
        for family, top in TOPS["replay"].items():
            trace_path = self.work / "traces" / f"{family}_level{top}.jsonl"
            common = ["--family", family, "--cache-dir", str(self.cache)]
            cmds += [
                Command("run", ["run", *common, "--level", str(top),
                                "--trace", str(trace_path)],
                        check_run(self.session, family, top, trace_path)),
                Command("verify_traces", ["verify", *common, "--level", str(top),
                                          "--mode", "traces"], check_pass),
                Command("report", ["report", *common, "--levels", f"0..{top}",
                                   "--format", "json"], check_report(family, top)),
            ]
        return cmds


def run_pass(workload: Workload) -> list[Timing]:
    return [workload.session.run(cmd) for cmd in workload.commands()]


def pass_time(timings: list[Timing]) -> float:
    return sum(t.seconds for t in timings)


def measure(workload: Workload, seconds: float) -> list[Timing]:
    """Closed loop: whole passes back to back while the next one is expected
    to end within `seconds`; always at least one pass.  Returns, for each
    command of a pass, its median time and its largest memory peak over the
    passes.  Each command runs in a fresh child, so no pass can reuse what an
    earlier one left in memory."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(workload))
        typical = statistics.median(pass_time(p) for p in passes)
        if time.perf_counter() - started + typical > seconds:
            break
    return [Timing(runs[0].kind, statistics.median(t.seconds for t in runs),
                   max(t.peak_rss_mb for t in runs)) for runs in zip(*passes)]


# ---------------------------------------------------------------------------
# Metrics


def end_to_end_metrics(timings: list[Timing], setup_times) -> dict[str, float]:
    return {
        "job_s": pass_time(timings),
        "peak_rss_mb": max(t.peak_rss_mb for t in timings),
        "setup_s": statistics.median(setup_times),
    }


def command_kind_metrics(timings: list[Timing]) -> dict[str, float]:
    out = {f"cli.{kind}_s": sum(t.seconds for t in timings if t.kind == kind)
           for kind in COMMAND_KINDS}
    steps = sum(sum(PINNED_LENGTHS[f][:top + 1]) for f, top in TOPS["build"].items())
    faces = SAMPLES * sum(1 for t in timings if t.kind == "verify_sampled")
    build_s, sampled_s = out["cli.build_s"], out["cli.verify_sampled_s"]
    out["cli.steps_per_s"] = steps / build_s if build_s else 0.0
    out["cli.faces_per_s"] = faces / sampled_s if sampled_s else 0.0
    return out


# Spans the traced pass of each workload must record.  A missing one means
# the spans no longer reach that layer (a function was renamed or is no
# longer called), and it counts as a failed op instead of reading 0.
EXPECTED_SPANS = {
    "build": ("cli.main", "frame_store.validate_all", "constructions.realize_range",
              "pivot_engine.adaptive_run", "pivot_engine.replay_run",
              "verifier.check_uso_exhaustive", "verifier.check_acyclic",
              "verifier.outmap_table"),
    "verify": ("cli.main", "frame_store.validate_family", "constructions.realize_range",
               "pivot_engine.replay_run", "verifier.check_uso_exhaustive",
               "verifier.check_acyclic", "verifier.outmap_table",
               "verifier.check_uso_sampled"),
    "replay": ("cli.main", "frame_store.validate_family", "constructions.realize_range",
               "pivot_engine.replay_run", "pivot_engine.write_trace_jsonl",
               "pivot_engine.read_trace_jsonl", "verifier.check_growth",
               *(f"verifier.check_trace_properties.{f}" for f in FAMILIES)),
}


def install_spans(tracer: Tracer, session: Session) -> None:
    """Spans around public functions, at every ausokit module attribute that
    refers to them, so a call is traced however the caller looks it up."""
    api = session.api

    def run_kind(args, kwargs):
        kind = "adaptive_run" if kwargs.get("after_step") else "replay_run"
        return f"pivot_engine.{kind}", {}

    def whole_cube(name):
        return lambda args, kwargs: (name, {"vertices": 1 << args[0].dimension})

    def sampled(args, kwargs):
        faces = kwargs["samples"] if "samples" in kwargs else args[1]
        return "verifier.check_uso_sampled", {"faces": faces}

    def trace_properties(args, kwargs):
        return f"verifier.check_trace_properties.{args[0].family}", {}

    modules = [api.package] + [getattr(api, m) for m in MODULES]
    for home, attr, name in (
            (api.constructions, "realize_range", "constructions.realize_range"),
            (api.pivot_engine, "run_to_sink", run_kind),
            (api.pivot_engine, "write_trace_jsonl", "pivot_engine.write_trace_jsonl"),
            (api.frame_store, "validate_all", "frame_store.validate_all"),
            (api.frame_store, "validate_family", "frame_store.validate_family"),
            (api.verifier, "check_acyclic", whole_cube("verifier.check_acyclic")),
            (api.verifier, "check_uso_exhaustive",
             whole_cube("verifier.check_uso_exhaustive")),
            (api.verifier, "outmap_table", "verifier.outmap_table"),
            (api.verifier, "check_uso_sampled", sampled),
            (api.verifier, "check_trace_properties", trace_properties),
            (api.verifier, "check_growth", "verifier.check_growth")):
        try:
            tracer.wrap(modules, home, attr, name)
        except AttributeError as exc:
            session.record(f"trace {home.__name__}.{attr}", str(exc))


def check_spans(tracer: Tracer, session: Session, workload: str) -> None:
    for name in EXPECTED_SPANS[workload]:
        session.record(f"trace span {name}", None if tracer.count(name) else
                       f"no {name} span in the traced {workload} pass")


def span_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    gates = [s for s in spans if s.name.startswith("frame_store.")
             and (s.parent is None or not spans[s.parent].name.startswith("frame_store."))]
    out = {
        "cli.main_s": tracer.total("cli.main"),
        "cli.self_s": tracer.total_self("cli.main"),
        "cli.calls": tracer.count("cli.main"),
        "frame_store.validate_all_s": sum(s.duration for s in gates),
        "frame_store.validate_all_calls": len(gates),
        "constructions.realize_range_s": tracer.total("constructions.realize_range"),
        "constructions.self_s": tracer.total_self("constructions.realize_range"),
        "pivot_engine.adaptive_run_s": tracer.total("pivot_engine.adaptive_run"),
        "pivot_engine.replay_run_s": tracer.total("pivot_engine.replay_run"),
        "pivot_engine.trace_write_s": tracer.total("pivot_engine.write_trace_jsonl"),
        "pivot_engine.trace_read_s": tracer.total("pivot_engine.read_trace_jsonl"),
        "verifier.check_acyclic_s": tracer.total("verifier.check_acyclic"),
        "verifier.check_uso_exhaustive_s": tracer.total("verifier.check_uso_exhaustive"),
        "verifier.outmap_table_s": tracer.total("verifier.outmap_table"),
        "verifier.vertices_checked": tracer.attr_sum("vertices"),
        "verifier.check_uso_sampled_s": tracer.total("verifier.check_uso_sampled"),
        "verifier.faces_sampled": tracer.attr_sum("faces"),
        "verifier.check_growth_s": tracer.total("verifier.check_growth"),
        "trace.overhead_s": len(spans) * span_cost(),
    }
    for family in FAMILIES:
        out[f"verifier.check_trace_properties_s.{family}"] = tracer.total(
            f"verifier.check_trace_properties.{family}")
    return out


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a traced wrapper adds to one call: a wrapped no-op against a
    plain one, the median of `repeats` batches of `calls` calls."""
    target = SimpleNamespace(noop=lambda: None)
    plain = target.noop
    tracer = Tracer()
    tracer.wrap([target], target, "noop", "noop")
    costs = []
    for _ in range(repeats):
        batch = []
        for fn in (plain, target.noop):
            started = time.perf_counter()
            for _ in range(calls):
                fn()
            batch.append(time.perf_counter() - started)
        costs.append((batch[1] - batch[0]) / calls)
    return statistics.median(costs)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def probe_metrics(workload: Workload) -> dict[str, float]:
    """Direct calls on each family's top level: rule stepping (ns per step
    and oracle evaluations per step) and lazy oracle evaluation on a seeded
    vertex sample, first on a cold memo and then warm."""
    api, session = workload.session.api, workload.session
    vertex_text = api.cube_core.vertex_text

    class CountingOracle(api.cube_core.OrientationOracle):
        def __init__(self, base):
            self.base = base
            self.dimension = base.dimension
            self.calls = 0

        def evaluate(self, v: int) -> int:
            self.calls += 1
            return self.base.evaluate(v)

    out = {}
    for family, top in TOPS[workload.name].items():
        level, _ = api.constructions.realize_level(family, top, cache_dir=workload.cache)
        length = PINNED_LENGTHS[family][top]
        sink = expected_text(SINK_BUNDLE, family, top)

        def walk(oracle):
            trace = api.pivot_engine.run_to_sink(
                oracle, level.start, family, api.constructions.rule_state(family, top),
                bundle_size=level.bundle_size, record_history=False)
            ok = len(trace) == length and vertex_text(trace.end, level.dimension) == sink
            session.record(f"probe walk {family} level {top}",
                           None if ok else f"{len(trace)} steps to "
                           f"{vertex_text(trace.end, level.dimension)}")

        counting = CountingOracle(level.oracle)
        walk(counting)
        times = []
        for _ in range(STEP_PROBE_REPEATS):
            started = time.perf_counter()
            walk(level.oracle)
            times.append(time.perf_counter() - started)
        out[f"pivot_engine.ns_per_step.{family}"] = statistics.median(times) / length * 1e9
        out[f"pivot_engine.evals_per_step.{family}"] = counting.calls / length

        fresh, _ = api.constructions.realize_level(family, top, cache_dir=workload.cache)
        rng = random.Random(workload.seed * len(FAMILIES) + FAMILIES.index(family))
        vertices = [rng.getrandbits(fresh.dimension) for _ in range(PROBE_VERTICES)]
        for memo in ("cold", "warm"):
            started = time.perf_counter()
            for v in vertices:
                fresh.oracle.evaluate(v)
            elapsed = time.perf_counter() - started
            out[f"combinators.evaluate_{memo}_ns.{family}"] = elapsed / len(vertices) * 1e9
    return out


# ---------------------------------------------------------------------------
# Entry point


def run_workload(api, name: str, seed: int, seconds: float,
                 trace: bool) -> tuple[Session, dict[str, float]]:
    session = Session(api)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        (work / "traces").mkdir()
        workload = Workload(name, session, work, seed)
        gc.freeze()  # children then leave the imported modules' pages shared
        setup_times = []
        first = time.perf_counter()
        while (len(setup_times) < SETUP_MIN_REPEATS
               or time.perf_counter() - first < SETUP_MIN_SECONDS):
            setup_times.append(workload.setup())
        timings = measure(workload, seconds)
        if not trace:
            return session, end_to_end_metrics(timings, setup_times)

        metrics = command_kind_metrics(timings)
        tracer = Tracer()
        origin = time.perf_counter()
        session.tracer = tracer
        install_spans(tracer, session)
        try:
            run_pass(workload)
        finally:
            tracer.restore()
            session.tracer = None
        check_spans(tracer, session, name)
        metrics.update(span_metrics(tracer))
        metrics["constructions.cache_bytes"] = dir_bytes(workload.cache)
        metrics["pivot_engine.trace_bytes"] = dir_bytes(work / "traces")
        metrics.update(probe_metrics(workload))
        spans_file = WORK / f"spans-{name}-seed{seed}.json"
        spans_file.write_text(json.dumps(
            {"provenance": provenance(api, name, seed),
             "spans": tracer.to_json(origin)}) + "\n", encoding="utf-8")
        return session, metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    api = load_ausokit()
    if api is None:
        return 2
    session, metrics = run_workload(api, args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    units = declared_units(bool(args.trace))
    if set(units) != set(metrics):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    print(json.dumps({"provenance": provenance(api, args.workload, args.seed)},
                     sort_keys=True))
    for name, unit in units.items():
        print(f"{args.workload:<7} {name:<44} {metrics[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if session.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
